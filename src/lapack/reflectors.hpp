// Householder reflector kernels (LAPACK larfg / larf / larft / larfb).
//
// Conventions (all 0-based):
//  * An elementary reflector is H = I − tau·v·vᵀ with v(0) = 1.
//  * Block reflectors use the compact WY representation H = I − V·T·Vᵀ
//    where V is unit-lower-trapezoidal, its reflectors stored forward and
//    columnwise (LAPACK's 'F', 'C'), and H is applied from the left: the
//    one scheme every reduction here uses, so larft and larfb take no
//    storage or side modes. Only the strictly-lower part of V is read;
//    the unit diagonal is implicit and entries on/above the diagonal are
//    ignored, so V may alias the factorized panel of A exactly as in
//    LAPACK.
#pragma once

#include "la/matrix.hpp"

namespace fth::lapack {

/// Generate an elementary reflector H = I − tau·[1;v]·[1;v]ᵀ such that
/// H·[alpha; x] = [beta; 0]. On exit `alpha` holds beta and `x` holds v.
/// Handles subnormal scaling like LAPACK dlarfg.
void larfg(double& alpha, VectorView<double> x, double& tau);

/// Apply the elementary reflector H = I − tau·v·vᵀ to C from `side`.
/// `v` is the full reflector vector (caller stores the leading 1).
/// `work` must have length C.cols() (Side::Left) or C.rows() (Side::Right).
void larf(Side side, VectorView<const double> v, double tau, MatrixView<double> c,
          VectorView<double> work);

/// Form the k×k upper-triangular factor T of the block reflector
/// H = I − V·T·Vᵀ from the reflectors in V (m×k) and their scalars tau.
void larft(MatrixView<const double> v, VectorView<const double> tau, MatrixView<double> t);

/// Apply the block reflector H (Trans::No) or Hᵀ (Trans::Yes) to C from
/// the left. `work` must be at least C.cols()×k.
void larfb(Trans trans, MatrixView<const double> v, MatrixView<const double> t,
           MatrixView<double> c, MatrixView<double> work);

}  // namespace fth::lapack
