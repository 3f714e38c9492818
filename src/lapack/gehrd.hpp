// Hessenberg reduction drivers (LAPACK gehd2 / lahr2 / gehrd).
//
// All routines reduce a square matrix A to upper Hessenberg form
// H = Qᵀ·A·Q, Q = H(0)·H(1)···H(n−2), overwriting A LAPACK-style: the
// upper Hessenberg result is in the upper triangle + first subdiagonal,
// and reflector i's vector v is stored in A(i+2:n, i) (v(0)=1 implicit).
#pragma once

#include "la/matrix.hpp"

namespace fth::lapack {

/// Unblocked Hessenberg reduction (LAPACK dgehd2) of columns ilo..n−2.
/// Columns before `ilo` must already be reduced: the blocked drivers
/// finish their trailing columns this way, with the couplings to the
/// finished part intact. `tau` must have length max(n−1, 0); its entries
/// before `ilo` are left alone.
void gehd2(MatrixView<double> a, VectorView<double> tau, index_t ilo = 0);

/// Panel reduction for the blocked algorithm (LAPACK dlahr2).
///
/// Reduces panel columns k..k+nb−1 of the n×n matrix `a` in place and
/// returns the compact-WY factors of the panel's block reflector:
///  * `t`   — nb×nb upper triangular T,
///  * `y`   — n×nb matrix Y = A·V·T (full height: the lower rows are
///            produced inside the column loop, the top k+1 rows at the end),
///  * `tau` — the nb reflector scalars.
/// The subdiagonal entries of the panel hold the beta values on exit (the
/// trailing one, A(k+nb, k+nb−1), is restored exactly as LAPACK does).
void lahr2(MatrixView<double> a, index_t k, index_t nb, MatrixView<double> t,
           MatrixView<double> y, VectorView<double> tau);

/// Tuning knobs for the blocked reduction.
struct GehrdOptions {
  index_t nb = 32;   ///< block (panel) width
  index_t nx = 128;  ///< crossover: switch to gehd2 when the trailing size drops below
};

/// Blocked Hessenberg reduction (LAPACK dgehrd, Algorithm 1 of the paper).
void gehrd(MatrixView<double> a, VectorView<double> tau, const GehrdOptions& opt = {});

/// Copy out the upper Hessenberg factor H from a reduced (factored) matrix.
Matrix<double> extract_hessenberg(MatrixView<const double> a_factored);

}  // namespace fth::lapack
