// Generate the orthogonal factor Q of a Hessenberg reduction (dorghr).
#pragma once

#include "la/matrix.hpp"

namespace fth::lapack {

/// Form the n×n orthogonal matrix Q = H(0)·H(1)···H(n−2) from the
/// reflectors stored below the first subdiagonal of a gehrd-factored
/// matrix and the scalars `tau`. Blocked backward accumulation.
Matrix<double> orghr(MatrixView<const double> a_factored, VectorView<const double> tau,
                     index_t nb = 32);

/// Materialize the reflector block V for panel columns [k, k+nb) of a
/// factored matrix into a clean (n−k−1)×nb unit-lower-trapezoidal matrix
/// (explicit unit diagonal, explicit zeros above it). Shared by orghr, the
/// hybrid driver, and the FT driver (which checksums V).
Matrix<double> materialize_v(MatrixView<const double> a_factored, index_t k, index_t nb);

/// materialize_v into a caller-owned (n−k−1)×nb view — every entry is
/// written (explicit zeros above the unit diagonal), so a loop-hoisted
/// buffer can be refilled in place. The gehrd and sytrd drivers (hybrid
/// and FT) stage V this way, so the buffer outlives the async h2d that
/// reads it.
void materialize_v_into(MatrixView<const double> a_factored, index_t k, index_t nb,
                        MatrixView<double> v);

}  // namespace fth::lapack
