// Shared implementation of the latrd panel loop (internal header).
//
// Mirrors lahr2_impl.hpp: the tridiagonal panel reduction is identical on
// the host and hybrid paths except for the one operation that reads the
// trailing matrix — the symmetric matrix-vector product
// w_raw = A(k+j+1:n, k+j+1:n)·v. The provider functor abstracts it, split
// into a launch that returns a waiter (see lahr2_impl.hpp): the two small
// products that do not read w_raw run between the two.
#pragma once

#include <vector>

#include "common/error.hpp"
#include "la/blas1.hpp"
#include "la/blas2.hpp"
#include "la/matrix.hpp"
#include "lapack/reflectors.hpp"

namespace fth::lapack::detail {

/// Runs the latrd (lower) column loop on panel columns [k, k+nb) of the
/// symmetric matrix `a` (lower triangle authoritative), producing the
/// reflector scalars `tau`, the off-diagonal entries `e`, and the update
/// matrix W (global rows k..n−1 used, columns 0..nb−1).
///
/// `big_symv(j, vj, w_col)` must launch w_col = A_sym(k+j+1:n, ..)·vj
/// against the start-of-panel trailing matrix (exactly what dlatrd's
/// DSYMV does — the trailing block is untouched during the panel; the
/// deferred rank-2 updates are folded in by the W recurrences below) and
/// return a waiter, called exactly once per column before w_col is read.
///
/// On exit the subdiagonal "unit" elements A(k+j+1, k+j) hold 1 (as in
/// LAPACK); the caller restores e[j] after the trailing update.
template <class BigSymv>
void latrd_panel(MatrixView<double> a, index_t k, index_t nb, VectorView<double> e,
                 VectorView<double> tau, MatrixView<double> w, BigSymv&& big_symv) {
  const index_t n = a.rows();
  FTH_CHECK(a.cols() == n, "latrd: matrix must be square");
  FTH_CHECK(k >= 0 && nb >= 1 && k + nb < n, "latrd: panel out of range");
  FTH_CHECK(w.rows() >= n && w.cols() >= nb, "latrd: W too small");
  FTH_CHECK(e.size() >= nb && tau.size() >= nb, "latrd: e/tau too short");

  // Two temporaries: both products are taken before the wait.
  std::vector<double> tw_buf(static_cast<std::size_t>(nb));
  std::vector<double> ta_buf(static_cast<std::size_t>(nb));

  for (index_t j = 0; j < nb; ++j) {
    const index_t cj = k + j;        // global column being reduced
    const index_t len = n - cj;      // rows cj..n−1

    if (j > 0) {
      // Fold the previous reflectors' rank-2 updates into this column:
      // A(cj:n, cj) −= A(cj:n, k:cj)·W(cj, 0:j)ᵀ + W(cj:n, 0:j)·A(cj, k:cj)ᵀ.
      blas::gemv(Trans::No, -1.0, MatrixView<const double>(a.block(cj, k, len, j)),
                 VectorView<const double>(w.row(cj).sub(0, j)), 1.0,
                 a.block(cj, cj, len, 1).col(0));
      blas::gemv(Trans::No, -1.0, MatrixView<const double>(w.block(cj, 0, len, j)),
                 VectorView<const double>(a.row(cj).sub(k, j)), 1.0,
                 a.block(cj, cj, len, 1).col(0));
    }

    // Generate the reflector annihilating A(cj+2:n, cj).
    double alpha = a(cj + 1, cj);
    auto x = (cj + 2 < n) ? a.col(cj).sub(cj + 2, n - cj - 2) : VectorView<double>();
    larfg(alpha, x, tau[j]);
    e[j] = alpha;
    a(cj + 1, cj) = 1.0;  // LAPACK leaves the unit in place until after syr2k

    // W(cj+1:n, j) per the dlatrd recurrence.
    const index_t vlen = n - cj - 1;
    auto vj = a.block(cj + 1, cj, vlen, 1).col(0);
    VectorView<const double> vjc(vj.data(), vlen, 1);
    auto wcol = w.block(cj + 1, j, vlen, 1).col(0);

    auto wait_w = big_symv(j, vjc, wcol);  // w := A_sym(cj+1:n, cj+1:n)·v

    VectorView<double> tw(tw_buf.data(), j);
    VectorView<double> ta(ta_buf.data(), j);
    if (j > 0) {
      // Overlapping the provider's product: tw := W(cj+1:n, 0:j)ᵀ·v and
      // ta := A(cj+1:n, k:cj)ᵀ·v read neither w nor anything the launch
      // writes.
      blas::gemv(Trans::Yes, 1.0, MatrixView<const double>(w.block(cj + 1, 0, vlen, j)), vjc,
                 0.0, tw);
      blas::gemv(Trans::Yes, 1.0, MatrixView<const double>(a.block(cj + 1, k, vlen, j)), vjc,
                 0.0, ta);
    }
    wait_w();
    if (j > 0) {
      // w −= A(cj+1:n, k:cj)·tw;  w −= W(cj+1:n, 0:j)·ta
      blas::gemv(Trans::No, -1.0, MatrixView<const double>(a.block(cj + 1, k, vlen, j)),
                 VectorView<const double>(tw), 1.0, wcol);
      blas::gemv(Trans::No, -1.0, MatrixView<const double>(w.block(cj + 1, 0, vlen, j)),
                 VectorView<const double>(ta), 1.0, wcol);
    }
    blas::scal(tau[j], wcol);
    const double half_corr =
        -0.5 * tau[j] * blas::dot(VectorView<const double>(wcol), vjc);
    blas::axpy(half_corr, vjc, wcol);
  }
}

}  // namespace fth::lapack::detail
