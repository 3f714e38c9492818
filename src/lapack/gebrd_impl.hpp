// Shared implementation of the labrd panel loop (internal header).
//
// Same pattern as lahr2_impl/sytrd_impl: the bidiagonal panel reduction is
// identical on the host and hybrid paths except for the two operations
// that read the trailing matrix — the column product
// y_raw = A(cj:n, cj+1:n)ᵀ·v and the row product x_raw = A(cj+1:n, cj+1:n)·u.
// The provider functors abstract exactly those, each split into a launch
// that returns a waiter (see lahr2_impl.hpp): the two small products of
// each half that do not read the raw product run between the two.
#pragma once

#include <vector>

#include "common/error.hpp"
#include "la/blas1.hpp"
#include "la/blas2.hpp"
#include "la/matrix.hpp"
#include "lapack/reflectors.hpp"

namespace fth::lapack::detail {

/// Runs the labrd column loop on panel rows/columns [k, k+nb) of the
/// square matrix `a` (upper-bidiagonal, m = n ≥ k+nb+1 assumed by the
/// blocked caller). Produces d/e/tauq/taup for the panel and the X and Y
/// update matrices (global rows used).
///
/// `big_gemv_y(j, v, y_col)` must launch y_col = A(cj:n, cj+1:n)ᵀ·v and
/// `big_gemv_x(j, u, x_col)` must launch x_col = A(cj+1:n, cj+1:n)·u,
/// both against the start-of-panel trailing matrix, and each return a
/// waiter, called exactly once per column before its result is read.
///
/// On exit the pivot positions A(cj,cj) and A(cj,cj+1) hold 1 (LAPACK
/// leaves the units in place); the caller restores d/e after the trailing
/// update.
template <class BigGemvY, class BigGemvX>
void labrd_panel(MatrixView<double> a, index_t k, index_t nb, VectorView<double> d,
                 VectorView<double> e, VectorView<double> tauq, VectorView<double> taup,
                 MatrixView<double> x, MatrixView<double> y, BigGemvY&& big_gemv_y,
                 BigGemvX&& big_gemv_x) {
  const index_t n = a.rows();
  FTH_CHECK(a.cols() == n, "labrd: matrix must be square");
  FTH_CHECK(k >= 0 && nb >= 1 && k + nb < n, "labrd: panel out of range");
  FTH_CHECK(x.rows() >= n && x.cols() >= nb && y.rows() >= n && y.cols() >= nb,
            "labrd: X/Y too small");
  FTH_CHECK(d.size() >= nb && e.size() >= nb && tauq.size() >= nb && taup.size() >= nb,
            "labrd: outputs too short");

  // Two temporaries: both small products of each half are taken before
  // that half's wait.
  std::vector<double> tmp_buf(static_cast<std::size_t>(nb) + 1);
  std::vector<double> tmp2_buf(static_cast<std::size_t>(nb));

  for (index_t j = 0; j < nb; ++j) {
    const index_t cj = k + j;
    const index_t mlen = n - cj;      // rows cj..n−1
    const index_t nlen = n - cj - 1;  // cols cj+1..n−1

    // Fold the previous reflectors into column cj.
    if (j > 0) {
      blas::gemv(Trans::No, -1.0, MatrixView<const double>(a.block(cj, k, mlen, j)),
                 VectorView<const double>(y.row(cj).sub(0, j)), 1.0,
                 a.block(cj, cj, mlen, 1).col(0));
      blas::gemv(Trans::No, -1.0, MatrixView<const double>(x.block(cj, 0, mlen, j)),
                 VectorView<const double>(a.block(k, cj, j, 1).col(0)), 1.0,
                 a.block(cj, cj, mlen, 1).col(0));
    }

    // Left reflector H(j): annihilate A(cj+1:n, cj), pivot on the diagonal.
    double alpha = a(cj, cj);
    auto xq = (cj + 1 < n) ? a.col(cj).sub(cj + 1, mlen - 1) : VectorView<double>();
    larfg(alpha, xq, tauq[j]);
    d[j] = alpha;
    a(cj, cj) = 1.0;

    // Y(cj+1:n, j) — the column of the right-update aggregate.
    auto v = a.block(cj, cj, mlen, 1).col(0);
    VectorView<const double> vc(v.data(), mlen, 1);
    auto ycol = y.block(cj + 1, j, nlen, 1).col(0);
    {
      auto wait_y = big_gemv_y(j, vc, ycol);
      // Overlapping the provider's product: ta := A(cj:n, k:cj)ᵀ·v and
      // tx := X(cj:n, 0:j)ᵀ·v read neither ycol nor what the launch writes.
      VectorView<double> ta(tmp_buf.data(), j);
      VectorView<double> tx(tmp2_buf.data(), j);
      blas::gemv(Trans::Yes, 1.0, MatrixView<const double>(a.block(cj, k, mlen, j)), vc, 0.0,
                 ta);
      blas::gemv(Trans::Yes, 1.0, MatrixView<const double>(x.block(cj, 0, mlen, j)), vc, 0.0,
                 tx);
      wait_y();
      blas::gemv(Trans::No, -1.0, MatrixView<const double>(y.block(cj + 1, 0, nlen, j)),
                 VectorView<const double>(ta), 1.0, ycol);
      blas::gemv(Trans::Yes, -1.0, MatrixView<const double>(a.block(k, cj + 1, j, nlen)),
                 VectorView<const double>(tx), 1.0, ycol);
      blas::scal(tauq[j], ycol);
    }

    // Update row A(cj, cj+1:n) with everything so far.
    {
      auto row = a.row(cj).sub(cj + 1, nlen);
      blas::gemv(Trans::No, -1.0, MatrixView<const double>(y.block(cj + 1, 0, nlen, j + 1)),
                 VectorView<const double>(a.row(cj).sub(k, j + 1)), 1.0, row);
      blas::gemv(Trans::Yes, -1.0, MatrixView<const double>(a.block(k, cj + 1, j, nlen)),
                 VectorView<const double>(x.row(cj).sub(0, j)), 1.0, row);
    }

    // Right reflector G(j): annihilate A(cj, cj+2:n), pivot on the
    // superdiagonal.
    double beta = a(cj, cj + 1);
    auto xr = (cj + 2 < n) ? a.row(cj).sub(cj + 2, nlen - 1) : VectorView<double>();
    larfg(beta, xr, taup[j]);
    e[j] = beta;
    a(cj, cj + 1) = 1.0;

    // X(cj+1:n, j) — the column of the left-update aggregate.
    auto u = a.row(cj).sub(cj + 1, nlen);
    VectorView<const double> uc(u.data(), nlen, u.inc());
    auto xcol = x.block(cj + 1, j, nlen, 1).col(0);
    {
      auto wait_x = big_gemv_x(j, uc, xcol);
      // Overlapping the provider's product: ty := Y(cj+1:n, 0:j+1)ᵀ·u and
      // tu := A(k:k+j, cj+1:n)·u read neither xcol nor what the launch
      // writes.
      VectorView<double> ty(tmp_buf.data(), j + 1);
      VectorView<double> tu(tmp2_buf.data(), j);
      blas::gemv(Trans::Yes, 1.0, MatrixView<const double>(y.block(cj + 1, 0, nlen, j + 1)),
                 uc, 0.0, ty);
      blas::gemv(Trans::No, 1.0, MatrixView<const double>(a.block(k, cj + 1, j, nlen)), uc,
                 0.0, tu);
      wait_x();
      blas::gemv(Trans::No, -1.0, MatrixView<const double>(a.block(cj + 1, k, nlen, j + 1)),
                 VectorView<const double>(ty), 1.0, xcol);
      blas::gemv(Trans::No, -1.0, MatrixView<const double>(x.block(cj + 1, 0, nlen, j)),
                 VectorView<const double>(tu), 1.0, xcol);
      blas::scal(taup[j], xcol);
    }
  }
}

}  // namespace fth::lapack::detail
