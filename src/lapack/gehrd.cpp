#include "lapack/gehrd.hpp"

#include <algorithm>
#include <vector>

#include "common/error.hpp"
#include "la/blas1.hpp"
#include "la/blas2.hpp"
#include "la/blas3.hpp"
#include "lapack/lahr2_impl.hpp"
#include "lapack/reflectors.hpp"

namespace fth::lapack {

void gehd2(MatrixView<double> a, VectorView<double> tau, index_t ilo) {
  const index_t n = a.rows();
  FTH_CHECK(a.cols() == n, "gehd2: matrix must be square");
  FTH_CHECK(tau.size() >= std::max<index_t>(n - 1, 0), "gehd2: tau too short");
  FTH_CHECK(ilo >= 0, "gehd2: first column must be non-negative");

  std::vector<double> work_buf(static_cast<std::size_t>(n));
  VectorView<double> work(work_buf.data(), n);

  for (index_t i = ilo; i + 1 < n; ++i) {
    // Generate H(i) to annihilate A(i+2:n, i). The last reflector has an
    // empty tail: larfg returns tau = 0 and both larf calls are no-ops.
    double alpha = a(i + 1, i);
    auto x = (i + 2 < n) ? a.col(i).sub(i + 2, n - i - 2) : VectorView<double>();
    larfg(alpha, x, tau[i]);
    const double ei = alpha;

    // v lives in A(i+1:n, i) with the leading 1 stored temporarily.
    a(i + 1, i) = 1.0;
    auto v = a.block(i + 1, i, n - i - 1, 1).col(0);
    VectorView<const double> vc(v.data(), v.size(), v.inc());

    // A(0:n, i+1:n) := A·H(i)   (right update)
    larf(Side::Right, vc, tau[i], a.block(0, i + 1, n, n - i - 1), work);
    // A(i+1:n, i+1:n) := H(i)·A (left update; H is symmetric)
    larf(Side::Left, vc, tau[i], a.block(i + 1, i + 1, n - i - 1, n - i - 1), work);

    a(i + 1, i) = ei;
  }
}

void lahr2(MatrixView<double> a, index_t k, index_t nb, MatrixView<double> t,
           MatrixView<double> y, VectorView<double> tau) {
  const index_t n = a.rows();
  // The big per-column product reads the trailing matrix directly from the
  // host matrix on this path; it is done when the launch returns, so the
  // waiter is ready.
  detail::lahr2_panel(a, k, nb, t, y, tau,
                      [&](index_t j, VectorView<const double> vj, VectorView<double> y_col) {
                        const index_t cj = k + j;
                        blas::gemv(Trans::No, 1.0,
                                   MatrixView<const double>(
                                       a.block(k + 1, cj + 1, n - k - 1, n - cj - 1)),
                                   vj, 0.0, y_col);
                        return [] {};
                      });

  // -- Top block of Y: Y(0:k+1, :) = A(0:k+1, k+1:n)·V·T. -----------------
  const index_t up = k + 1;
  copy(MatrixView<const double>(a.block(0, k + 1, up, nb)), y.block(0, 0, up, nb));
  blas::trmm(Side::Right, Uplo::Lower, Trans::No, Diag::Unit, 1.0,
             MatrixView<const double>(a.block(k + 1, k, nb, nb)), y.block(0, 0, up, nb));
  if (n > k + 1 + nb) {
    blas::gemm(Trans::No, Trans::No, 1.0,
               MatrixView<const double>(a.block(0, k + 1 + nb, up, n - k - 1 - nb)),
               MatrixView<const double>(a.block(k + 1 + nb, k, n - k - 1 - nb, nb)), 1.0,
               y.block(0, 0, up, nb));
  }
  blas::trmm(Side::Right, Uplo::Upper, Trans::No, Diag::NonUnit, 1.0,
             MatrixView<const double>(t.block(0, 0, nb, nb)), y.block(0, 0, up, nb));
}

void gehrd(MatrixView<double> a, VectorView<double> tau, const GehrdOptions& opt) {
  const index_t n = a.rows();
  FTH_CHECK(a.cols() == n, "gehrd: matrix must be square");
  FTH_CHECK(tau.size() >= std::max<index_t>(n - 1, 0), "gehrd: tau too short");
  FTH_CHECK(opt.nb >= 1, "gehrd: block size must be positive");

  const index_t nb = opt.nb;
  const index_t nx = std::max(opt.nx, nb);

  Matrix<double> t(nb, nb);
  Matrix<double> y(n, nb);
  Matrix<double> work(n, nb);

  index_t i = 0;
  // Blocked phase: stop once the remaining problem is small.
  while (n - i > nx + 1) {
    const index_t ib = std::min(nb, n - i - 1);
    lahr2(a, i, ib, t.view(), y.view(), tau.sub(i, ib));

    // Right update of the trailing columns: A(0:n, i+ib:n) −= Y·V2ᵀ.
    // V2 = A(i+ib:n, i:i+ib); its top-right element is the implicit unit of
    // the last panel column, temporarily set to 1 (the LAPACK "EI" trick).
    const double ei = a(i + ib, i + ib - 1);
    a(i + ib, i + ib - 1) = 1.0;
    blas::gemm(Trans::No, Trans::Yes, -1.0,
               MatrixView<const double>(y.block(0, 0, n, ib)),
               MatrixView<const double>(a.block(i + ib, i, n - i - ib, ib)), 1.0,
               a.block(0, i + ib, n, n - i - ib));
    a(i + ib, i + ib - 1) = ei;

    // Right update of the panel's own upper rows:
    // A(0:i+1, i+1:i+ib) −= Y(0:i+1, 0:ib−1)·V1ᵀ (V1 unit lower triangular).
    blas::trmm(Side::Right, Uplo::Lower, Trans::Yes, Diag::Unit, 1.0,
               MatrixView<const double>(a.block(i + 1, i, ib - 1, ib - 1)),
               y.block(0, 0, i + 1, ib - 1));
    for (index_t j = 0; j + 1 < ib; ++j) {
      blas::axpy(-1.0, VectorView<const double>(y.block(0, j, i + 1, 1).col(0)),
                 a.block(0, i + 1 + j, i + 1, 1).col(0));
    }

    // Left update: A(i+1:n, i+ib:n) := Hᵀ·A(i+1:n, i+ib:n).
    larfb(Trans::Yes, MatrixView<const double>(a.block(i + 1, i, n - i - 1, ib)),
          MatrixView<const double>(t.block(0, 0, ib, ib)),
          a.block(i + 1, i + ib, n - i - 1, n - i - ib), work.view());

    i += ib;
  }

  // Unblocked phase on the remaining columns. gehd2 on the trailing
  // (n−i)×(n−i) block alone would lose the couplings to the finished part,
  // so it runs on the full matrix from column i.
  gehd2(a, tau, i);
}

Matrix<double> extract_hessenberg(MatrixView<const double> a_factored) {
  const index_t n = a_factored.rows();
  Matrix<double> h(n, n);
  for (index_t j = 0; j < n; ++j) {
    const index_t last = std::min(j + 1, n - 1);
    for (index_t i = 0; i <= last; ++i) h(i, j) = a_factored(i, j);
  }
  return h;
}

}  // namespace fth::lapack
