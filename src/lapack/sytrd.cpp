#include "lapack/sytrd.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/error.hpp"
#include "la/blas1.hpp"
#include "la/blas2.hpp"
#include "la/blas3.hpp"
#include "lapack/reflectors.hpp"
#include "lapack/sytrd_impl.hpp"

namespace fth::lapack {

void sytd2(MatrixView<double> a, VectorView<double> d, VectorView<double> e,
           VectorView<double> tau) {
  const index_t n = a.rows();
  FTH_CHECK(a.cols() == n, "sytd2: matrix must be square");
  FTH_CHECK(d.size() >= n, "sytd2: d too short");
  FTH_CHECK(e.size() >= std::max<index_t>(n - 1, 0) &&
                tau.size() >= std::max<index_t>(n - 1, 0),
            "sytd2: e/tau too short");

  std::vector<double> w_buf(static_cast<std::size_t>(n));

  for (index_t i = 0; i + 1 < n; ++i) {
    // Reflector H(i) annihilating A(i+2:n, i).
    double alpha = a(i + 1, i);
    auto x = (i + 2 < n) ? a.col(i).sub(i + 2, n - i - 2) : VectorView<double>();
    larfg(alpha, x, tau[i]);
    e[i] = alpha;

    if (tau[i] != 0.0) {
      a(i + 1, i) = 1.0;
      const index_t len = n - i - 1;
      auto v = a.block(i + 1, i, len, 1).col(0);
      VectorView<const double> vc(v.data(), len, 1);
      VectorView<double> w(w_buf.data(), len);
      // w := tau·A_sym·v;  w −= (tau/2)(wᵀv)·v;  A −= v·wᵀ + w·vᵀ.
      blas::symv(Uplo::Lower, tau[i],
                 MatrixView<const double>(a.block(i + 1, i + 1, len, len)), vc, 0.0, w);
      const double corr = -0.5 * tau[i] * blas::dot(VectorView<const double>(w), vc);
      blas::axpy(corr, vc, w);
      blas::syr2(Uplo::Lower, -1.0, vc, VectorView<const double>(w),
                 a.block(i + 1, i + 1, len, len));
      a(i + 1, i) = e[i];
    }
    d[i] = a(i, i);
  }
  if (n > 0) d[n - 1] = a(n - 1, n - 1);
}

void latrd(MatrixView<double> a, index_t k, index_t nb, VectorView<double> e,
           VectorView<double> tau, MatrixView<double> w) {
  const index_t n = a.rows();
  // Host product: done in the launch, so the waiter is ready.
  detail::latrd_panel(a, k, nb, e, tau, w,
                      [&](index_t j, VectorView<const double> vj, VectorView<double> w_col) {
                        const index_t cj = k + j;
                        blas::symv(Uplo::Lower, 1.0,
                                   MatrixView<const double>(
                                       a.block(cj + 1, cj + 1, n - cj - 1, n - cj - 1)),
                                   vj, 0.0, w_col);
                        return [] {};
                      });
}

void sytrd(MatrixView<double> a, VectorView<double> d, VectorView<double> e,
           VectorView<double> tau, const SytrdOptions& opt) {
  const index_t n = a.rows();
  FTH_CHECK(a.cols() == n, "sytrd: matrix must be square");
  FTH_CHECK(d.size() >= n, "sytrd: d too short");
  FTH_CHECK(e.size() >= std::max<index_t>(n - 1, 0) &&
                tau.size() >= std::max<index_t>(n - 1, 0),
            "sytrd: e/tau too short");
  FTH_CHECK(opt.nb >= 1, "sytrd: block size must be positive");

  const index_t nb = opt.nb;
  const index_t nx = std::max(opt.nx, nb);
  Matrix<double> w(n, nb);

  index_t i = 0;
  while (n - i > nx + 1) {
    const index_t ib = std::min(nb, n - i - 1);
    latrd(a, i, ib, e.sub(i, ib), tau.sub(i, ib), w.view());

    // Trailing update: A(i+ib:n, i+ib:n) −= V2·W2ᵀ + W2·V2ᵀ, lower triangle.
    // V2 = A(i+ib:n, i:i+ib) — its top-right element is the unit of the
    // last panel column, still set to 1 from latrd.
    const index_t tn = n - i - ib;
    blas::syr2k(Uplo::Lower, Trans::No, -1.0,
                MatrixView<const double>(a.block(i + ib, i, tn, ib)),
                MatrixView<const double>(w.block(i + ib, 0, tn, ib)), 1.0,
                a.block(i + ib, i + ib, tn, tn));

    // Restore the off-diagonal entries the panel left as units.
    for (index_t j = 0; j < ib; ++j) a(i + j + 1, i + j) = e[i + j];
    for (index_t j = 0; j < ib; ++j) d[i + j] = a(i + j, i + j);
    i += ib;
  }

  // Unblocked finish on the trailing block (self-contained: the trailing
  // block of a symmetric similarity never couples back to finished rows).
  {
    auto trail = a.block(i, i, n - i, n - i);
    sytd2(trail, d.sub(i, n - i),
          (i + 1 <= n - 1) ? e.sub(i, n - i - 1) : VectorView<double>(),
          (i + 1 <= n - 1) ? tau.sub(i, n - i - 1) : VectorView<double>());
  }
}

Matrix<double> tridiagonal_from(VectorView<const double> d, VectorView<const double> e) {
  const index_t n = d.size();
  FTH_CHECK(e.size() >= std::max<index_t>(n - 1, 0), "tridiagonal_from: e too short");
  Matrix<double> t(n, n);
  for (index_t i = 0; i < n; ++i) {
    t(i, i) = d[i];
    if (i + 1 < n) {
      t(i + 1, i) = e[i];
      t(i, i + 1) = e[i];
    }
  }
  return t;
}

bool is_tridiagonal(MatrixView<const double> t, double tol) {
  for (index_t j = 0; j < t.cols(); ++j) {
    for (index_t i = 0; i < t.rows(); ++i) {
      if (std::abs(i - j) <= 1) continue;
      if (std::abs(t(i, j)) > tol) return false;
    }
  }
  return true;
}

}  // namespace fth::lapack
