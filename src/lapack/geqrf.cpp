#include "lapack/geqrf.hpp"

#include <algorithm>
#include <vector>

#include "common/error.hpp"
#include "la/blas3.hpp"
#include "lapack/reflectors.hpp"

namespace fth::lapack {

namespace {

/// Materialize the QR reflector block for columns [s, s+ib) of an m×n
/// factored matrix: column j has its unit on row s+j, tail below, zeros
/// above.
Matrix<double> materialize_v_qr(MatrixView<const double> a, index_t s, index_t ib) {
  const index_t m = a.rows();
  Matrix<double> v(m - s, ib);
  for (index_t j = 0; j < ib; ++j) {
    v(j, j) = 1.0;
    for (index_t r = j + 1; r < m - s; ++r) v(r, j) = a(s + r, s + j);
  }
  return v;
}

}  // namespace

void geqr2(MatrixView<double> a, VectorView<double> tau) {
  const index_t m = a.rows();
  const index_t n = a.cols();
  FTH_CHECK(m >= n, "geqr2: m >= n required");
  FTH_CHECK(tau.size() >= n, "geqr2: tau too short");

  std::vector<double> work_buf(static_cast<std::size_t>(std::max(m, n)));
  VectorView<double> work(work_buf.data(), static_cast<index_t>(work_buf.size()));

  for (index_t i = 0; i < n; ++i) {
    double alpha = a(i, i);
    auto x = (i + 1 < m) ? a.col(i).sub(i + 1, m - i - 1) : VectorView<double>();
    larfg(alpha, x, tau[i]);
    if (i + 1 < n) {
      const double di = alpha;
      a(i, i) = 1.0;
      VectorView<const double> v(a.block(i, i, m - i, 1).col(0).data(), m - i, 1);
      larf(Side::Left, v, tau[i], a.block(i, i + 1, m - i, n - i - 1), work);
      a(i, i) = di;
    } else {
      a(i, i) = alpha;
    }
  }
}

void geqrf(MatrixView<double> a, VectorView<double> tau, const GeqrfOptions& opt,
           const QrIterationHook& hook) {
  const index_t m = a.rows();
  const index_t n = a.cols();
  FTH_CHECK(m >= n, "geqrf: m >= n required");
  FTH_CHECK(tau.size() >= n, "geqrf: tau too short");
  FTH_CHECK(opt.nb >= 1, "geqrf: block size must be positive");

  const index_t nb = opt.nb;
  Matrix<double> t(nb, nb);
  Matrix<double> work(std::max(m, n), nb);

  index_t i = 0;
  index_t boundary = 0;
  while (i < n) {
    const index_t ib = std::min(nb, n - i);
    // Panel factorization.
    geqr2(a.block(i, i, m - i, ib), tau.sub(i, ib));
    // Trailing update with the block reflector.
    if (i + ib < n) {
      Matrix<double> v = materialize_v_qr(MatrixView<const double>(a), i, ib);
      larft(v.cview(), tau.sub(i, ib), t.view());
      larfb(Trans::Yes, v.cview(), t.cview(), a.block(i, i + ib, m - i, n - i - ib),
            work.view());
    }
    i += ib;
    ++boundary;
    if (hook) hook(boundary, i, a);
  }
}

Matrix<double> orgqr(MatrixView<const double> a_factored, VectorView<const double> tau,
                     index_t nb) {
  const index_t m = a_factored.rows();
  const index_t k = std::min(a_factored.cols(), m);
  FTH_CHECK(tau.size() >= k, "orgqr: tau too short");
  Matrix<double> q(m, m);
  set_identity(q.view());
  if (m == 0 || k == 0) return q;

  Matrix<double> t(nb, nb);
  Matrix<double> work(m, nb);
  index_t s = ((k - 1) / nb) * nb;
  for (;;) {
    const index_t ib = std::min(nb, k - s);
    Matrix<double> v = materialize_v_qr(a_factored, s, ib);
    larft(v.cview(), tau.sub(s, ib), t.view());
    larfb(Trans::No, v.cview(), t.cview(), q.block(s, s, m - s, m - s), work.view());
    if (s == 0) break;
    s -= nb;
  }
  return q;
}

Matrix<double> extract_r(MatrixView<const double> a_factored) {
  const index_t m = a_factored.rows();
  const index_t n = a_factored.cols();
  Matrix<double> r(m, n);
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i <= std::min(j, m - 1); ++i) r(i, j) = a_factored(i, j);
  return r;
}

}  // namespace fth::lapack
