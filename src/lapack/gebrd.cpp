#include "lapack/gebrd.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/error.hpp"
#include "la/blas1.hpp"
#include "la/blas2.hpp"
#include "la/blas3.hpp"
#include "lapack/gebrd_impl.hpp"
#include "lapack/reflectors.hpp"

namespace fth::lapack {

void gebd2(MatrixView<double> a, VectorView<double> d, VectorView<double> e,
           VectorView<double> tauq, VectorView<double> taup) {
  const index_t n = a.rows();
  FTH_CHECK(a.cols() == n, "gebd2: matrix must be square");
  FTH_CHECK(d.size() >= n && tauq.size() >= n, "gebd2: d/tauq too short");
  FTH_CHECK(e.size() >= std::max<index_t>(n - 1, 0) &&
                taup.size() >= std::max<index_t>(n - 1, 0),
            "gebd2: e/taup too short");

  std::vector<double> work_buf(static_cast<std::size_t>(n));
  VectorView<double> work(work_buf.data(), n);

  for (index_t i = 0; i < n; ++i) {
    // Left reflector: annihilate A(i+1:n, i), pivot on the diagonal.
    double alpha = a(i, i);
    auto xq = (i + 1 < n) ? a.col(i).sub(i + 1, n - i - 1) : VectorView<double>();
    larfg(alpha, xq, tauq[i]);
    d[i] = alpha;
    if (i + 1 <= n - 1) {
      a(i, i) = 1.0;
      VectorView<const double> v(a.block(i, i, n - i, 1).col(0).data(), n - i, 1);
      larf(Side::Left, v, tauq[i], a.block(i, i + 1, n - i, n - i - 1), work);
      a(i, i) = d[i];
    }

    if (i + 1 < n) {
      // Right reflector: annihilate A(i, i+2:n), pivot on the superdiagonal.
      double beta = a(i, i + 1);
      auto xr = (i + 2 < n) ? a.row(i).sub(i + 2, n - i - 2) : VectorView<double>();
      larfg(beta, xr, taup[i]);
      e[i] = beta;
      a(i, i + 1) = 1.0;
      auto urow = a.row(i).sub(i + 1, n - i - 1);
      VectorView<const double> u(urow.data(), n - i - 1, urow.inc());
      larf(Side::Right, u, taup[i], a.block(i + 1, i + 1, n - i - 1, n - i - 1), work);
      a(i, i + 1) = e[i];
    }
  }
}

void labrd(MatrixView<double> a, index_t k, index_t nb, VectorView<double> d,
           VectorView<double> e, VectorView<double> tauq, VectorView<double> taup,
           MatrixView<double> x, MatrixView<double> y) {
  const index_t n = a.rows();
  // Host products: done in the launch, so both waiters are ready.
  detail::labrd_panel(
      a, k, nb, d, e, tauq, taup, x, y,
      [&](index_t j, VectorView<const double> v, VectorView<double> ycol) {
        const index_t cj = k + j;
        blas::gemv(Trans::Yes, 1.0,
                   MatrixView<const double>(a.block(cj, cj + 1, n - cj, n - cj - 1)), v, 0.0,
                   ycol);
        return [] {};
      },
      [&](index_t j, VectorView<const double> u, VectorView<double> xcol) {
        const index_t cj = k + j;
        blas::gemv(Trans::No, 1.0,
                   MatrixView<const double>(a.block(cj + 1, cj + 1, n - cj - 1, n - cj - 1)),
                   u, 0.0, xcol);
        return [] {};
      });
}

void gebrd(MatrixView<double> a, VectorView<double> d, VectorView<double> e,
           VectorView<double> tauq, VectorView<double> taup, const GebrdOptions& opt) {
  const index_t n = a.rows();
  FTH_CHECK(a.cols() == n, "gebrd: matrix must be square");
  FTH_CHECK(d.size() >= n && tauq.size() >= n, "gebrd: d/tauq too short");
  FTH_CHECK(e.size() >= std::max<index_t>(n - 1, 0) &&
                taup.size() >= std::max<index_t>(n - 1, 0),
            "gebrd: e/taup too short");
  FTH_CHECK(opt.nb >= 1, "gebrd: block size must be positive");

  const index_t nb = opt.nb;
  const index_t nx = std::max(opt.nx, nb);
  Matrix<double> x(n, nb);
  Matrix<double> y(n, nb);

  index_t i = 0;
  while (n - i > nx + 1) {
    const index_t ib = std::min(nb, n - i - 1);
    labrd(a, i, ib, d.sub(i, ib), e.sub(i, ib), tauq.sub(i, ib), taup.sub(i, ib), x.view(),
          y.view());

    // Trailing update: A(i+ib:n, i+ib:n) −= V2·Y2ᵀ + X2·U2.
    const index_t tn = n - i - ib;
    blas::gemm(Trans::No, Trans::Yes, -1.0,
               MatrixView<const double>(a.block(i + ib, i, tn, ib)),
               MatrixView<const double>(y.block(i + ib, 0, tn, ib)), 1.0,
               a.block(i + ib, i + ib, tn, tn));
    blas::gemm(Trans::No, Trans::No, -1.0,
               MatrixView<const double>(x.block(i + ib, 0, tn, ib)),
               MatrixView<const double>(a.block(i, i + ib, ib, tn)), 1.0,
               a.block(i + ib, i + ib, tn, tn));

    // Restore the pivots the panel left as units.
    for (index_t j = 0; j < ib; ++j) {
      a(i + j, i + j) = d[i + j];
      a(i + j, i + j + 1) = e[i + j];
    }
    i += ib;
  }

  // Unblocked finish on the self-contained trailing block.
  {
    auto trail = a.block(i, i, n - i, n - i);
    gebd2(trail, d.sub(i, n - i),
          (i < n - 1) ? e.sub(i, n - i - 1) : VectorView<double>(), tauq.sub(i, n - i),
          (i < n - 1) ? taup.sub(i, n - i - 1) : VectorView<double>());
  }
}

Matrix<double> bidiagonal_from(VectorView<const double> d, VectorView<const double> e) {
  const index_t n = d.size();
  FTH_CHECK(e.size() >= std::max<index_t>(n - 1, 0), "bidiagonal_from: e too short");
  Matrix<double> b(n, n);
  for (index_t i = 0; i < n; ++i) {
    b(i, i) = d[i];
    if (i + 1 < n) b(i, i + 1) = e[i];
  }
  return b;
}

bool is_upper_bidiagonal(MatrixView<const double> b, double tol) {
  for (index_t j = 0; j < b.cols(); ++j) {
    for (index_t i = 0; i < b.rows(); ++i) {
      if (i == j || j == i + 1) continue;
      if (std::abs(b(i, j)) > tol) return false;
    }
  }
  return true;
}

namespace {

/// Materialize the QR-geometry reflector block for columns [s, s+ib):
/// column j has its unit on the diagonal row s+j and the tail below.
Matrix<double> materialize_v_qr(MatrixView<const double> a, index_t s, index_t ib) {
  const index_t n = a.rows();
  Matrix<double> v(n - s, ib);
  for (index_t j = 0; j < ib; ++j) {
    v(j, j) = 1.0;
    for (index_t r = j + 1; r < n - s; ++r) v(r, j) = a(s + r, s + j);
  }
  return v;
}

/// Materialize the P-side reflector block for rows [s, s+ib): reflector
/// s+j acts on columns ≥ s+j+1, its vector stored in row s+j right of the
/// superdiagonal. Returned columnwise (the stored row becomes a column).
Matrix<double> materialize_u_rows(MatrixView<const double> a, index_t s, index_t ib) {
  const index_t n = a.rows();
  Matrix<double> v(n - s - 1, ib);
  for (index_t j = 0; j < ib; ++j) {
    v(j, j) = 1.0;
    for (index_t r = j + 1; r < n - s - 1; ++r) v(r, j) = a(s + j, s + 1 + r);
  }
  return v;
}

}  // namespace

Matrix<double> orgbr_q(MatrixView<const double> a_factored, VectorView<const double> tauq,
                       index_t nb) {
  const index_t n = a_factored.rows();
  FTH_CHECK(a_factored.cols() == n, "orgbr_q: matrix must be square");
  FTH_CHECK(tauq.size() >= n, "orgbr_q: tauq too short");
  Matrix<double> q(n, n);
  set_identity(q.view());
  if (n == 0) return q;

  Matrix<double> t(nb, nb);
  Matrix<double> work(n, nb);
  index_t s = ((n - 1) / nb) * nb;
  for (;;) {
    const index_t ib = std::min(nb, n - s);
    Matrix<double> v = materialize_v_qr(a_factored, s, ib);
    larft(v.cview(), tauq.sub(s, ib), t.view());
    larfb(Trans::No, v.cview(), t.cview(), q.block(s, s, n - s, n - s), work.view());
    if (s == 0) break;
    s -= nb;
  }
  return q;
}

Matrix<double> orgbr_p(MatrixView<const double> a_factored, VectorView<const double> taup,
                       index_t nb) {
  const index_t n = a_factored.rows();
  FTH_CHECK(a_factored.cols() == n, "orgbr_p: matrix must be square");
  FTH_CHECK(taup.size() >= std::max<index_t>(n - 1, 0), "orgbr_p: taup too short");
  Matrix<double> p(n, n);
  set_identity(p.view());
  if (n <= 2) {
    // n == 2: the single right reflector has an empty tail (taup = 0).
    return p;
  }

  const index_t k = n - 2;  // non-trivial right reflectors
  Matrix<double> t(nb, nb);
  Matrix<double> work(n, nb);
  index_t s = ((k - 1) / nb) * nb;
  for (;;) {
    const index_t ib = std::min(nb, k - s);
    Matrix<double> v = materialize_u_rows(a_factored, s, ib);
    larft(v.cview(), taup.sub(s, ib), t.view());
    larfb(Trans::No, v.cview(), t.cview(), p.block(s + 1, s + 1, n - s - 1, n - s - 1),
          work.view());
    if (s == 0) break;
    s -= nb;
  }
  return p;
}

}  // namespace fth::lapack
