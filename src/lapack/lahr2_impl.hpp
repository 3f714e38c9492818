// Shared implementation of the lahr2 panel loop (internal header).
//
// The panel reduction is identical for the host algorithm and the hybrid
// algorithm except for one operation: the large matrix-vector product
// Y(k+1:n, j) = A(k+1:n, cj+1:n)·v, which reads the trailing matrix. On the
// host path that data is in `a`; on the hybrid path it lives in device
// memory and the product runs as a device kernel. The provider functor
// abstracts exactly that one step, so the delicate column-update logic
// exists once.
//
// The provider is split in two (DESIGN.md §7, "Panel providers"): the call
// *launches* the product and returns a *waiter*, a callable that blocks
// until the product has landed. Between the two the loop runs the small
// host products that neither read the result nor write what the launch
// reads, so on the hybrid path they overlap the device's product. A host
// provider computes in the launch and returns a ready waiter.
#pragma once

#include <vector>

#include "common/error.hpp"
#include "la/blas1.hpp"
#include "la/blas2.hpp"
#include "la/matrix.hpp"
#include "lapack/reflectors.hpp"

namespace fth::lapack::detail {

/// Runs the lahr2 column loop on panel columns [k, k+nb) of `a`.
///
/// `big_gemv(j, vj, y_col)` must launch y_col = A(k+1:n, k+j+1:n)·vj
/// against the start-of-iteration trailing matrix, where vj is the
/// reflector vector (unit element included) and y_col has length n−k−1,
/// and return a waiter; y_col holds the product once the waiter returned.
/// The waiter is called exactly once per column, before y_col is read.
/// Only panel columns of `a` are read or written here, so `a`'s trailing
/// columns may be stale on the hybrid path.
template <class BigGemv>
void lahr2_panel(MatrixView<double> a, index_t k, index_t nb, MatrixView<double> t,
                 MatrixView<double> y, VectorView<double> tau, BigGemv&& big_gemv) {
  const index_t n = a.rows();
  FTH_CHECK(a.cols() == n, "lahr2: matrix must be square");
  FTH_CHECK(k >= 0 && nb >= 1 && k + nb < n, "lahr2: panel out of range");
  FTH_CHECK(t.rows() >= nb && t.cols() >= nb, "lahr2: T too small");
  FTH_CHECK(y.rows() >= n && y.cols() >= nb, "lahr2: Y too small");
  FTH_CHECK(tau.size() >= nb, "lahr2: tau too short");

  std::vector<double> w_buf(static_cast<std::size_t>(nb));
  double ei = 0.0;

  for (index_t j = 0; j < nb; ++j) {
    const index_t cj = k + j;
    const index_t rows = n - k - 1;
    if (j > 0) {
      // Right update of this column from the previous reflectors:
      // b −= Y(k+1:n, 0:j)·(V-row for this column)ᵀ, the row being A(cj, k:cj).
      blas::gemv(Trans::No, -1.0, MatrixView<const double>(y.block(k + 1, 0, rows, j)),
                 VectorView<const double>(a.row(cj).sub(k, j)), 1.0,
                 a.block(k + 1, cj, rows, 1).col(0));
      // Left update: b := (I − V·Tᵀ·Vᵀ)·b.
      VectorView<double> w(w_buf.data(), j);
      auto b1 = a.block(k + 1, cj, j, 1).col(0);
      auto b2 = a.block(k + j + 1, cj, n - k - j - 1, 1).col(0);
      auto v1 = a.block(k + 1, k, j, j);
      auto v2 = a.block(k + j + 1, k, n - k - j - 1, j);
      blas::copy(VectorView<const double>(b1), w);
      blas::trmv(Uplo::Lower, Trans::Yes, Diag::Unit, MatrixView<const double>(v1), w);
      blas::gemv(Trans::Yes, 1.0, MatrixView<const double>(v2), VectorView<const double>(b2),
                 1.0, w);
      blas::trmv(Uplo::Upper, Trans::Yes, Diag::NonUnit,
                 MatrixView<const double>(t.block(0, 0, j, j)), w);
      blas::gemv(Trans::No, -1.0, MatrixView<const double>(v2), VectorView<const double>(w),
                 1.0, b2);
      blas::trmv(Uplo::Lower, Trans::No, Diag::Unit, MatrixView<const double>(v1), w);
      blas::axpy(-1.0, VectorView<const double>(w), b1);
      a(cj, cj - 1) = ei;
    }

    // Generate the elementary reflector for column cj.
    double alpha = a(k + j + 1, cj);
    auto x = (k + j + 2 < n) ? a.col(cj).sub(k + j + 2, n - k - j - 2) : VectorView<double>();
    larfg(alpha, x, tau[j]);
    ei = alpha;
    a(k + j + 1, cj) = 1.0;

    // Y(k+1:n, j) := tau·(A_trail·v − Y(:,0:j)·(V2ᵀ·v)).
    const index_t vlen = n - k - j - 1;
    auto vj = a.block(k + j + 1, cj, vlen, 1).col(0);
    VectorView<const double> vjc(vj.data(), vlen, 1);
    auto y_col = y.block(k + 1, j, rows, 1).col(0);
    auto wait_y = big_gemv(j, vjc, y_col);
    // T(0:j, j) := V2ᵀ·v reads neither y_col nor anything the launch
    // writes: it overlaps the provider's product.
    if (j > 0) {
      blas::gemv(Trans::Yes, 1.0, MatrixView<const double>(a.block(k + j + 1, k, vlen, j)),
                 vjc, 0.0, t.block(0, j, j, 1).col(0));
    }
    wait_y();
    if (j > 0) {
      blas::gemv(Trans::No, -1.0, MatrixView<const double>(y.block(k + 1, 0, rows, j)),
                 VectorView<const double>(t.block(0, j, j, 1).col(0)), 1.0, y_col);
    }
    blas::scal(tau[j], y_col);

    // T(0:j, j) := −tau·T(0:j,0:j)·(V2ᵀ·v);  T(j,j) := tau.
    if (j > 0) {
      blas::scal(-tau[j], t.block(0, j, j, 1).col(0));
      blas::trmv(Uplo::Upper, Trans::No, Diag::NonUnit,
                 MatrixView<const double>(t.block(0, 0, j, j)), t.block(0, j, j, 1).col(0));
    }
    t(j, j) = tau[j];
  }
  a(k + nb, k + nb - 1) = ei;
}

}  // namespace fth::lapack::detail
