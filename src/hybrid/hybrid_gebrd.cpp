#include "hybrid/hybrid_gebrd.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "hybrid/dev_blas.hpp"
#include "obs/trace.hpp"
#include "lapack/gebrd.hpp"
#include "lapack/gebrd_impl.hpp"

namespace fth::hybrid {

void hybrid_gebrd(Device& dev, MatrixView<double> a, VectorView<double> d,
                  VectorView<double> e, VectorView<double> tauq, VectorView<double> taup,
                  const HybridGebrdOptions& opt, HybridGehrdStats* stats,
                  const IterationHook& hook) {
  const index_t n = a.rows();
  FTH_CHECK(a.cols() == n, "hybrid_gebrd: matrix must be square");
  FTH_CHECK(d.size() >= n && tauq.size() >= n, "hybrid_gebrd: d/tauq too short");
  FTH_CHECK(e.size() >= std::max<index_t>(n - 1, 0) &&
                taup.size() >= std::max<index_t>(n - 1, 0),
            "hybrid_gebrd: e/taup too short");
  FTH_CHECK(opt.nb >= 1, "hybrid_gebrd: block size must be positive");

  RunFrame frame(dev, "hybrid", "gebrd", n, stats);
  HybridGehrdStats& st = frame.st();
  const index_t nb = opt.nb;
  const index_t nx = std::max(opt.nx, nb);
  if (n <= nx + 1) {  // no blocked iteration: the host reduction alone
    const obs::TimedSpan finish("hybrid", "finish", st.finish_seconds, "col", 0.0);
    lapack::gebd2(a, d, e, tauq, taup);
    return;
  }
  Stream& s = dev.stream();

  DeviceMatrix<double> d_a(dev, n, n, "gebrd.d_a");
  copy_h2d(s, MatrixView<const double>(a), d_a.view());

  Matrix<double> x_host(n, nb);
  Matrix<double> y_host(n, nb);
  // Dense staging of the strided row u, loop-hoisted: its upload is only
  // retired by the column's waiter, after the provider has returned.
  Matrix<double> u_host(n, 1);
  DeviceMatrix<double> d_vec(dev, n, 1, "gebrd.d_vec");  // staging for v/u vectors
  DeviceMatrix<double> d_res(dev, n, 1, "gebrd.d_res");  // staging for the big products
  DeviceMatrix<double> d_v2(dev, n, nb, "gebrd.d_v2");
  DeviceMatrix<double> d_y2(dev, n, nb, "gebrd.d_y2");
  DeviceMatrix<double> d_x2(dev, n, nb, "gebrd.d_x2");
  DeviceMatrix<double> d_u2(dev, nb, n, "gebrd.d_u2");

  index_t i = 0;
  while (n - i > nx + 1) {
    const index_t ib = std::min(nb, n - i - 1);

    {
      const obs::TimedSpan panel("hybrid", "panel", st.panel_seconds, "col",
                                 static_cast<double>(i));
      // Fetch the column panel (rows ≥ i only: the rows above belong to
      // finished data that lives on the host — P's Householder storage and
      // the superdiagonal — and the device copy of them is stale) AND the
      // row panel.
      copy_d2h_async(s, d_a.block(i, i, n - i, ib),
                     a.block(i, i, n - i, ib));
      copy_d2h(s, d_a.block(i, i + ib, ib, n - i - ib),
               a.block(i, i + ib, ib, n - i - ib));

      lapack::detail::labrd_panel(
          a, i, ib, d.sub(i, ib), e.sub(i, ib), tauq.sub(i, ib), taup.sub(i, ib),
          x_host.view(), y_host.view(),
          [&](index_t j, VectorView<const double> v, VectorView<double> ycol) {
            const index_t cj = i + j;
            const index_t mlen = n - cj;
            const index_t nlen = n - cj - 1;
            copy_h2d_async(s, MatrixView<const double>(v.data(), mlen, 1, mlen),
                           d_vec.block(0, 0, mlen, 1));
            gemv_async(s, Trans::Yes, 1.0,
                       d_a.block(cj, cj + 1, mlen, nlen),
                       d_vec.view().col(0).sub(0, mlen), 0.0,
                       d_res.view().col(0).sub(0, nlen));
            copy_d2h_async(s, d_res.block(0, 0, nlen, 1),
                           MatrixView<double>(ycol.data(), nlen, 1, nlen));
            return [&s] { s.synchronize(); };  // joins the fetch
          },
          [&](index_t j, VectorView<const double> u, VectorView<double> xcol) {
            const index_t cj = i + j;
            const index_t nlen = n - cj - 1;
            // u is a strided row view; stage it densely for the transfer.
            for (index_t r = 0; r < nlen; ++r) u_host(r, 0) = u[r];
            copy_h2d_async(s, MatrixView<const double>(u_host.block(0, 0, nlen, 1)),
                           d_vec.block(0, 0, nlen, 1));
            gemv_async(s, Trans::No, 1.0,
                       d_a.block(cj + 1, cj + 1, nlen, nlen),
                       d_vec.view().col(0).sub(0, nlen), 0.0,
                       d_res.view().col(0).sub(0, nlen));
            copy_d2h_async(s, d_res.block(0, 0, nlen, 1),
                           MatrixView<double>(xcol.data(), nlen, 1, nlen));
            return [&s] { s.synchronize(); };  // joins the fetch
          });
    }

    {
      const obs::TimedSpan update("hybrid", "update", st.update_seconds, "col",
                                  static_cast<double>(i));
      const index_t tn = n - i - ib;
      // Ship the four trailing-update operands (units are already in place
      // in the host panel data exactly as LAPACK leaves them).
      copy_h2d_async(s, MatrixView<const double>(a.block(i + ib, i, tn, ib)),
                     d_v2.block(0, 0, tn, ib));
      copy_h2d_async(s, MatrixView<const double>(y_host.block(i + ib, 0, tn, ib)),
                     d_y2.block(0, 0, tn, ib));
      copy_h2d_async(s, MatrixView<const double>(x_host.block(i + ib, 0, tn, ib)),
                     d_x2.block(0, 0, tn, ib));
      copy_h2d_async(s, MatrixView<const double>(a.block(i, i + ib, ib, tn)),
                     d_u2.block(0, 0, ib, tn));
      // The U2 transfer must observe the panel's unit entries; only after
      // it completes may the host put the pivot values back (the GEMMs
      // below still overlap with the host work).
      const Event operands_shipped = s.record();

      gemm_async(s, Trans::No, Trans::Yes, -1.0,
                 d_v2.block(0, 0, tn, ib),
                 d_y2.block(0, 0, tn, ib), 1.0,
                 d_a.block(i + ib, i + ib, tn, tn));
      gemm_async(s, Trans::No, Trans::No, -1.0,
                 d_x2.block(0, 0, tn, ib),
                 d_u2.block(0, 0, ib, tn), 1.0,
                 d_a.block(i + ib, i + ib, tn, tn));

      // Host bookkeeping overlapped with the device GEMMs: put the pivot
      // values back in place of the panel's units.
      operands_shipped.wait();
      for (index_t j = 0; j < ib; ++j) {
        a(i + j, i + j) = d[i + j];
        a(i + j, i + j + 1) = e[i + j];
      }
      // No loop-bottom synchronize: operands_shipped already retired the
      // four uploads, and the next iteration's synchronous panel fetch
      // joins the trailing GEMMs (fth_analyze --perf flagged the old
      // barrier as coarse-synchronize).
    }

    i += ib;
    ++st.panels;
    if (hook) {
      s.synchronize();  // host_view below needs an idle stream
      hook(IterationHookContext{.boundary = st.panels,
                                .next_panel = i,
                                .nb = nb,
                                .host_a = a,
                                .dev_a = host_view(d_a.view(), s)});
    }
  }

  // Fetch the remaining trailing block and finish on the host.
  const obs::TimedSpan finish("hybrid", "finish", st.finish_seconds, "col",
                              static_cast<double>(i));
  copy_d2h(s, d_a.block(i, i, n - i, n - i),
           a.block(i, i, n - i, n - i));
  lapack::gebd2(a.block(i, i, n - i, n - i), d.sub(i, n - i), e.sub(i, n - i - 1),
                tauq.sub(i, n - i), taup.sub(i, n - i - 1));
}

}  // namespace fth::hybrid
