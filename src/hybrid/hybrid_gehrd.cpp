#include "hybrid/hybrid_gehrd.hpp"

#include "common/error.hpp"
#include "la/blas1.hpp"
#include "la/blas3.hpp"
#include "hybrid/dev_blas.hpp"
#include "obs/trace.hpp"
#include "lapack/gehrd.hpp"
#include "lapack/lahr2_impl.hpp"
#include "lapack/orghr.hpp"
#include "lapack/reflectors.hpp"

namespace fth::hybrid {

RunFrame::RunFrame(Device& dev, const char* cat, const char* name, index_t n,
                   HybridGehrdStats* stats)
    : st_(stats != nullptr ? *stats : local_),
      dev_(dev),
      h2d_bytes0_(dev.h2d_bytes()),
      d2h_bytes0_(dev.d2h_bytes()),
      h2d_count0_(dev.h2d_count()),
      d2h_count0_(dev.d2h_count()),
      span_(cat, name, st_.total_seconds, "n", static_cast<double>(n)) {
  st_ = {};  // the span books total_seconds when it closes, after this reset
  dev.stream().reset_peak_queue_depth();
}

RunFrame::~RunFrame() {
  st_.h2d_bytes = dev_.h2d_bytes() - h2d_bytes0_;
  st_.d2h_bytes = dev_.d2h_bytes() - d2h_bytes0_;
  st_.h2d_count = dev_.h2d_count() - h2d_count0_;
  st_.d2h_count = dev_.d2h_count() - d2h_count0_;
  st_.dev_peak_bytes = dev_.peak_bytes();
  st_.peak_queue_depth = dev_.stream().peak_queue_depth();
}

void hybrid_gehrd(Device& dev, MatrixView<double> a, VectorView<double> tau,
                  const HybridGehrdOptions& opt, HybridGehrdStats* stats,
                  const IterationHook& hook) {
  const index_t n = a.rows();
  FTH_CHECK(a.cols() == n, "hybrid_gehrd: matrix must be square");
  FTH_CHECK(tau.size() >= std::max<index_t>(n - 1, 0), "hybrid_gehrd: tau too short");
  FTH_CHECK(opt.nb >= 1, "hybrid_gehrd: block size must be positive");

  RunFrame frame(dev, "hybrid", "gehrd", n, stats);
  HybridGehrdStats& st = frame.st();
  const index_t nb = opt.nb;
  const index_t nx = std::max(opt.nx, nb);
  if (n <= nx + 1) {  // no blocked iteration: the host reduction alone
    const obs::TimedSpan finish("hybrid", "finish", st.finish_seconds, "col", 0.0);
    lapack::gehd2(a, tau, 0);
    return;
  }
  Stream& s = dev.stream();

  // Device mirror of the matrix (Algorithm 2, line 1).
  DeviceMatrix<double> d_a(dev, n, n, "gehrd.d_a");
  copy_h2d(s, MatrixView<const double>(a), d_a.view());

  // Host-side workspaces.
  Matrix<double> t_host(nb, nb);
  Matrix<double> y_host(n, nb);
  Matrix<double> v_host(n, nb);  // V staging: outlives every upload that reads it
  // Device workspaces.
  DeviceMatrix<double> d_v(dev, n, nb, "gehrd.d_v");
  DeviceMatrix<double> d_t(dev, nb, nb, "gehrd.d_t");
  DeviceMatrix<double> d_y(dev, n, nb, "gehrd.d_y");
  DeviceMatrix<double> d_work(dev, n, nb, "gehrd.d_work");

  index_t i = 0;
  while (n - i > nx + 1) {
    const index_t ib = std::min(nb, n - i - 1);
    const index_t vrows = n - i - 1;

    {
      const obs::TimedSpan panel("hybrid", "panel", st.panel_seconds, "col",
                                 static_cast<double>(i));
      // Line 3: bring the panel columns to the host (full height: the rows
      // above the reflectors already carry all updates from earlier
      // iterations on the device side). The fetch waits for the previous
      // iteration's updates.
      copy_d2h(s, d_a.block(0, i, n, ib), a.block(0, i, n, ib));

      // Line 4: host panel factorization; the big Y products run on the
      // device against the start-of-iteration trailing matrix.
      lapack::detail::lahr2_panel(
          a, i, ib, t_host.view(), y_host.view(), tau.sub(i, ib),
          [&](index_t j, VectorView<const double> vj, VectorView<double> y_col) {
            const index_t cj = i + j;
            // Ship the reflector vector, launch the device GEMV and start
            // fetching the raw product back; the waiter joins the fetch
            // (the host applies the corrections after it).
            auto d_vcol = d_v.block(j, j, vj.size(), 1);
            copy_h2d_async(s, MatrixView<const double>(vj.data(), vj.size(), 1, vj.size()),
                           d_vcol);
            gemv_async(s, Trans::No, 1.0,
                       d_a.block(i + 1, cj + 1, vrows, n - cj - 1),
                       d_vcol.col(0), 0.0,
                       d_y.block(i + 1, j, vrows, 1).col(0));
            copy_d2h_async(s, d_y.block(i + 1, j, vrows, 1),
                           MatrixView<double>(y_col.data(), vrows, 1, vrows));
            return [&s] { s.synchronize(); };
          });
    }

    {
      const obs::TimedSpan update("hybrid", "update", st.update_seconds, "col",
                                  static_cast<double>(i));
      // Ship the clean V (explicit unit diagonal), T, and the corrected
      // lower part of Y to the device.
      lapack::materialize_v_into(MatrixView<const double>(a), i, ib,
                                 v_host.block(0, 0, vrows, ib));
      copy_h2d_async(s, MatrixView<const double>(v_host.block(0, 0, vrows, ib)),
                     d_v.block(0, 0, vrows, ib));
      copy_h2d_async(s, t_host.block(0, 0, ib, ib), d_t.block(0, 0, ib, ib));
      copy_h2d_async(s, y_host.block(0, 0, n, ib), d_y.block(0, 0, n, ib));

      // Top rows of Y on the device: Y(0:i+1,:) = A(0:i+1, i+1:n)·V·T.
      gemm_async(s, Trans::No, Trans::No, 1.0,
                 d_a.block(0, i + 1, i + 1, vrows),
                 d_v.block(0, 0, vrows, ib), 0.0,
                 d_y.block(0, 0, i + 1, ib));
      trmm_async(s, Side::Right, Uplo::Upper, Trans::No, Diag::NonUnit, 1.0,
                 d_t.block(0, 0, ib, ib), d_y.block(0, 0, i + 1, ib));
      // The host needs those rows for the panel-column fix below; fetch
      // them asynchronously and overlap with the big right update.
      copy_d2h_async(s, d_y.block(0, 0, i + 1, ib),
                     y_host.block(0, 0, i + 1, ib));
      const Event y_upper_ready = s.record();

      // Line 7/8 right update (device): A(0:n, i+ib:n) −= Y·V2ᵀ where V2 is
      // the part of V whose rows correspond to columns i+ib..n−1.
      gemm_async(s, Trans::No, Trans::Yes, -1.0,
                 d_y.block(0, 0, n, ib),
                 d_v.block(ib - 1, 0, n - i - ib, ib),
                 1.0, d_a.block(0, i + ib, n, n - i - ib));

      // Left update (device): A(i+1:n, i+ib:n) := Hᵀ·A(i+1:n, i+ib:n).
      // Enqueued before the host panel fix below — it reads only
      // device-resident operands, so the host work overlaps BOTH big
      // updates instead of just the right one.
      larfb_left_async(s, Trans::Yes, d_v.block(0, 0, vrows, ib),
                       d_t.block(0, 0, ib, ib),
                       d_a.block(i + 1, i + ib, vrows, n - i - ib), d_work.view());

      // Host (overlapped with the device GEMM + larfb): finish the upper
      // rows of the panel columns, A(0:i+1, i+1:i+ib) −= Y·V1ᵀ. The wait
      // also retires the V/T/Y uploads, so the next iteration may
      // restage v_host with no transfer still reading it.
      y_upper_ready.wait();
      blas::trmm(Side::Right, Uplo::Lower, Trans::Yes, Diag::Unit, 1.0,
                 MatrixView<const double>(a.block(i + 1, i, ib - 1, ib - 1)),
                 y_host.block(0, 0, i + 1, ib - 1));
      for (index_t j = 0; j + 1 < ib; ++j) {
        blas::axpy(-1.0, VectorView<const double>(y_host.block(0, j, i + 1, 1).col(0)),
                   a.block(0, i + 1 + j, i + 1, 1).col(0));
      }

      i += ib;
      ++st.panels;
      // No loop-bottom synchronize: the next iteration's synchronous
      // panel fetch is the real barrier, so the trailing updates keep
      // running under the host's loop bookkeeping (fth_analyze --perf
      // flagged the old barrier as coarse-synchronize).
    }

    if (hook) {
      s.synchronize();  // host_view below needs an idle stream
      hook(IterationHookContext{.boundary = st.panels,
                                .next_panel = i,
                                .nb = nb,
                                .host_a = a,
                                .dev_a = host_view(d_a.view(), s)});
    }
  }

  // Fetch the remaining trailing columns and finish on the host.
  const obs::TimedSpan finish("hybrid", "finish", st.finish_seconds, "col",
                              static_cast<double>(i));
  copy_d2h(s, d_a.block(0, i, n, n - i), a.block(0, i, n, n - i));
  lapack::gehd2(a, tau, i);
}

}  // namespace fth::hybrid
