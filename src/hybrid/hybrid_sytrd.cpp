#include "hybrid/hybrid_sytrd.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "hybrid/dev_blas.hpp"
#include "obs/trace.hpp"
#include "lapack/orghr.hpp"
#include "lapack/sytrd.hpp"
#include "lapack/sytrd_impl.hpp"

namespace fth::hybrid {

void hybrid_sytrd(Device& dev, MatrixView<double> a, VectorView<double> d,
                  VectorView<double> e, VectorView<double> tau,
                  const HybridSytrdOptions& opt, HybridGehrdStats* stats) {
  const index_t n = a.rows();
  FTH_CHECK(a.cols() == n, "hybrid_sytrd: matrix must be square");
  FTH_CHECK(d.size() >= n, "hybrid_sytrd: d too short");
  FTH_CHECK(e.size() >= std::max<index_t>(n - 1, 0) &&
                tau.size() >= std::max<index_t>(n - 1, 0),
            "hybrid_sytrd: e/tau too short");
  FTH_CHECK(opt.nb >= 1, "hybrid_sytrd: block size must be positive");

  RunFrame frame(dev, "hybrid", "sytrd", n, stats);
  HybridGehrdStats& st = frame.st();
  const index_t nb = opt.nb;
  const index_t nx = std::max(opt.nx, nb);
  if (n <= nx + 1) {  // no blocked iteration: the host reduction alone
    const obs::TimedSpan finish("hybrid", "finish", st.finish_seconds, "col", 0.0);
    lapack::sytd2(a, d, e, tau);
    return;
  }
  Stream& s = dev.stream();

  DeviceMatrix<double> d_a(dev, n, n, "sytrd.d_a");
  copy_h2d(s, MatrixView<const double>(a), d_a.view());

  Matrix<double> w_host(n, nb);
  // V staging buffer, loop-hoisted: the async upload that reads it is
  // only retired by the NEXT iteration's synchronous panel fetch, so a
  // per-iteration local would be freed with the transfer still live.
  Matrix<double> v_host(n, nb);
  DeviceMatrix<double> d_v(dev, n, nb, "sytrd.d_v");
  DeviceMatrix<double> d_w(dev, n, nb, "sytrd.d_w");

  index_t i = 0;
  while (n - i > nx + 1) {
    const index_t ib = std::min(nb, n - i - 1);

    {
      const obs::TimedSpan panel("hybrid", "panel", st.panel_seconds, "col",
                                 static_cast<double>(i));
      // Panel columns to the host (full height; only rows ≥ i are live in
      // lower storage but the copy is simpler and the extra rows harmless).
      copy_d2h(s, d_a.block(0, i, n, ib), a.block(0, i, n, ib));

      // Host panel; each column's big SYMV runs on the device against the
      // start-of-iteration trailing matrix.
      lapack::detail::latrd_panel(
          a, i, ib, e.sub(i, ib), tau.sub(i, ib), w_host.view(),
          [&](index_t j, VectorView<const double> vj, VectorView<double> w_col) {
            const index_t cj = i + j;
            const index_t vlen = n - cj - 1;
            auto d_vcol = d_v.block(j, j, vlen, 1);
            copy_h2d_async(s, MatrixView<const double>(vj.data(), vlen, 1, vlen), d_vcol);
            symv_async(s, Uplo::Lower, 1.0,
                       d_a.block(cj + 1, cj + 1, vlen, vlen),
                       d_vcol.col(0), 0.0,
                       d_w.block(cj + 1 - i, j, vlen, 1).col(0));
            copy_d2h_async(s, d_w.block(cj + 1 - i, j, vlen, 1),
                           MatrixView<double>(w_col.data(), vlen, 1, vlen));
            return [&s] { s.synchronize(); };  // joins the fetch
          });
    }

    {
      const obs::TimedSpan update("hybrid", "update", st.update_seconds, "col",
                                  static_cast<double>(i));
      // Ship clean V (explicit unit diagonal) and the finished W columns.
      const index_t vrows = n - i - 1;
      lapack::materialize_v_into(MatrixView<const double>(a), i, ib,
                                 v_host.block(0, 0, vrows, ib));
      copy_h2d_async(s, MatrixView<const double>(v_host.block(0, 0, vrows, ib)),
                     d_v.block(0, 0, vrows, ib));
      copy_h2d_async(s, MatrixView<const double>(w_host.block(i + 1, 0, vrows, ib)),
                     d_w.block(0, 0, vrows, ib));

      // Trailing rank-2k on the device (lower triangle).
      const index_t tn = n - i - ib;
      syr2k_async(s, Uplo::Lower, Trans::No, -1.0,
                  d_v.block(ib - 1, 0, tn, ib),
                  d_w.block(ib - 1, 0, tn, ib), 1.0,
                  d_a.block(i + ib, i + ib, tn, tn));

      // Host-side bookkeeping overlapped with the device update.
      for (index_t j = 0; j < ib; ++j) {
        a(i + j + 1, i + j) = e[i + j];  // replace the panel's unit entries
        d[i + j] = a(i + j, i + j);
      }
      // No loop-bottom synchronize: the next iteration's synchronous panel
      // fetch retires the V/W uploads and joins the rank-2k update
      // (fth_analyze --perf flagged the old barrier as coarse-synchronize).
    }

    i += ib;
    ++st.panels;
  }

  // Fetch the remaining trailing block and finish on the host.
  const obs::TimedSpan finish("hybrid", "finish", st.finish_seconds, "col",
                              static_cast<double>(i));
  copy_d2h(s, d_a.block(i, i, n - i, n - i),
           a.block(i, i, n - i, n - i));
  lapack::sytd2(a.block(i, i, n - i, n - i), d.sub(i, n - i), e.sub(i, n - i - 1),
                tau.sub(i, n - i - 1));
}

}  // namespace fth::hybrid
