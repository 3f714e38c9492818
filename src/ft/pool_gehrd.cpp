// Multi-device sharded Hessenberg reduction with coded device-loss
// recovery (DESIGN.md §13).
//
// Structure per iteration (same math as hybrid_gehrd, Algorithm 2):
//
//   panel      — the ib panel columns are fetched from their owning shards,
//                factorized on the host by the shared lahr2 loop; the big
//                GEMV runs as one partial product per data member, summed
//                on the host.
//   Y top      — one partial GEMM per data member, reduced into y_host by
//                a collector task on the collector device. The producers'
//                Events are bridged to the collector stream with
//                wait_event — the cross-device edge fth_analyze's
//                cross-stream-race rule (and its seeded test) pins.
//   update     — V/T/Yce are broadcast from the host; every member applies
//                the right and left block updates to the same local column
//                domain in lockstep (zero generator rows make the right
//                update a no-op on finished columns), which keeps the
//                parity member the exact elementwise sum of the data
//                shards and every shard's column-sum code row consistent.
//   verify     — each member re-checks its own code row on-device; the
//                host waits with a timeout. Timeout = silent stall or hard
//                death, code-row gap = poisoned output.
//
// A loss during the panel/Y-top phase restarts the iteration from a host
// panel checkpoint; a loss caught at the update boundary needs no retry —
// the update phase has no cross-device reads, so survivors are already
// consistent and the lost shard is reconstructed post-update as
// parity − Σ survivors and remapped onto the parity device. A second loss
// in the group escalates through abort_recovery (AbortReason::DeviceLost).
#include "ft/pool_gehrd.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "fault/fault_plane.hpp"
#include "ft/checksum.hpp"
#include "ft/ft_gehrd.hpp"
#include "ft/shard_code.hpp"
#include "hybrid/dev_blas.hpp"
#include "la/blas1.hpp"
#include "la/blas3.hpp"
#include "la/norms.hpp"
#include "lapack/gehrd.hpp"
#include "lapack/lahr2_impl.hpp"
#include "lapack/orghr.hpp"
#include "lapack/reflectors.hpp"
#include "obs/incident.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace fth::ft {
namespace {

/// Internal control-flow signal: `device` was declared lost. Caught by the
/// driver loop, never escapes pool_gehrd. `cause` feeds the journal /
/// incident capsule ("timeout", "poison", "nonfinite").
struct device_lost {
  int device = 0;
  const char* cause = "timeout";
};

class PoolDriver {
 public:
  PoolDriver(hybrid::DevicePool& pool, MatrixView<double> a, VectorView<double> tau,
             const PoolGehrdOptions& opt, PoolGehrdReport& rep)
      : pool_(pool),
        a_(a),
        tau_(tau),
        rep_(rep),
        plane_(opt.plane),
        n_(a.rows()),
        nb_(opt.nb),
        D_(pool.size()),
        Ddata_(std::max(1, pool.size() - 1)),
        lay_(make_shard_layout(a.rows(), std::max(1, pool.size() - 1))),
        group_(std::max(1, pool.size() - 1)) {
    FTH_CHECK(a_.cols() == n_, "pool_gehrd: matrix must be square");
    FTH_CHECK(tau_.size() >= std::max<index_t>(n_ - 1, 0), "pool_gehrd: tau too short");
    FTH_CHECK(nb_ >= 1, "pool_gehrd: block size must be positive");
    FTH_CHECK(D_ >= 1, "pool_gehrd: empty pool");

    const double fro = finite_input_norms(MatrixView<const double>(a_), "pool_gehrd").fro;
    threshold_ = opt.threshold > 0.0 ? opt.threshold : default_threshold(fro, n_);
    rep_.devices = D_;
    rep_.data_shards = Ddata_;
    parity_dev_ = D_ >= 2 ? D_ - 1 : -1;
    slot_dev_.resize(static_cast<std::size_t>(Ddata_));
    for (int s = 0; s < Ddata_; ++s) slot_dev_[static_cast<std::size_t>(s)] = s;
    gaps_.assign(static_cast<std::size_t>(D_), std::numeric_limits<double>::quiet_NaN());

    // Health plane: every host wait on a member goes through the monitor,
    // which derives the adaptive allowance and the Degraded/Lost states
    // (obs/health.hpp). The ceiling honours FTH_POOL_TIMEOUT_MS.
    if (opt.health != nullptr) {
      health_ = opt.health;
    } else {
      obs::HealthConfig hc;
      hc.base_timeout_ms = obs::HealthMonitor::env_base_timeout_ms(opt.timeout_ms);
      health_owned_ = std::make_unique<obs::HealthMonitor>(D_, hc);
      health_ = health_owned_.get();
    }

    if (ft_blocked_panel(n_, 0, nb_)) allocate_workspaces();
  }

  ~PoolDriver() {
    // Release the plane's hooks (and any still-blocked SilentStall worker)
    // before the device buffers it scribbles on go away.
    if (plane_ != nullptr) plane_->unbind();
  }

  void run() {
    obs::TraceSpan run_span("ft", "pool_gehrd", "n", static_cast<double>(n_));
    rep_.run_id = obs::journal_new_run();
    obs::journal_log(obs::JournalSeverity::Info, "pool", "started", -1,
                     static_cast<double>(n_));
    if (obs::incident_enabled()) counters_base_ = obs::Registry::global().counter_values();
    if (!ft_blocked_panel(n_, 0, nb_)) {
      lapack::gehd2(a_, tau_);
      finish_outcome();
      return;
    }

    upload_and_encode();

    index_t i = 0;
    while (ft_blocked_panel(n_, i, nb_)) {
      const index_t ib = std::min(nb_, n_ - i - 1);
      checkpoint_panel(i, ib);
      for (;;) {
        try {
          panel_and_ytop(i, ib);
          break;
        } catch (const device_lost& dl) {
          // Panel-phase loss: quarantine + repair, then restart this panel
          // from the checkpoint. The shards were only read, so the
          // reconstruction is the start-of-iteration state.
          ++rep_.panel_retries;
          handle_loss(dl, i);
          obs::journal_log(obs::JournalSeverity::Warn, "pool", "panel_retry", dl.device,
                           static_cast<double>(rep_.panel_retries), i);
          restore_panel(i, ib);
        }
      }
      try {
        update(i, ib);
      } catch (const device_lost& dl) {
        // Boundary loss: survivors already carry this iteration's updates
        // (the update phase has no cross-device reads, so a struck member
        // cannot contaminate the others). Reconstruct and continue —
        // no rollback, no retry.
        handle_loss(dl, i);
      }
      i += ib;
    }

    for (;;) {
      try {
        final_gather(i);
        break;
      } catch (const device_lost& dl) {
        handle_loss(dl, i);
      }
    }
    host_finish(i);
    finish_outcome();
  }

 private:
  // --- setup -----------------------------------------------------------

  void allocate_workspaces() {
    const index_t w = lay_.w_max;
    d_e_.reserve(static_cast<std::size_t>(D_));
    d_vg_.reserve(static_cast<std::size_t>(D_));
    d_py_.reserve(static_cast<std::size_t>(D_));
    d_ve_.reserve(static_cast<std::size_t>(D_));
    d_t_.reserve(static_cast<std::size_t>(D_));
    d_yce_.reserve(static_cast<std::size_t>(D_));
    d_g_.reserve(static_cast<std::size_t>(D_));
    d_w_.reserve(static_cast<std::size_t>(D_));
    for (int d = 0; d < D_; ++d) {
      // Every member gets the full workspace set so a shard can be
      // remapped onto the parity device without reallocation.
      hybrid::Device& dv = pool_.device(d);
      d_e_.emplace_back(dv, n_ + 1, w, "pool.d_e");
      d_vg_.emplace_back(dv, w, 1, "pool.d_vg");
      d_py_.emplace_back(dv, n_, 1, "pool.d_py");
      d_ve_.emplace_back(dv, n_, nb_, "pool.d_ve");
      d_t_.emplace_back(dv, nb_, nb_, "pool.d_t");
      d_yce_.emplace_back(dv, n_ + 1, nb_, "pool.d_yce");
      d_g_.emplace_back(dv, w, nb_, "pool.d_g");
      d_w_.emplace_back(dv, nb_, w, "pool.d_w");
    }
    host_sh_.resize(static_cast<std::size_t>(Ddata_));
    for (int s = 0; s < Ddata_; ++s)
      host_sh_[static_cast<std::size_t>(s)] = Matrix<double>(n_ + 1, w);
    parity_host_ = Matrix<double>(n_ + 1, w);
    t_host_ = Matrix<double>(nb_, nb_);
    y_host_ = Matrix<double>(n_, nb_);
    yce_host_ = Matrix<double>(n_ + 1, nb_);
    ve_host_ = Matrix<double>(n_, nb_);
    stage_y_ = Matrix<double>(n_, Ddata_);
    stage_g_ = Matrix<double>(n_, static_cast<index_t>(Ddata_) * nb_);
    ckpt_ = Matrix<double>(n_, nb_);
    g_host_.resize(static_cast<std::size_t>(D_));
    for (int d = 0; d < D_; ++d) g_host_[static_cast<std::size_t>(d)] = Matrix<double>(w, nb_);
    vg_host_.resize(static_cast<std::size_t>(Ddata_));
    for (int s = 0; s < Ddata_; ++s)
      vg_host_[static_cast<std::size_t>(s)] = Matrix<double>(w, 1);
  }

  void upload_and_encode() {
    obs::TraceSpan span("ft", "pool.encode", "D", static_cast<double>(D_));
    if (plane_ != nullptr) plane_->bind_pool(pool_);
    scatter_shards(MatrixView<const double>(a_), lay_, host_sh_);
    for (int sl = 0; sl < Ddata_; ++sl) {
      const int dev = slot_dev_[static_cast<std::size_t>(sl)];
      hybrid::Stream& sd = pool_.stream(dev);
      hybrid::copy_h2d_async(sd, host_sh_[static_cast<std::size_t>(sl)].cview(),
                             d_e_[static_cast<std::size_t>(dev)].view());
    }
    if (parity_dev_ >= 0) {
      encode_parity(lay_, host_sh_, parity_host_);
      hybrid::Stream& sd = pool_.stream(parity_dev_);
      hybrid::copy_h2d_async(sd, parity_host_.cview(),
                             d_e_[static_cast<std::size_t>(parity_dev_)].view());
    }
    for (int d = 0; d < D_; ++d) {
      hybrid::Stream& sd = pool_.stream(d);
      sd.synchronize();
    }
    if (plane_ != nullptr) {
      for (int d = 0; d < D_; ++d)
        plane_->register_loss_surface(d, d_e_[static_cast<std::size_t>(d)].view());
      plane_->mark_encoded();
    }
  }

  // --- iteration phases ------------------------------------------------

  void checkpoint_panel(index_t i, index_t ib) {
    copy(MatrixView<const double>(a_.block(0, i, n_, ib)), ckpt_.block(0, 0, n_, ib));
  }

  void restore_panel(index_t i, index_t ib) {
    copy(MatrixView<const double>(ckpt_.block(0, 0, n_, ib)), a_.block(0, i, n_, ib));
  }

  void panel_and_ytop(index_t i, index_t ib) {
    obs::TraceSpan span("ft", "pool.panel", "col", static_cast<double>(i));
    const index_t vrows = n_ - i - 1;

    // Bring the panel columns to the host, full height, from their owners.
    for (index_t c = i; c < i + ib; ++c) {
      const int sl = lay_.slot_of(c);
      const index_t l = lay_.local_of(c);
      const int dev = slot_dev_[static_cast<std::size_t>(sl)];
      hybrid::Stream& sd = pool_.stream(dev);
      hybrid::copy_d2h_async(sd, d_e_[static_cast<std::size_t>(dev)].block(0, l, n_, 1),
                             a_.block(0, c, n_, 1));
    }
    for (int sl = 0; sl < Ddata_; ++sl) {
      const int dev = slot_dev_[static_cast<std::size_t>(sl)];
      if (!member_done(dev)) throw device_lost{dev};
    }

    // Host panel factorization; the big GEMV is one partial product per
    // data member against its own shard, summed on the host. The member
    // waits (bounded, health-checked) and the sum stay inside the launch,
    // so the waiter it returns is already ready.
    lapack::detail::lahr2_panel(
        a_, i, ib, t_host_.view(), y_host_.view(), tau_.sub(i, ib),
        [&](index_t j, VectorView<const double> vj, VectorView<double> y_col) {
          const index_t cj = i + j;
          build_gathered_vectors(cj, vj);
          for (int sl = 0; sl < Ddata_; ++sl) {
            const index_t l0 = first_local(sl, cj + 1);
            const index_t wcols = lay_.w_max - l0;
            if (wcols <= 0) continue;
            const int dev = slot_dev_[static_cast<std::size_t>(sl)];
            hybrid::Stream& sd = pool_.stream(dev);
            hybrid::copy_h2d_async(sd, vg_host_[static_cast<std::size_t>(sl)].block(0, 0, wcols, 1),
                                   d_vg_[static_cast<std::size_t>(dev)].block(0, 0, wcols, 1));
            hybrid::gemv_async(sd, Trans::No, 1.0,
                               d_e_[static_cast<std::size_t>(dev)].block(i + 1, l0, vrows, wcols),
                               d_vg_[static_cast<std::size_t>(dev)].block(0, 0, wcols, 1).col(0),
                               0.0,
                               d_py_[static_cast<std::size_t>(dev)].block(0, 0, vrows, 1).col(0));
            hybrid::copy_d2h_async(sd, d_py_[static_cast<std::size_t>(dev)].block(0, 0, vrows, 1),
                                   stage_y_.block(0, sl, vrows, 1));
          }
          for (int sl = 0; sl < Ddata_; ++sl) {
            const int dev = slot_dev_[static_cast<std::size_t>(sl)];
            if (!member_done(dev)) throw device_lost{dev};
          }
          // A non-finite partial names its culprit before it can spread.
          for (int sl = 0; sl < Ddata_; ++sl) {
            for (index_t r = 0; r < vrows; ++r) {
              if (!std::isfinite(stage_y_(r, sl)))
                throw device_lost{slot_dev_[static_cast<std::size_t>(sl)], "nonfinite"};
            }
          }
          for (index_t r = 0; r < vrows; ++r) {
            double acc = 0.0;
            for (int sl = 0; sl < Ddata_; ++sl) acc += stage_y_(r, sl);
            y_col[r] = acc;
          }
          return [] {};
        });

    // Y top rows, Y(0:i+1,:) = A(0:i+1, i+1:n)·V·T: one partial GEMM per
    // data member, reduced by a collector task on the collector device.
    Matrix<double> v = lapack::materialize_v(MatrixView<const double>(a_), i, ib);
    build_ytop_generators(v, i, ib);
    const int cdev = collector_device();
    hybrid::Stream& sc = pool_.stream(cdev);
    for (int sl = 0; sl < Ddata_; ++sl) {
      const index_t l1 = first_local(sl, i + 1);
      const index_t wcols = lay_.w_max - l1;
      if (wcols <= 0) continue;
      const int dev = slot_dev_[static_cast<std::size_t>(sl)];
      hybrid::Stream& sd = pool_.stream(dev);
      hybrid::copy_h2d_async(sd, g_host_[static_cast<std::size_t>(dev)].block(0, 0, wcols, ib),
                             d_g_[static_cast<std::size_t>(dev)].block(0, 0, wcols, ib));
      hybrid::gemm_async(sd, Trans::No, Trans::No, 1.0,
                         d_e_[static_cast<std::size_t>(dev)].block(0, l1, i + 1, wcols),
                         d_g_[static_cast<std::size_t>(dev)].block(0, 0, wcols, ib), 0.0,
                         d_yce_[static_cast<std::size_t>(dev)].block(0, 0, i + 1, ib));
      hybrid::copy_d2h_async(sd, d_yce_[static_cast<std::size_t>(dev)].block(0, 0, i + 1, ib),
                             stage_g_.block(0, static_cast<index_t>(sl) * nb_, i + 1, ib));
      // The cross-device edge: the collector's reduce task must not start
      // before this member's partial landed in stage_g_.
      const hybrid::Event shard_done = sd.record();
      sc.wait_event(shard_done);
    }
    sc.enqueue("pool.ytop_reduce",
               FTH_TASK_EFFECTS(FTH_READS(stage_g_.block(0, 0, i + 1, stage_g_.cols()))
                                    FTH_WRITES(y_host_.block(0, 0, i + 1, ib))),
               [sg = stage_g_.cview(), yt = y_host_.view(), i, ib, dd = Ddata_, w = nb_] {
                 for (index_t q = 0; q < ib; ++q) {
                   for (index_t r = 0; r <= i; ++r) {
                     double acc = 0.0;
                     for (int sl = 0; sl < dd; ++sl)
                       acc += sg(r, static_cast<index_t>(sl) * w + q);
                     yt(r, q) = acc;
                   }
                 }
               });
    const hybrid::Event reduced = sc.record();
    for (int sl = 0; sl < Ddata_; ++sl) {
      const int dev = slot_dev_[static_cast<std::size_t>(sl)];
      if (!member_done(dev)) throw device_lost{dev};
    }
    // Not member_done(): the collector's Event was recorded before the loop.
    const double wc0 = health_->wait_begin();
    const bool cok = reduced.wait_for(health_->allowed(cdev));
    if (!health_->wait_end(cdev, wc0, cok) || pool_.lost(cdev)) throw device_lost{cdev};
    blas::trmm(Side::Right, Uplo::Upper, Trans::No, Diag::NonUnit, 1.0,
               MatrixView<const double>(t_host_.block(0, 0, ib, ib)),
               y_host_.block(0, 0, i + 1, ib));

    // Panel-phase integrity gate: a poison strike during the panel fed
    // garbage into y_col/Y-top — catch it before any update commits, so
    // the checkpoint retry still applies.
    verify_members();
  }

  void update(index_t i, index_t ib) {
    obs::TraceSpan span("ft", "pool.update", "col", static_cast<double>(i));
    const index_t vrows = n_ - i - 1;
    const index_t dstart = lay_.domain_start(i + ib);
    const index_t wdom = lay_.w_max - dstart;

    Matrix<double> v = lapack::materialize_v(MatrixView<const double>(a_), i, ib);
    build_ve(v, vrows, ib);
    build_yce(ib);
    build_update_generators(v, i, ib, dstart);

    // Broadcast V/T/Yce and run both block updates on every member over
    // the same local domain, in lockstep. No member reads another member's
    // memory here — that containment is what makes boundary recovery
    // retry-free.
    for (int m = 0; m < active_count(); ++m) {
      const int dev = active_device(m);
      hybrid::Stream& sd = pool_.stream(dev);
      hybrid::copy_h2d_async(sd, yce_host_.block(0, 0, n_ + 1, ib),
                             d_yce_[static_cast<std::size_t>(dev)].block(0, 0, n_ + 1, ib));
      hybrid::copy_h2d_async(sd, ve_host_.block(0, 0, vrows + 1, ib),
                             d_ve_[static_cast<std::size_t>(dev)].block(0, 0, vrows + 1, ib));
      hybrid::copy_h2d_async(sd, t_host_.block(0, 0, ib, ib),
                             d_t_[static_cast<std::size_t>(dev)].block(0, 0, ib, ib));
      hybrid::copy_h2d_async(sd, g_host_[static_cast<std::size_t>(dev)].block(0, 0, wdom, ib),
                             d_g_[static_cast<std::size_t>(dev)].block(0, 0, wdom, ib));
      // Right update: E −= Yce·Wgᵀ. Generator rows for finished/panel/
      // padding columns are zero, so only trailing columns change; the
      // code row rides along via Yce's column-sum row.
      hybrid::gemm_async(sd, Trans::No, Trans::Yes, -1.0,
                         d_yce_[static_cast<std::size_t>(dev)].block(0, 0, n_ + 1, ib),
                         d_g_[static_cast<std::size_t>(dev)].block(0, 0, wdom, ib), 1.0,
                         d_e_[static_cast<std::size_t>(dev)].block(0, dstart, n_ + 1, wdom));
      // Left update: E := (I − V·Tᵀ·Vᵀ)·E over the whole domain (finished
      // columns receive the same garbage-lockstep update on every member,
      // which keeps parity and code row exact; host `a` stays
      // authoritative for them).
      hybrid::gemm_async(sd, Trans::Yes, Trans::No, 1.0,
                         d_ve_[static_cast<std::size_t>(dev)].block(0, 0, vrows, ib),
                         d_e_[static_cast<std::size_t>(dev)].block(i + 1, dstart, vrows, wdom),
                         0.0, d_w_[static_cast<std::size_t>(dev)].block(0, 0, ib, wdom));
      hybrid::trmm_async(sd, Side::Left, Uplo::Upper, Trans::Yes, Diag::NonUnit, 1.0,
                         d_t_[static_cast<std::size_t>(dev)].block(0, 0, ib, ib),
                         d_w_[static_cast<std::size_t>(dev)].block(0, 0, ib, wdom));
      hybrid::gemm_async(sd, Trans::No, Trans::No, -1.0,
                         d_ve_[static_cast<std::size_t>(dev)].block(0, 0, vrows + 1, ib),
                         d_w_[static_cast<std::size_t>(dev)].block(0, 0, ib, wdom), 1.0,
                         d_e_[static_cast<std::size_t>(dev)].block(i + 1, dstart, vrows + 1, wdom));
    }

    // Host, overlapped with the device updates: finish the upper rows of
    // the panel columns, A(0:i+1, i+1:i+ib) −= Y·V1ᵀ (hybrid_gehrd's fix;
    // Yce already captured the pristine Y, so mutating y_host_ is fine).
    blas::trmm(Side::Right, Uplo::Lower, Trans::Yes, Diag::Unit, 1.0,
               MatrixView<const double>(a_.block(i + 1, i, ib - 1, ib - 1)),
               y_host_.block(0, 0, i + 1, ib - 1));
    for (index_t j = 0; j + 1 < ib; ++j) {
      blas::axpy(-1.0, VectorView<const double>(y_host_.block(0, j, i + 1, 1).col(0)),
                 a_.block(0, i + 1 + j, i + 1, 1).col(0));
    }

    verify_members();
  }

  /// Boundary health check: every active member recomputes its code-row
  /// gap on-device; the host collects with timeouts. Detects all three
  /// loss kinds: timeout (stall), killed stream or NaN sentinel (hard
  /// death — the marker completes but the verify task was discarded), and
  /// gap over threshold (poison).
  void verify_members() {
    for (int m = 0; m < active_count(); ++m) {
      const int dev = active_device(m);
      gaps_[static_cast<std::size_t>(dev)] = std::numeric_limits<double>::quiet_NaN();
      double* gp = &gaps_[static_cast<std::size_t>(dev)];
      hybrid::Stream& sd = pool_.stream(dev);
      // Occupancy sample for the health plane: was the member still
      // working when the boundary check arrived?
      health_->sample_occupancy(dev, !sd.idle());
      sd.enqueue("pool.verify",
                 FTH_TASK_EFFECTS(FTH_READS(d_e_[static_cast<std::size_t>(dev)].view())),
                 [de = DMatrixView<const double>(d_e_[static_cast<std::size_t>(dev)].view()),
                  gp] { *gp = code_row_gap(de.in_task()); });
    }
    for (int m = 0; m < active_count(); ++m) {
      const int dev = active_device(m);
      if (!member_done(dev)) throw device_lost{dev};
    }
    for (int m = 0; m < active_count(); ++m) {
      const int dev = active_device(m);
      const double g = gaps_[static_cast<std::size_t>(dev)];
      if (!(g <= threshold_)) throw device_lost{dev, "poison"};
    }
  }

  void final_gather(index_t i) {
    obs::TraceSpan span("ft", "pool.gather", "col", static_cast<double>(i));
    for (int sl = 0; sl < Ddata_; ++sl) {
      const int dev = slot_dev_[static_cast<std::size_t>(sl)];
      hybrid::Stream& sd = pool_.stream(dev);
      hybrid::copy_d2h_async(sd, d_e_[static_cast<std::size_t>(dev)].view(),
                             host_sh_[static_cast<std::size_t>(sl)].view());
    }
    for (int sl = 0; sl < Ddata_; ++sl) {
      const int dev = slot_dev_[static_cast<std::size_t>(sl)];
      if (!member_done(dev)) throw device_lost{dev};
    }
    for (int sl = 0; sl < Ddata_; ++sl) {
      const double g = code_row_gap(host_sh_[static_cast<std::size_t>(sl)].cview());
      if (!(g <= threshold_))
        throw device_lost{slot_dev_[static_cast<std::size_t>(sl)], "poison"};
    }
    gather_shards(lay_, host_sh_, a_, i);
  }

  void host_finish(index_t i) {
    obs::TraceSpan span("ft", "pool.finish", "col", static_cast<double>(i));
    lapack::gehd2(a_, tau_, i);
  }

  // --- loss handling ---------------------------------------------------

  /// Quarantine the lost member, account the loss against the redundancy
  /// group, and either reconstruct + remap (first loss of a data shard),
  /// degrade (parity loss), or escalate (beyond the correction radius).
  void handle_loss(const device_lost& dl, index_t boundary) {
    const int dev = dl.device;
    ++rep_.losses;
    if (rep_.lost_device < 0) rep_.lost_device = dev;
    obs::counter_metric("fault.device_loss.detected").add();
    obs::counter_metric("fault.device_loss.detected.dev" + std::to_string(dev)).add();
    const double g = gaps_[static_cast<std::size_t>(dev)];
    obs::journal_log(obs::JournalSeverity::Error, "pool", "loss_detected", dev,
                     std::isfinite(g) ? g : 0.0, boundary, dl.cause);

    health_->mark_lost(dev);
    pool_.mark_lost(dev);
    const int straggler = drain_all();
    if (straggler >= 0 && straggler != dev) {
      // A second member stalled while we quarantined the first; count it
      // so the radius check below escalates.
      const int xslot = straggler == parity_dev_ ? group_.parity_slot()
                                                 : slot_of_device(straggler);
      if (xslot >= 0) (void)group_.declare_lost(xslot);
    }

    const bool was_parity = dev == parity_dev_;
    const int slot = was_parity ? group_.parity_slot() : slot_of_device(dev);
    FTH_CHECK(slot >= 0, "pool_gehrd: loss on a device that holds no shard");
    const bool within_radius = group_.declare_lost(slot) && (was_parity || parity_dev_ >= 0);
    if (!within_radius) escalate(dev, boundary);

    rep_.degraded = true;
    if (was_parity) {
      // Parity died: nothing to reconstruct, but the group can no longer
      // correct — future losses escalate.
      parity_dev_ = -1;
      obs::counter_metric("fault.device_loss.parity_degraded").add();
      obs::journal_log(obs::JournalSeverity::Warn, "pool", "parity_degraded", dev, 0.0,
                       boundary);
      finish_repair(dev, boundary, "degraded");
      return;
    }

    // Reconstruct the lost data shard as parity − Σ survivors and remap it
    // onto the parity device (which stops being parity).
    fetch_group(slot, boundary);
    reconstruct_shard(lay_, host_sh_, parity_host_.cview(), slot,
                      host_sh_[static_cast<std::size_t>(slot)]);
    ++rep_.reconstructions;
    obs::counter_metric("fault.device_loss.reconstructed").add();
    obs::journal_log(obs::JournalSeverity::Info, "pool", "reconstructed", dev,
                     static_cast<double>(slot), boundary);
    const int target = parity_dev_;
    hybrid::Stream& sd = pool_.stream(target);
    hybrid::copy_h2d_async(sd, host_sh_[static_cast<std::size_t>(slot)].cview(),
                           d_e_[static_cast<std::size_t>(target)].view());
    if (!member_done(target)) escalate(target, boundary);
    slot_dev_[static_cast<std::size_t>(slot)] = target;
    parity_dev_ = -1;
    ++rep_.remaps;
    obs::counter_metric("fault.device_loss.remapped").add();
    obs::journal_log(obs::JournalSeverity::Info, "pool", "remapped", dev,
                     static_cast<double>(target), boundary);
    finish_repair(dev, boundary, "recovered");
  }

  /// Close out an absorbed loss: stamp the repair-done journal record (the
  /// recovery-cost endpoint fth_incident measures to) and emit the
  /// device-loss incident capsule.
  void finish_repair(int dev, index_t boundary, const char* status) {
    obs::journal_log(obs::JournalSeverity::Info, "pool", "repair_done", dev,
                     static_cast<double>(rep_.losses), boundary);
    emit_incident("device_loss", dev, boundary, status, "device_lost",
                  "loss absorbed by coded reconstruction");
  }

  /// Assemble and write one incident capsule (no-op unless capsule
  /// emission is armed). The journal slice is keyed by this run's id; the
  /// flight/DAG fragments are whatever recorders happen to be armed.
  void emit_incident(const char* trigger, int dev, index_t boundary, const char* status,
                     const char* reason, std::string detail) {
    if (!obs::incident_enabled()) return;
    obs::IncidentReport inc = obs::incident_for_run(rep_.run_id, counters_base_);
    inc.trigger = trigger;
    inc.who = "pool_gehrd";
    inc.device = dev;
    inc.boundary = boundary;
    inc.outcome.status = status;
    inc.outcome.reason = reason;
    inc.outcome.detail = std::move(detail);
    inc.outcome.attempts = rep_.losses;
    inc.health = health_->snapshot();
    if (plane_ != nullptr) inc.strikes_json = fault::strikes_json(*plane_);
    const std::string path = obs::write_incident(inc);
    if (!path.empty()) rep_.incidents.push_back(path);
  }

  /// Synchronize every stream, with a timeout per member so a second
  /// stalled device cannot hang the repair: stragglers are killed (which
  /// releases them — Stream::kill doom semantics) and reported back. The
  /// member quarantined first is already lost, so this wait cannot use
  /// member_done(): it must not count that member as a straggler.
  int drain_all() {
    int straggler = -1;
    for (int d = 0; d < D_; ++d) {
      hybrid::Stream& sd = pool_.stream(d);
      const hybrid::Event dr = sd.record();
      const double w0 = health_->wait_begin();
      const bool ok = dr.wait_for(health_->allowed(d));
      if (!health_->wait_end(d, w0, ok)) {
        health_->mark_lost(d);
        pool_.mark_lost(d);
        if (straggler < 0) straggler = d;
      }
      sd.synchronize();
    }
    return straggler;
  }

  /// Fetch the survivor shards and the parity to the host for a
  /// reconstruction. A timeout here is a second loss — escalate.
  void fetch_group(int lost_slot, index_t boundary) {
    for (int sl = 0; sl < Ddata_; ++sl) {
      if (sl == lost_slot) continue;
      const int dev = slot_dev_[static_cast<std::size_t>(sl)];
      hybrid::Stream& sd = pool_.stream(dev);
      hybrid::copy_d2h_async(sd, d_e_[static_cast<std::size_t>(dev)].view(),
                             host_sh_[static_cast<std::size_t>(sl)].view());
    }
    {
      hybrid::Stream& sd = pool_.stream(parity_dev_);
      hybrid::copy_d2h_async(sd, d_e_[static_cast<std::size_t>(parity_dev_)].view(),
                             parity_host_.view());
    }
    for (int sl = 0; sl < Ddata_; ++sl) {
      if (sl == lost_slot) continue;
      const int dev = slot_dev_[static_cast<std::size_t>(sl)];
      if (!member_done(dev)) escalate(dev, boundary);
    }
    if (!member_done(parity_dev_)) escalate(parity_dev_, boundary);
  }

  [[noreturn]] void escalate(int dev, index_t boundary) {
    obs::counter_metric("fault.device_loss.escalated").add();
    const double g = gaps_[static_cast<std::size_t>(dev)];
    obs::journal_log(obs::JournalSeverity::Error, "pool", "escalated", dev,
                     static_cast<double>(group_.losses()), boundary);
    emit_incident("escalation", dev, boundary, "escalated", "device_lost",
                  "losses exceeded the redundancy group's correction radius");
    abort_recovery(rep_.outcome, "pool_gehrd", AbortReason::DeviceLost, boundary, rep_.losses,
                   std::isfinite(g) ? g : 0.0, threshold_,
                   "device " + std::to_string(dev) + " lost with " +
                       std::to_string(group_.losses()) +
                       " loss(es) already charged to the redundancy group");
  }

  // --- host-side assembly helpers --------------------------------------

  /// First local column of `slot` whose global column is ≥ c (clamped to
  /// w_max when the slot owns nothing that far right).
  [[nodiscard]] index_t first_local(int slot, index_t c) const {
    const index_t s = static_cast<index_t>(slot);
    const index_t l = c > s ? (c - s + Ddata_ - 1) / Ddata_ : 0;
    return std::min<index_t>(l, lay_.w_max);
  }

  /// Per-slot gathered copies of the reflector vector for the panel GEMV:
  /// vg_s[l − l0] = vj[c − cj − 1] for the slot's columns c ≥ cj+1.
  void build_gathered_vectors(index_t cj, VectorView<const double> vj) {
    for (int sl = 0; sl < Ddata_; ++sl) {
      const index_t l0 = first_local(sl, cj + 1);
      MatrixView<double> vg = vg_host_[static_cast<std::size_t>(sl)].view();
      for (index_t l = l0; l < lay_.w_max; ++l) {
        const index_t c = lay_.global_of(sl, l);
        vg(l - l0, 0) = c < n_ ? vj[c - cj - 1] : 0.0;
      }
      if (l0 >= lay_.w_max) {
        // Slot owns nothing in range: its partial column must read as 0.
        for (index_t r = 0; r < n_; ++r) stage_y_(r, sl) = 0.0;
      }
    }
  }

  /// Per-slot Y-top generators: row (l − l1) = V(c − i − 1, :) for the
  /// slot's columns c ≥ i+1 (zero for padding).
  void build_ytop_generators(const Matrix<double>& v, index_t i, index_t ib) {
    for (int sl = 0; sl < Ddata_; ++sl) {
      const index_t l1 = first_local(sl, i + 1);
      const int dev = slot_dev_[static_cast<std::size_t>(sl)];
      MatrixView<double> g = g_host_[static_cast<std::size_t>(dev)].view();
      for (index_t l = l1; l < lay_.w_max; ++l) {
        const index_t c = lay_.global_of(sl, l);
        for (index_t q = 0; q < ib; ++q) g(l - l1, q) = c < n_ ? v(c - i - 1, q) : 0.0;
      }
      if (l1 >= lay_.w_max) {
        for (index_t q = 0; q < ib; ++q)
          for (index_t r = 0; r <= i; ++r)
            stage_g_(r, static_cast<index_t>(sl) * nb_ + q) = 0.0;
      }
    }
  }

  /// Ve = [V; colsum(V)], the left-update operator extended by the code
  /// row's share (same shape as ft_gehrd's Vce).
  void build_ve(const Matrix<double>& v, index_t vrows, index_t ib) {
    MatrixView<double> ve = ve_host_.view();
    copy(v.block(0, 0, vrows, ib), ve.block(0, 0, vrows, ib));
    sum_lines(ve.block(0, 0, vrows, ib), LineShape::full(), {}, ve.row(vrows).sub(0, ib));
  }

  /// Yce = [Y; colsum(Y)], the right-update operand extended by the code
  /// row's share. Reads the pristine (post-trmm, pre-fix) y_host_.
  void build_yce(index_t ib) {
    MatrixView<double> yce = yce_host_.view();
    copy(MatrixView<const double>(y_host_.block(0, 0, n_, ib)), yce.block(0, 0, n_, ib));
    sum_lines(yce.block(0, 0, n_, ib), LineShape::full(), {}, yce.row(n_).sub(0, ib));
  }

  /// Right-update generators over the lockstep domain [dstart, w_max):
  /// row (l − dstart) = V(c − i − 1, :) when c is a trailing column
  /// (i+ib ≤ c < n), zero otherwise; the parity member uses the sum of the
  /// data generators, which is exactly what keeps parity = Σ shards.
  void build_update_generators(const Matrix<double>& v, index_t i, index_t ib,
                               index_t dstart) {
    for (int sl = 0; sl < Ddata_; ++sl) {
      const int dev = slot_dev_[static_cast<std::size_t>(sl)];
      MatrixView<double> g = g_host_[static_cast<std::size_t>(dev)].view();
      for (index_t l = dstart; l < lay_.w_max; ++l) {
        const index_t c = lay_.global_of(sl, l);
        const bool live = c >= i + ib && c < n_;
        for (index_t q = 0; q < ib; ++q) g(l - dstart, q) = live ? v(c - i - 1, q) : 0.0;
      }
    }
    if (parity_dev_ >= 0) {
      MatrixView<double> gp = g_host_[static_cast<std::size_t>(parity_dev_)].view();
      for (index_t l = dstart; l < lay_.w_max; ++l) {
        for (index_t q = 0; q < ib; ++q) {
          double acc = 0.0;
          for (int sl = 0; sl < Ddata_; ++sl) {
            const int dev = slot_dev_[static_cast<std::size_t>(sl)];
            acc += g_host_[static_cast<std::size_t>(dev)](l - dstart, q);
          }
          gp(l - dstart, q) = acc;
        }
      }
    }
  }

  // --- membership ------------------------------------------------------

  [[nodiscard]] int collector_device() const {
    return parity_dev_ >= 0 ? parity_dev_ : slot_dev_[0];
  }

  [[nodiscard]] int active_count() const { return Ddata_ + (parity_dev_ >= 0 ? 1 : 0); }

  [[nodiscard]] int active_device(int member) const {
    return member < Ddata_ ? slot_dev_[static_cast<std::size_t>(member)] : parity_dev_;
  }

  [[nodiscard]] int slot_of_device(int dev) const {
    for (int sl = 0; sl < Ddata_; ++sl)
      if (slot_dev_[static_cast<std::size_t>(sl)] == dev) return sl;
    return -1;
  }

  /// The bounded health wait on member `dev`: an Event on everything
  /// enqueued there so far, waited for at most the monitor's allowance.
  /// False on a timeout or once the member is lost; the caller throws
  /// device_lost or escalates.
  [[nodiscard]] bool member_done(int dev) {
    hybrid::Stream& sd = pool_.stream(dev);
    const hybrid::Event done = sd.record();
    const double w0 = health_->wait_begin();
    const bool ok = done.wait_for(health_->allowed(dev));
    return health_->wait_end(dev, w0, ok) && !pool_.lost(dev);
  }

  void finish_outcome() {
    rep_.outcome.status =
        rep_.losses > 0 ? RecoveryStatus::Recovered : RecoveryStatus::Clean;
    rep_.outcome.reason = AbortReason::None;
    rep_.outcome.attempts = rep_.losses;
    rep_.outcome.threshold = threshold_;
    rep_.health = health_->snapshot();
    obs::journal_log(obs::JournalSeverity::Info, "pool", "finished", -1,
                     static_cast<double>(rep_.losses));
  }

  // --- state -----------------------------------------------------------

  hybrid::DevicePool& pool_;
  MatrixView<double> a_;
  VectorView<double> tau_;
  PoolGehrdReport& rep_;
  fault::FaultPlane* plane_;
  index_t n_;
  index_t nb_;
  int D_;
  int Ddata_;
  ShardLayout lay_;
  RedundancyGroup group_;
  std::unique_ptr<obs::HealthMonitor> health_owned_;
  obs::HealthMonitor* health_ = nullptr;  ///< opt.health or health_owned_
  obs::Registry::CounterValues counters_base_;  ///< capsule snapshot-delta base
  double threshold_ = 0.0;
  int parity_dev_ = -1;
  std::vector<int> slot_dev_;  ///< data slot → pool ordinal (remapped on loss)
  std::vector<double> gaps_;   ///< per-ordinal verify result (NaN sentinel)

  std::vector<hybrid::DeviceMatrix<double>> d_e_, d_vg_, d_py_, d_ve_, d_t_, d_yce_, d_g_,
      d_w_;
  std::vector<Matrix<double>> host_sh_;  ///< scatter/gather/reconstruct staging
  Matrix<double> parity_host_;
  Matrix<double> t_host_, y_host_, yce_host_, ve_host_;
  Matrix<double> stage_y_;             ///< (n × Ddata) panel GEMV partials
  Matrix<double> stage_g_;             ///< (n × Ddata·nb) Y-top partials
  Matrix<double> ckpt_;                ///< host panel checkpoint
  std::vector<Matrix<double>> g_host_;   ///< per-ordinal generator staging
  std::vector<Matrix<double>> vg_host_;  ///< per-slot gathered vector staging
};

}  // namespace

void pool_gehrd(hybrid::DevicePool& pool, MatrixView<double> a, VectorView<double> tau,
                const PoolGehrdOptions& opt, PoolGehrdReport* rep) {
  PoolGehrdReport local;
  PoolGehrdReport& r = rep != nullptr ? *rep : local;
  r = {};
  PoolDriver drv(pool, a, tau, opt, r);
  drv.run();
}

}  // namespace fth::ft
