#include "ft/ft_gehrd.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/error.hpp"
#include "common/timer.hpp"
#include "fault/fault_plane.hpp"
#include "ft/checksum.hpp"
#include "ft/ladder.hpp"
#include "ft/q_protect.hpp"
#include "ft/reverse.hpp"
#include "hybrid/dev_blas.hpp"
#include "la/blas1.hpp"
#include "la/blas2.hpp"
#include "la/blas3.hpp"
#include "la/norms.hpp"
#include "obs/trace.hpp"
#include "lapack/gehrd.hpp"
#include "lapack/lahr2_impl.hpp"
#include "lapack/orghr.hpp"
#include "lapack/reflectors.hpp"

namespace fth::ft {
namespace {

using hybrid::copy_d2h;
using hybrid::copy_d2h_async;
using hybrid::copy_h2d;
using hybrid::copy_h2d_async;

constexpr Wording kWording{"ft_gehrd", "gap", /*counts_nonfinite=*/true};

/// Detection threshold for |Sre − Sce|: the caller's, or
/// threshold_factor·eps·n·‖A‖_F.
double gehrd_threshold(double fro_norm, index_t n, const FtOptions& opt) {
  return opt.threshold > 0 ? opt.threshold
                           : default_threshold(fro_norm, n, opt.threshold_factor);
}

/// All state of one fault-tolerant reduction (Algorithm 3).
class FtDriver {
 public:
  FtDriver(hybrid::Device& dev, MatrixView<double> a, VectorView<double> tau,
           const FtOptions& opt, fault::Injector* inj, FtReport& rep,
           hybrid::HybridGehrdStats& st, FroMax<double> norms)
      : s_(dev.stream()),
        a_(a),
        tau_(tau),
        opt_(opt),
        inj_(inj),
        rep_(rep),
        st_(st),
        n_(a.rows()),
        d_e_(dev, n_ + 1, n_ + 1, "ft.d_e"),
        d_vce_(dev, n_, std::max<index_t>(opt.nb, 1), "ft.d_vce"),
        d_t_(dev, std::max<index_t>(opt.nb, 1), std::max<index_t>(opt.nb, 1), "ft.d_t"),
        d_yce_(dev, n_ + 1, std::max<index_t>(opt.nb, 1), "ft.d_yce"),
        d_w_(dev, std::max<index_t>(opt.nb, 1), n_ + 1, "ft.d_w"),
        t_host_(std::max<index_t>(opt.nb, 1), std::max<index_t>(opt.nb, 1)),
        y_host_(n_, std::max<index_t>(opt.nb, 1)),
        v_host_(n_, std::max<index_t>(opt.nb, 1)),
        // The panel, then the checksum-row segment over it, which the
        // iteration re-encodes.
        ckpt_({{n_, std::max<index_t>(opt.nb, 1), 1.0, static_cast<double>(n_ + 1)}},
              {{1, std::max<index_t>(opt.nb, 1), static_cast<double>(n_ + 1),
                static_cast<double>(n_ + 1)}}),
        new_chkrow_(1, n_ + 1),
        qp_(n_),
        scale_max_(norms.max),
        ladder_(kWording, rep, opt.fault_plane, opt.max_retries,
                gehrd_threshold(norms.fro, n_, opt), ft_total_boundaries(n_, opt.nb)),
        line_tol_(opt.locate_tol > 0 ? opt.locate_tol : ladder_.threshold()),
        plane_(opt.fault_plane) {
    if (plane_ != nullptr) plane_->bind(dev);
  }

  ~FtDriver() { release_plane(); }

  void run() {
    encode();
    index_t i = 0;
    index_t boundary = 0;
    while (ft_blocked_panel(n_, i, opt_.nb)) {
      const index_t ib = std::min(opt_.nb, n_ - 1 - i);
      const bool completed = run_iteration(i, ib);
      // Check before inject: a boundary fault lands after this check and is
      // caught at the next boundary, once it has ridden through one
      // iteration's extended updates (the paper's fault model).
      ensure_clean(boundary + 1, i, ib, completed);
      if (opt_.protect_q) qp_.commit(pending_q_);
      ++boundary;
      ++st_.panels;
      i += ib;
      if (inj_ != nullptr) inject_at_boundary(boundary, i);
    }
    final_phase(i);
    ladder_.finish();
  }

 private:
#include "ft/recovery_loop.inc"
#include "ft/checkpoint.inc"
#include "ft/locate_repair.inc"

  // Finished columns are host data; the trailing ones live on the device.
  // Nothing to fold.
  static bool place_fault(index_t& /*row*/, index_t& col, index_t i_next) {
    return col >= i_next;
  }
  DMatrixView<double> device_matrix() { return d_e_.view(); }

  // -- Algorithm 3 line 2: encode the matrix on the device. ----------------
  // The host takes both codes from its own copy of A, in one pass, while
  // the device takes the upload; then the codes go up.
  void encode() {
    const obs::TimedSpan span("ft", "encode", rep_.encode_seconds, "n",
                              static_cast<double>(n_));
    copy_h2d_async(s_, MatrixView<const double>(a_), d_e_.block(0, 0, n_, n_));
    // The checksum column (row sums), and the checksum row (column sums)
    // with the grand total, staged in new_chkrow_.
    Matrix<double> chk_col(n_, 1);
    auto col_sums = new_chkrow_.view().row(0).sub(0, n_);
    fresh_line_sums(MatrixView<const double>(a_), LineShape::full(), chk_col.view().col(0),
                    col_sums);
    new_chkrow_(0, n_) = blas::sum(VectorView<const double>(col_sums));
    copy_h2d_async(s_, chk_col.cview(), d_e_.block(0, n_, n_, 1));
    copy_h2d_async(s_, new_chkrow_.cview(), d_e_.block(n_, 0, 1, n_ + 1));
    // Intentional full barrier, once per run: mark_encoded() below opens
    // the fault gate, and the codes must exist on the device before any
    // strike is allowed — a narrower transfer-only edge would let faults
    // fire under the code uploads. fth-perf: expect coarse-synchronize
    s_.synchronize();
    // Faults are gated until the codes exist: an earlier strike would be
    // encoded consistently and become a different (but protected) input.
    if (plane_ != nullptr) plane_->mark_encoded();
  }

  // -- One full panel iteration (Algorithm 3 lines 4–11). ------------------
  // Returns false if the panel tripwire aborted the iteration before any
  // update was applied (the caller then rolls back the panel and redoes it).
  bool run_iteration(index_t i, index_t ib) {
    const index_t vrows = n_ - i - 1;
    const index_t width = n_ + 1 - i - ib;  // trailing data columns + checksum column
    auto e = d_e_.view();

    // Re-aim the fault plane at this iteration's live regions. Finished
    // device columns and the checksum-row segment over the panel are dead
    // storage (their truth lives on the host / is re-encoded below);
    // corrupting them would be a silent no-op that breaks campaign
    // accounting. The checkpoint surface is registered only after its
    // integrity sums are taken, so a strike cannot pre-date the reference.
    // The checksum-row re-encode (h2d, end of iteration) is fault-eligible,
    // like the save's d2h of its pre-image (save_checkpoint).
    if (plane_ != nullptr) {
      plane_->register_surface(fault::Surface::TrailingMatrix,
                               d_e_.block(0, i + ib, n_, n_ - i - ib));
      plane_->register_surface(fault::Surface::ChecksumCol, d_e_.block(0, n_, n_, 1));
      plane_->register_surface(fault::Surface::ChecksumRow,
                               d_e_.block(n_, i + ib, 1, n_ - i - ib));
      plane_->clear_surface(fault::Surface::Checkpoint);
      plane_->clear_transfer_targets();
      plane_->add_transfer_target(fault::Surface::ChecksumRow, d_e_.block(n_, i, 1, ib));
    }

    // Line 4: panel to host + diskless checkpoint of its pre-image and of
    // the checksum-row segment over the panel columns: those entries are
    // re-encoded at the end of the iteration (see below) and must be
    // restorable on rollback.
    save_checkpoint(i, ib);

    // Line 5: host panel factorization; big Y products on the device.
    bool poisoned = false;
    {
      const obs::TimedSpan panel("hybrid", "panel", st_.panel_seconds, "col",
                                 static_cast<double>(i));
      try {
        lapack::detail::lahr2_panel(
            a_, i, ib, t_host_.view(), y_host_.view(), tau_.sub(i, ib),
            [&](index_t j, VectorView<const double> vj, VectorView<double> y_col) {
              const index_t cj = i + j;
              auto d_vcol = d_vce_.block(j, j, vj.size(), 1);
              copy_h2d_async(s_, MatrixView<const double>(vj.data(), vj.size(), 1, vj.size()),
                             d_vcol);
              hybrid::gemv_async(s_, Trans::No, 1.0,
                                 d_e_.block(i + 1, cj + 1, vrows, n_ - cj - 1),
                                 d_vcol.col(0), 0.0,
                                 d_yce_.block(i + 1, j, vrows, 1).col(0));
              copy_d2h_async(s_, d_yce_.block(i + 1, j, vrows, 1),
                             MatrixView<double>(y_col.data(), vrows, 1, vrows));
              if (j == 0) ckpt_.seal(ladder_, i);
              return [this, y_col, vrows, first = j == 0] {
                s_.synchronize();
                if (first) expose_checkpoint();
                // Tripwire: a non-finite y means a NaN/Inf strike reached
                // the trailing matrix mid-panel. Applying the reflector
                // chain would smear it everywhere; abandon the panel
                // instead, while no update has touched the extended matrix
                // yet.
                throw_if_poisoned(VectorView<const double>(y_col.data(), vrows));
              };
            });
      } catch (const PanelPoisoned&) {
        poisoned = true;
      }
    }
    if (poisoned) {
      s_.synchronize();
      ladder_.panel_aborted(i);
      return false;
    }

    {
      const obs::TimedSpan update("hybrid", "update", st_.update_seconds, "col",
                                  static_cast<double>(i));
      // Ship clean V / T / corrected lower Y. V is staged in the
      // driver-owned v_host_, which outlives every upload that reads it.
      lapack::materialize_v_into(MatrixView<const double>(a_), i, ib,
                                 v_host_.block(0, 0, vrows, ib));
      copy_h2d_async(s_, MatrixView<const double>(v_host_.block(0, 0, vrows, ib)),
                     d_vce_.block(0, 0, vrows, ib));
      copy_h2d_async(s_, t_host_.block(0, 0, ib, ib), d_t_.block(0, 0, ib, ib));
      copy_h2d_async(s_, y_host_.block(i + 1, 0, vrows, ib), d_yce_.block(i + 1, 0, vrows, ib));

      // Line 7: column checksums of V, into the row below it.
      auto dv = d_vce_.view();
      s_.enqueue("ft.v_chk", FTH_TASK_EFFECTS(FTH_WRITES(dv)), [this, dv, vrows, ib] {
        WallTimer t;
        auto dvh = dv.in_task();
        sum_lines(dvh.block(0, 0, vrows, ib), LineShape::full(), {}, dvh.row(vrows).sub(0, ib));
        chk_update_seconds_ += t.seconds();
      });

      // Top rows of Yce: Y(0:i+1,:) = A(0:i+1, i+1:n)·V·T.
      hybrid::gemm_async(s_, Trans::No, Trans::No, 1.0, d_e_.block(0, i + 1, i + 1, vrows),
                         d_vce_.block(0, 0, vrows, ib), 0.0, d_yce_.block(0, 0, i + 1, ib));
      hybrid::trmm_async(s_, Side::Right, Uplo::Upper, Trans::No, Diag::NonUnit, 1.0,
                         d_t_.block(0, 0, ib, ib), d_yce_.block(0, 0, i + 1, ib));

      // Line 6: checksum row of Y, Ychk = Ac_chk(i+1:n)·V·T (device).
      auto dy = d_yce_.view();
      auto dt = d_t_.view();
      s_.enqueue("ft.y_chk", FTH_TASK_EFFECTS(FTH_READS(e, dv, dt) FTH_WRITES(dy)),
                 [this, e, dv, dy, dt, i, ib, vrows] {
        WallTimer t;
        auto eh = e.in_task();
        auto chk_seg = VectorView<const double>(eh.row(n_).sub(i + 1, vrows));
        auto ychk = dy.in_task().row(n_).sub(0, ib);
        blas::gemv(Trans::Yes, 1.0, MatrixView<const double>(dv.in_task().block(0, 0, vrows, ib)),
                   chk_seg, 0.0, ychk);
        blas::trmv(Uplo::Upper, Trans::Yes, Diag::NonUnit,
                   MatrixView<const double>(dt.in_task().block(0, 0, ib, ib)), ychk);
        chk_update_seconds_ += t.seconds();
      });

      // Fetch the finished top rows of Y for the host-side panel fix.
      copy_d2h_async(s_, d_yce_.block(0, 0, i + 1, ib),
                     y_host_.block(0, 0, i + 1, ib));
      const hybrid::Event y_upper_ready = s_.record();

      // Line 8+10: extended right update, M and G plus both checksums in one
      // GEMM over the trailing columns and the checksum column.
      hybrid::gemm_async(s_, Trans::No, Trans::Yes, -1.0, d_yce_.block(0, 0, n_ + 1, ib),
                         d_vce_.block(ib - 1, 0, vrows - ib + 2, ib), 1.0,
                         d_e_.block(0, i + ib, n_ + 1, width));

      // BetweenUpdates faults strike here: after the extended right update,
      // before the left one (enqueued, so ordering on the stream is exact).
      if (plane_ != nullptr) plane_->on_between_updates(s_);

      // Line 11: extended left update; W is retained for reverse computation.
      // Enqueued BEFORE the host panel fix below — it reads only
      // device-resident operands (Vce, T, the extended trailing columns),
      // so the host work overlaps both big updates instead of just the
      // right one (the paper's line 9/line 10 overlap, widened).
      hybrid::gemm_async(s_, Trans::Yes, Trans::No, 1.0, d_vce_.block(0, 0, vrows, ib),
                         d_e_.block(i + 1, i + ib, vrows, width), 0.0,
                         d_w_.block(0, 0, ib, width));
      hybrid::trmm_async(s_, Side::Left, Uplo::Upper, Trans::Yes, Diag::NonUnit, 1.0,
                         d_t_.block(0, 0, ib, ib), d_w_.block(0, 0, ib, width));
      hybrid::gemm_async(s_, Trans::No, Trans::No, -1.0, d_vce_.block(0, 0, vrows + 1, ib),
                         d_w_.block(0, 0, ib, width), 1.0,
                         d_e_.block(i + 1, i + ib, vrows + 1, width));

      // Host work overlapped with the device GEMMs (Q checksum generation
      // of Section IV-E, then the panel-column fix).
      if (opt_.protect_q) {
        const obs::TimedSpan q_span = ladder_.q_phase("q_checksum");
        pending_q_ = qp_.compute_panel(MatrixView<const double>(a_), i, ib);
      }
      // The wait also retires the V/T/Y uploads, so the next iteration (or
      // a redo of this one) may restage v_host_ with no transfer still
      // reading it.
      y_upper_ready.wait();
      blas::trmm(Side::Right, Uplo::Lower, Trans::Yes, Diag::Unit, 1.0,
                 MatrixView<const double>(a_.block(i + 1, i, ib - 1, ib - 1)),
                 y_host_.block(0, 0, i + 1, ib - 1));
      for (index_t j = 0; j + 1 < ib; ++j) {
        blas::axpy(-1.0, VectorView<const double>(y_host_.block(0, j, i + 1, 1).col(0)),
                   a_.block(0, i + 1 + j, i + 1, 1).col(0));
      }

      // The panel columns transition from "trailing data" (checksummed over
      // the full height) to "finished H columns" (checksummed over rows
      // 0..c+1 only — the Householder entries below move under Q's
      // protection). Re-encode the checksum-row segment for the finished
      // columns from the final host data; the pre-image was checkpointed
      // above so rollback can restore it.
      sum_lines(a_.block(0, i, n_, ib), LineShape::before_row(i + 2), {},
                new_chkrow_.view().row(0).sub(0, ib));
      copy_h2d_async(s_, MatrixView<const double>(new_chkrow_.block(0, 0, 1, ib)),
                     d_e_.block(n_, i, 1, ib));
      // No loop-bottom synchronize: the re-encode h2d stays in flight and
      // is retired by detect()'s synchronous fetch before the host rewrites
      // new_chkrow_ next iteration (fth_analyze --perf flagged the old
      // barrier as coarse-synchronize, and the loop-carried pass proves the
      // detect edge covers it).
    }
    return true;
  }

  // Detection: grand-total gap plus a non-finite scan over the live region
  // (trailing columns + both checksum lines; finished device columns are
  // dead storage whose truth lives on the host). `first_col` is the first
  // trailing column at this boundary. The scan is needed because an
  // unpropagated NaN in the data leaves both grand totals NaN — detected —
  // but a NaN pair can also cancel into a *finite* bogus gap, and an Inf
  // strike that has not reached a checksum yet changes neither total.
  Detection detect(index_t first_col) {
    const obs::TimedSpan timed("ft", "detect", rep_.detect_seconds);
    Detection det;
    auto e = d_e_.view();
    s_.enqueue("ft.detect", FTH_TASK_EFFECTS(FTH_READS(e)), [e, n = n_, first_col, &det] {
      auto eh = e.in_task();
      const double sre = blas::sum(VectorView<const double>(eh.col(n).sub(0, n)));
      const double sce = blas::sum(VectorView<const double>(eh.row(n).sub(0, n)));
      det.gap = std::abs(sre - sce);
      det.nonfinite = count_nonfinite(eh.block(0, first_col, n + 1, n + 1 - first_col)) +
                      count_nonfinite(eh.block(n, 0, 1, first_col));
    });
    s_.synchronize();
    det.clean = det.gap <= ladder_.threshold() && det.nonfinite == 0;  // NaN gap fails
    return det;
  }

  // -- Line 14: reverse computation (exact, the factors are still live). ---
  void rollback(index_t i, index_t ib, bool completed) {
    const index_t vrows = n_ - i - 1;
    const index_t width = n_ + 1 - i - ib;
    auto e = d_e_.view();
    auto dv = d_vce_.view();
    auto dy = d_yce_.view();
    auto dw = d_w_.view();
    if (completed) {
      s_.enqueue("ft.reverse_update", FTH_TASK_EFFECTS(FTH_READS(dv, dy) FTH_WRITES(e, dw)),
                  [e, dv, dy, dw, i, ib, vrows, width] {
        // Undo the left update first (it was applied last), then the right.
        auto eh = e.in_task();
        auto dvh = dv.in_task();
        reverse_left_update(eh.block(i + 1, i + ib, vrows + 1, width),
                            dvh.block(0, 0, vrows + 1, ib),
                            dw.in_task().block(0, 0, ib, width));
        reverse_right_update(eh.block(0, i + ib, eh.rows(), width),
                             dy.in_task().block(0, 0, eh.rows(), ib),
                             dvh.block(ib - 1, 0, vrows - ib + 2, ib));
      });
    }
    // Drain before touching the checkpoint from the host: in-flight faults
    // fire on the worker thread and may target the checkpoint buffers.
    s_.synchronize();
    // The panel (and its host-side upper rows) comes back, then the
    // checksum-row segment, which only a completed iteration re-encoded
    // (the redo re-encodes it anyway).
    restore_checkpoint(i, completed, /*codes=*/completed);
  }

  // -- checkpoint.inc hooks. ------------------------------------------------
  /// The panel, on the device and in a_, and the checksum-row segment over
  /// it.
  CheckpointBlocks checkpoint_blocks(index_t i, index_t ib) {
    return {{d_e_.block(0, i, n_, ib)}, {a_.block(0, i, n_, ib)}, {d_e_.block(n_, i, 1, ib)}};
  }

  /// The checksum-row pre-image was struck. Prefer the device's maintained
  /// segment (still pristine when the iteration never reached its
  /// re-encode); once the re-encode has run, fall back to the panel copy's
  /// full-height column sums — the panel columns were trailing data when
  /// the iteration began, so those sums ARE the code (up to the rounding
  /// the threshold absorbs). Residual window: if a boundary fault also
  /// sits inside the checkpointed panel, the fallback encodes it into the
  /// column code and only the orthogonal row code can still see it — a
  /// documented double-fault limitation (DESIGN.md §9).
  void rederive_codes(index_t /*i*/, bool completed) {
    if (!completed) {
      read_codes(ckpt_.code(0));
      s_.synchronize();
    } else {
      sum_lines(ckpt_.data(0), LineShape::full(), {}, ckpt_.code(0).row(0));
    }
  }

  // -- locate_repair.inc hooks (Section IV-F). -----------------------------
  LocateResult match(const LineSums& s) const { return locate(s, line_tol_); }

  /// The finished columns summed on the host from a_, as the re-encode does;
  /// the trailing columns and both code lines read by one device task.
  LineSums line_sums(index_t i) {
    LineSums s{finished_sums(MatrixView<const double>(a_), i),
               std::vector<double>(static_cast<std::size_t>(n_)),
               std::vector<double>(static_cast<std::size_t>(n_))};
    auto e = d_e_.view();
    s_.enqueue("ft.line_sums", FTH_TASK_EFFECTS(FTH_READS(e)), [this, e, i, &s] {
      const MatrixView<const double> eh = e.in_task();
      add_trailing_sums(eh, i, s.fresh);
      for (index_t k = 0; k < n_; ++k) {
        s.row_code[static_cast<std::size_t>(k)] = eh(k, n_);
        s.col_code[static_cast<std::size_t>(k)] = eh(n_, k);
      }
      corner_ = eh(n_, n_);
    });
    s_.synchronize();
    return s;
  }

  void write_code(bool second, index_t k, double v) {
    auto e = d_e_.view();
    s_.enqueue("ft.correct", FTH_TASK_EFFECTS(FTH_WRITES(e)), [e, second, k, v, n = n_] {
      auto eh = e.in_task();
      (second ? eh(n, k) : eh(k, n)) = v;
    });
  }

  /// The grand total is the checksum row's sum.
  int repair_corner(const std::vector<double>& col_code) {
    if (std::isfinite(corner_)) return 0;
    double corner = 0.0;
    for (const double v : col_code) corner += v;
    auto e = d_e_.view();
    s_.enqueue("ft.reconstruct", FTH_TASK_EFFECTS(FTH_WRITES(e)),
               [e, n = n_, corner] { e.in_task()(n, n) = corner; });
    return 1;
  }

  // The finish phase: the host's unblocked reduction from column `i` on.
  void host_tail(index_t i) {
    const obs::TimedSpan finish("hybrid", "finish", st_.finish_seconds, "col",
                                static_cast<double>(i));
    lapack::gehd2(a_, tau_, i);
  }

  // The blocked loop stopped at the crossover `i`: columns i..n−1 are
  // still trailing data on the device.
  void final_phase(index_t i) {
    if (opt_.final_sweep) sweep(i);

    // Bring down the trailing block and reduce it on the host, as
    // hybrid_gehrd does: no device update is left to protect.
    copy_d2h(s_, d_e_.block(0, i, n_, n_ - i), a_.block(0, i, n_, n_ - i));
    host_tail(i);

    // Section IV-E: commit the tail reflectors' checksums, then verify +
    // correct the Householder storage once.
    if (opt_.protect_q) {
      {
        const obs::TimedSpan q_span = ladder_.q_phase("q_checksum");
        qp_.commit(qp_.compute_panel(MatrixView<const double>(a_), i, n_ - 1 - i));
      }
      const obs::TimedSpan q_span = ladder_.q_phase("q_verify");
      ladder_.verify_q(qp_, a_);
    }
    rep_.checksum_update_seconds = chk_update_seconds_;
  }

  hybrid::Stream& s_;
  MatrixView<double> a_;
  VectorView<double> tau_;
  const FtOptions& opt_;
  fault::Injector* inj_;
  FtReport& rep_;
  hybrid::HybridGehrdStats& st_;

  index_t n_;
  double chk_update_seconds_ = 0.0;  // written by stream tasks, read after sync

  hybrid::DeviceMatrix<double> d_e_;
  hybrid::DeviceMatrix<double> d_vce_;
  hybrid::DeviceMatrix<double> d_t_;
  hybrid::DeviceMatrix<double> d_yce_;
  hybrid::DeviceMatrix<double> d_w_;

  Matrix<double> t_host_;
  Matrix<double> y_host_;
  Matrix<double> v_host_;       ///< V staging for the h2d upload
  Checkpoint ckpt_;
  /// The encoded checksum row, then each finished panel's re-encoded segment.
  Matrix<double> new_chkrow_;
  QProtector qp_;
  QProtector::PanelChecksums pending_q_;

  double scale_max_;
  RecoveryLadder ladder_;
  double line_tol_;  ///< per-line location tolerance
  double corner_ = 0.0;  ///< the grand total as line_sums() last read it
  fault::FaultPlane* plane_;  ///< optional in-flight fault plane (not owned)
};

}  // namespace

void ft_gehrd(hybrid::Device& dev, MatrixView<double> a, VectorView<double> tau,
              const FtOptions& opt, fault::Injector* injector, FtReport* report,
              hybrid::HybridGehrdStats* stats) {
  const index_t n = a.rows();
  FTH_CHECK(a.cols() == n, "ft_gehrd: matrix must be square");
  FTH_CHECK(tau.size() >= std::max<index_t>(n - 1, 0), "ft_gehrd: tau too short");
  FTH_CHECK(opt.nb >= 1, "ft_gehrd: block size must be positive");

  hybrid::RunFrame frame(dev, "ft", "gehrd", n, stats);
  const FroMax<double> norms = finite_input_norms(MatrixView<const double>(a), "ft_gehrd");
  FtReport local_rep;
  FtReport& rep = report != nullptr ? *report : local_rep;
  rep = {};
  if (ft_blocked_panel(n, 0, opt.nb)) {
    FtDriver driver(dev, a, tau, opt, injector, rep, frame.st(), norms);
    driver.run();
  } else {
    // No blocked iteration: the host reduction alone, as in hybrid_gehrd.
    // The report still names the threshold a blocked run would apply.
    rep.threshold = gehrd_threshold(norms.fro, n, opt);
    const obs::TimedSpan finish("hybrid", "finish", frame.st().finish_seconds, "col", 0.0);
    lapack::gehd2(a, tau);
  }
}

}  // namespace fth::ft
