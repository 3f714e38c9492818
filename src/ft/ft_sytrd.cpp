#include "ft/ft_sytrd.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/error.hpp"
#include "fault/fault_plane.hpp"
#include "ft/checksum.hpp"
#include "ft/ladder.hpp"
#include "ft/locate.hpp"
#include "ft/q_protect.hpp"
#include "hybrid/dev_blas.hpp"
#include "la/blas1.hpp"
#include "la/blas2.hpp"
#include "la/norms.hpp"
#include "obs/trace.hpp"
#include "lapack/orghr.hpp"
#include "lapack/sytrd.hpp"
#include "lapack/sytrd_impl.hpp"

namespace fth::ft {
namespace {

using hybrid::copy_d2h;
using hybrid::copy_d2h_async;
using hybrid::copy_h2d;
using hybrid::copy_h2d_async;

constexpr Wording kWording{"ft_sytrd", "per-row gap", /*counts_nonfinite=*/false};

/// Per-row detection tolerance: the caller's as given, or the gehrd
/// default — which bounds a grand total over n rows — with the n factor
/// divided back out and a comfortable ×50 margin.
double sytrd_threshold(double fro_norm, index_t n, const FtSytrdOptions& opt) {
  if (opt.threshold > 0) return opt.threshold;
  return default_threshold(fro_norm, n) / static_cast<double>(std::max<index_t>(n, 1)) * 50.0;
}

class FtSytrdDriver {
 public:
  FtSytrdDriver(hybrid::Device& dev, MatrixView<double> a, VectorView<double> d,
                VectorView<double> e, VectorView<double> tau, const FtSytrdOptions& opt,
                fault::Injector* inj, FtReport& rep, hybrid::HybridGehrdStats& st,
                FroMax<double> norms)
      : s_(dev.stream()),
        a_(a),
        d_(d),
        e_(e),
        tau_(tau),
        opt_(opt),
        inj_(inj),
        rep_(rep),
        st_(st),
        n_(a.rows()),
        d_a_(dev, n_, n_, "sytrd.ft.d_a"),
        d_v_(dev, n_, std::max<index_t>(opt.nb, 1), "sytrd.ft.d_v"),
        d_w_(dev, n_, std::max<index_t>(opt.nb, 1), "sytrd.ft.d_w"),
        d_chk1_(dev, n_, 1, "sytrd.ft.d_chke"),
        d_chk2_(dev, n_, 1, "sytrd.ft.d_chkw"),
        d_wvec_(dev, n_, 1, "sytrd.ft.d_wvec"),
        d_sums_(dev, std::max<index_t>(opt.nb, 1), 4, "sytrd.ft.d_sums"),
        d_pc_(dev, n_, 2, "sytrd.ft.d_pc"),
        d_fresh_(dev, n_, 2, "sytrd.ft.d_fresh"),
        w_host_(n_, std::max<index_t>(opt.nb, 1)),
        v_host_(n_, std::max<index_t>(opt.nb, 1)),
        ckpt_(n_, std::max<index_t>(opt.nb, 1)),
        ckpt_chk1_(n_, 1),
        ckpt_chk2_(n_, 1),
        seg_(std::max<index_t>(opt.nb, 1), 2),
        qp_(n_),
        threshold_(sytrd_threshold(norms.fro, n_, opt)),
        scale_max_(norms.max),
        ladder_(kWording, rep, opt.fault_plane, opt.max_retries, threshold_,
                ft_total_boundaries(n_, opt.nb)),
        plane_(opt.fault_plane) {
    if (plane_ != nullptr) plane_->bind(dev);
  }

  ~FtSytrdDriver() { release_plane(); }

 private:
#include "ft/recovery_loop.inc"
#include "ft/two_code.inc"
#include "ft/locate_repair.inc"

  // The strictly upper triangle of d_a_ is never read: a strike there is
  // dead storage.
  static constexpr fault::SurfaceShape kTrailingShape = fault::SurfaceShape::LowerTriangle;

  void commit_q() { qp_.commit(pending_q_); }
  DMatrixView<double> device_matrix() { return d_a_.view(); }

  void encode() {
    const obs::TimedSpan span("ft", "encode", rep_.encode_seconds, "n",
                              static_cast<double>(n_));
    copy_h2d_async(s_, MatrixView<const double>(a_), d_a_.view());
    s_.enqueue("ft.iota", FTH_TASK_EFFECTS(FTH_WRITES(d_wvec_.view())),
                [wv = d_wvec_.view()] {
      auto wvh = wv.in_task();
      for (index_t r = 0; r < wvh.rows(); ++r) wvh(r, 0) = static_cast<double>(r + 1);
    });
    // chk_e = A_sym·e, chk_w = A_sym·ω (both over the stored lower triangle).
    sum_lines_async(s_, d_a_.view(), LineShape::symmetric_lower(), d_chk1_.view().col(0), {});
    hybrid::symv_async(s_, Uplo::Lower, 1.0, d_a_.view(), d_wvec_.view().col(0), 0.0,
                       d_chk2_.view().col(0));
    // Intentional full barrier, once per run: mark_encoded() below opens
    // the fault gate, and both codes must exist on the device before any
    // strike is allowed. fth-perf: expect coarse-synchronize
    s_.synchronize();
    // Faults are gated until the codes exist: an earlier strike would be
    // encoded consistently and become a different (but protected) input.
    if (plane_ != nullptr) plane_->mark_encoded();
  }

  // Returns false if the panel tripwire abandoned the iteration before any
  // update touched the trailing matrix (caller rolls back and redoes).
  bool run_iteration(index_t i, index_t ib) {
    const index_t vrows = n_ - i - 1;
    const index_t tn = n_ - i - ib;
    aim_plane(i, ib);

    // Panel to host + diskless checkpoints (panel pre-image and both
    // checksum vectors — the vectors are O(n), so checkpointing beats
    // reverse-computing them).
    {
      const obs::TimedSpan ckpt("ft", "checkpoint_save", st_.panel_seconds, "col",
                                static_cast<double>(i));
      copy_d2h_async(s_, d_a_.block(0, i, n_, ib), a_.block(0, i, n_, ib));
      copy_d2h_async(s_, d_chk1_.view(), ckpt_chk1_.view());
      copy_d2h(s_, d_chk2_.view(), ckpt_chk2_.view());
      panel_seal_ = panel_sums(i, ib, /*save=*/true);
      // The d2h that filled the vector checkpoints is itself fault-eligible
      // and the dual-sum verify can only vouch for what was stored, not for
      // the transfer. Cross-check bitwise against the device's maintained
      // vectors via a raw task readback (not a copy_* transfer, hence not
      // fault-eligible) and repair on mismatch.
      verify_chk_checkpoint_save();
      chk_seal_ = chk_sums();
      if (plane_ != nullptr)
        plane_->register_surface(fault::Surface::Checkpoint, ckpt_.block(0, 0, n_, ib));
    }

    // Host panel with device-assisted SYMV.
    bool poisoned = false;
    {
      const obs::TimedSpan panel("hybrid", "panel", st_.panel_seconds, "col",
                                 static_cast<double>(i));
      try {
        lapack::detail::latrd_panel(
            a_, i, ib, e_.sub(i, ib), tau_.sub(i, ib), w_host_.view(),
            [&](index_t j, VectorView<const double> vj, VectorView<double> w_col) {
              const index_t cj = i + j;
              const index_t vlen = n_ - cj - 1;
              auto d_vcol = d_v_.block(j, j, vlen, 1);
              copy_h2d_async(s_, MatrixView<const double>(vj.data(), vlen, 1, vlen), d_vcol);
              hybrid::symv_async(s_, Uplo::Lower, 1.0,
                                 d_a_.block(cj + 1, cj + 1, vlen, vlen), d_vcol.col(0), 0.0,
                                 d_w_.block(j, j, vlen, 1).col(0));
              copy_d2h_async(s_, d_w_.block(j, j, vlen, 1),
                             MatrixView<double>(w_col.data(), vlen, 1, vlen));
              return [this, w_col, vlen] {
                s_.synchronize();
                // Tripwire: a non-finite w means a NaN/Inf strike reached
                // the trailing matrix mid-panel. Abandon the panel before
                // any update smears it.
                for (index_t r = 0; r < vlen; ++r)
                  if (!std::isfinite(w_col[r])) throw PanelPoisoned{};
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
      // Clean V (explicit unit) and the finished W block to the device,
      // staged in the loop-hoisted v_host_ (the upload is only retired by
      // detect()'s synchronous fetch, after this scope ends).
      lapack::materialize_v_into(MatrixView<const double>(a_), i, ib,
                                 v_host_.block(0, 0, vrows, ib));
      copy_h2d_async(s_, MatrixView<const double>(v_host_.block(0, 0, vrows, ib)),
                     d_v_.block(0, 0, vrows, ib));
      copy_h2d_async(s_, MatrixView<const double>(w_host_.block(i + 1, 0, vrows, ib)),
                     d_w_.block(0, 0, vrows, ib));

      // --- Checksum maintenance --------------------------------------------
      // After this iteration the logical row sum of a trailing row r ≥ i+ib is
      //   old_sum(r) − (old panel-column entries of row r)        [zeroed]
      //              − (V2·W2ᵀ + W2·V2ᵀ)(r, :)·vec  over c ≥ i+ib [rank-2k]
      //              + e_last·vec(i+ib−1) for r == i+ib           [coupling]
      // and panel rows i..i+ib−1 become plain tridiagonal rows, re-encoded
      // from the finished host data (their pre-images are checkpointed).
      auto v2 = d_v_.block(ib - 1, 0, tn, ib);
      auto w2 = d_w_.block(ib - 1, 0, tn, ib);
      auto wvec_tail = d_wvec_.view().col(0).sub(i + ib, tn);
      auto wvec_panel = d_wvec_.view().col(0).sub(i, ib);

      // Tail column sums of V2/W2 against e and ω (paper line 6/7 analogues).
      sum_lines_async(s_, v2, LineShape::full(), {}, d_sums_.view().col(0).sub(0, ib));
      sum_lines_async(s_, w2, LineShape::full(), {}, d_sums_.view().col(1).sub(0, ib));
      hybrid::gemv_async(s_, Trans::Yes, 1.0, v2, wvec_tail, 0.0, d_sums_.view().col(2).sub(0, ib));
      hybrid::gemv_async(s_, Trans::Yes, 1.0, w2, wvec_tail, 0.0, d_sums_.view().col(3).sub(0, ib));
      // Old panel-column contributions of the trailing rows (the device's
      // panel columns still hold the pristine start-of-iteration values).
      auto panel_tail = d_a_.block(i + ib, i, tn, ib);
      sum_lines_async(s_, panel_tail, LineShape::full(), d_pc_.view().col(0).sub(0, tn), {});
      hybrid::gemv_async(s_, Trans::No, 1.0, panel_tail, wvec_panel, 0.0,
                         d_pc_.view().col(1).sub(0, tn));

      auto se_v2 = d_sums_.view().col(0).sub(0, ib);
      auto se_w2 = d_sums_.view().col(1).sub(0, ib);
      auto sw_v2 = d_sums_.view().col(2).sub(0, ib);
      auto sw_w2 = d_sums_.view().col(3).sub(0, ib);
      auto chke_tail = d_chk1_.view().col(0).sub(i + ib, tn);
      auto chkw_tail = d_chk2_.view().col(0).sub(i + ib, tn);
      hybrid::axpy_async(s_, -1.0, d_pc_.view().col(0).sub(0, tn), chke_tail);
      hybrid::gemv_async(s_, Trans::No, -1.0, v2, se_w2, 1.0, chke_tail);
      hybrid::gemv_async(s_, Trans::No, -1.0, w2, se_v2, 1.0, chke_tail);
      hybrid::axpy_async(s_, -1.0, d_pc_.view().col(1).sub(0, tn), chkw_tail);
      hybrid::gemv_async(s_, Trans::No, -1.0, v2, sw_w2, 1.0, chkw_tail);
      hybrid::gemv_async(s_, Trans::No, -1.0, w2, sw_v2, 1.0, chkw_tail);

      // The window between the checksum maintenance and the rank-2k data
      // update is sytrd's analogue of gehrd's between-updates window.
      if (plane_ != nullptr) plane_->on_between_updates(s_);

      // Trailing rank-2k (lower triangle) on the device.
      hybrid::syr2k_async(s_, Uplo::Lower, Trans::No, -1.0, v2, w2, 1.0,
                          d_a_.block(i + ib, i + ib, tn, tn));

      // Host work overlapped with the device update.
      {
        const obs::TimedSpan q_span = ladder_.q_phase("q_checksum");
        pending_q_ = qp_.compute_panel(MatrixView<const double>(a_), i, ib);
      }
      for (index_t j = 0; j < ib; ++j) {
        a_(i + j + 1, i + j) = e_[i + j];  // replace the panel's unit entries
      }

      // Re-encode the finished panel rows of both checksums from the final
      // tridiagonal data, and add the new coupling entry to row i+ib.
      for (index_t j = 0; j < ib; ++j) {
        const index_t r = i + j;
        const double dl = r > 0 ? a_(r, r - 1) : 0.0;
        const double dd = a_(r, r);
        const double du = a_(r + 1, r);  // superdiagonal by symmetry
        seg_(j, 0) = dl + dd + du;
        seg_(j, 1) = dl * static_cast<double>(r) + dd * static_cast<double>(r + 1) +
                     du * static_cast<double>(r + 2);
      }
      copy_h2d_async(s_, seg_.block(0, 0, ib, 1), d_chk1_.block(i, 0, ib, 1));
      copy_h2d_async(s_, seg_.block(0, 1, ib, 1), d_chk2_.block(i, 0, ib, 1));
      const double e_last = e_[i + ib - 1];
      auto ce = d_chk1_.view();
      auto cw = d_chk2_.view();
      s_.enqueue("ft.couple", FTH_TASK_EFFECTS(FTH_WRITES(d_chk1_.view(), d_chk2_.view())),
                 [ce, cw, i, ib, e_last] {
        ce.in_task()(i + ib, 0) += e_last;
        cw.in_task()(i + ib, 0) += e_last * static_cast<double>(i + ib);  // weight of col i+ib−1
      });
      // No loop-bottom synchronize: the seg_ uploads and the couple task
      // stay in flight and are retired by detect()'s synchronous fetch
      // before the host refills seg_ (fth_analyze --perf flagged the old
      // barrier as coarse-synchronize).
    }
    return true;
  }

  // -- line_sums() hooks: row sums, plain (e) or weighted (ω). --------------
  static double weight(index_t c, bool weighted) {
    return weighted ? static_cast<double>(c + 1) : 1.0;
  }

  /// Finished row r: tridiagonal entries read from the host matrix.
  double finished_sum(index_t r, bool weighted) const {
    double s = a_(r, r) * weight(r, weighted);
    if (r > 0) s += a_(r, r - 1) * weight(r - 1, weighted);
    if (r + 1 < n_) s += a_(r + 1, r) * weight(r + 1, weighted);  // superdiag by symmetry
    return s;
  }

  /// Trailing rows: the live lower triangle on the device, summed plain
  /// or against ω by a SYMV.
  void fresh_product(index_t i2, index_t tn, bool weighted) {
    auto trailing = d_a_.block(i2, i2, tn, tn);
    auto fresh = d_fresh_.view().col(weighted ? 1 : 0).sub(0, tn);
    if (weighted) {
      hybrid::symv_async(s_, Uplo::Lower, 1.0, trailing, d_wvec_.view().col(0).sub(i2, tn), 0.0,
                         fresh);
    } else {
      sum_lines_async(s_, trailing, LineShape::symmetric_lower(), fresh, {});
    }
  }

  /// The coupling entry e[i2−1] contributes to trailing row i2 (column i2−1).
  void add_coupling(double& sum, index_t i2, bool weighted) const {
    sum += a_(i2, i2 - 1) * weight(i2 - 1, weighted);
  }

  /// Fresh-vs-maintained plain-code comparison at finished boundary `i2`.
  /// A scalar Sre-vs-Sce test provably cannot see stored-triangle errors
  /// (the logical corruption is symmetric and cancels); the maintained code
  /// against freshly recomputed row sums can, and the weighted code then
  /// locates. Reports the worst finite per-row gap, and a NaN gap once any
  /// row's comparison is non-finite (the plain `gap > threshold` test is
  /// false for NaN and would wave the corruption straight through).
  Detection detect(index_t i2) {
    const obs::TimedSpan timed("ft", "detect", rep_.detect_seconds);
    const LineSums s = line_sums(i2, /*both=*/false);
    double worst = 0.0;
    bool bad = false;
    bool nonfinite = false;
    for (std::size_t r = 0; r < s.row_code.size(); ++r) {
      const double gap = std::abs(s.fresh.row[r] - s.row_code[r]);
      if (!std::isfinite(gap)) {
        nonfinite = true;
        bad = true;
      } else {
        worst = std::max(worst, gap);
        if (gap > threshold_) bad = true;
      }
    }
    return {nonfinite ? std::numeric_limits<double>::quiet_NaN() : worst, !bad,
            nonfinite ? 1 : 0};
  }

  void rollback(index_t i, index_t ib, bool completed) {
    const index_t tn = n_ - i - ib;
    if (completed) {
      // Reverse the trailing rank-2k exactly (deterministic kernel, same
      // retained operands). A poisoned panel never applied it.
      hybrid::syr2k_async(s_, Uplo::Lower, Trans::No, 1.0, d_v_.block(ib - 1, 0, tn, ib),
                          d_w_.block(ib - 1, 0, tn, ib), 1.0,
                          d_a_.block(i + ib, i + ib, tn, tn));
    }
    // Drain before touching the checkpoints from the host: in-flight faults
    // fire on the worker thread and may target the checkpoint buffers.
    // Recovery cold path, not worth an Event edge. fth-perf: expect coarse-synchronize
    s_.synchronize();
    obs::TraceSpan restore_span("ft", "checkpoint_restore", "col", static_cast<double>(i));
    verify_or_rederive_panel_checkpoint(i, ib);
    fth::copy(MatrixView<const double>(ckpt_.block(0, 0, n_, ib)), a_.block(0, i, n_, ib));
    restore_chk_checkpoints(i);
  }

  // `save` first copies the panel into the checkpoint, in the same pass.
  DualSum panel_sums(index_t i, index_t ib, bool save = false) {
    DualSum s;
    const double stride = static_cast<double>(n_);
    if (save) {
      s.copy_block(a_.block(0, i, n_, ib), ckpt_.block(0, 0, n_, ib), 1.0, stride);
    } else {
      s.add_block(ckpt_.block(0, 0, n_, ib), 1.0, stride);
    }
    return s;
  }

  void verify_or_rederive_panel_checkpoint(index_t i, index_t ib) {
    if (panel_sums(i, ib).same_bits(panel_seal_)) return;
    // The diskless panel checkpoint was struck after save. The device's
    // panel columns are never written during the iteration (the panel is
    // factored on the host, the rank-2k starts at column i+ib), so they
    // still hold the exact pre-iteration image.
    copy_d2h(s_, d_a_.block(0, i, n_, ib), ckpt_.block(0, 0, n_, ib));
    panel_seal_ = panel_sums(i, ib);
    ladder_.rederived();
  }

  // -- locate_repair.inc hooks (Section IV-F). -----------------------------
  LocateResult match(const LineSums& s) const { return locate_weighted(s, threshold_); }

  // Symmetric lower storage: fold the coordinates into the triangle.
  // Finished rows and columns (the tridiagonal band) are host data.
  static bool place_fault(index_t& p, index_t& q, index_t i_next) {
    const index_t row = p;
    p = std::max(row, q);
    q = std::min(row, q);
    return q >= i_next;
  }

  // The blocked loop stopped at the crossover `i`: the trailing block
  // A(i:n, i:n) is still on the device. It comes down first (a sweep that
  // repairs the device copy fetches it again) and is reduced on the host,
  // as hybrid_sytrd does: no device update is left to protect.
  void final_phase(index_t i) {
    const index_t tn = n_ - i;
    copy_d2h(s_, d_a_.block(i, i, tn, tn), a_.block(i, i, tn, tn));
    if (opt_.final_sweep && sweep(i))
      copy_d2h(s_, d_a_.block(i, i, tn, tn), a_.block(i, i, tn, tn));

    {
      const obs::TimedSpan finish("hybrid", "finish", st_.finish_seconds, "col",
                                  static_cast<double>(i));
      lapack::sytd2(a_.block(i, i, tn, tn), d_.sub(i, tn), e_.sub(i, tn - 1),
                    tau_.sub(i, tn - 1));
    }

    // Commit the tail reflectors' checksums, then verify + correct the
    // Householder storage once.
    {
      const obs::TimedSpan q_span = ladder_.q_phase("q_checksum");
      qp_.commit(qp_.compute_panel(MatrixView<const double>(a_), i, tn - 1));
    }
    {
      const obs::TimedSpan q_span = ladder_.q_phase("q_verify");
      ladder_.verify_q(qp_, a_);
    }

    // Single source of truth: extract d and e from the (possibly repaired)
    // host matrix.
    for (index_t r = 0; r < n_; ++r) d_[r] = a_(r, r);
    for (index_t r = 0; r + 1 < n_; ++r) e_[r] = a_(r + 1, r);
  }

  hybrid::Stream& s_;
  MatrixView<double> a_;
  VectorView<double> d_;
  VectorView<double> e_;
  VectorView<double> tau_;
  const FtSytrdOptions& opt_;
  fault::Injector* inj_;
  FtReport& rep_;
  hybrid::HybridGehrdStats& st_;

  index_t n_;

  hybrid::DeviceMatrix<double> d_a_;
  hybrid::DeviceMatrix<double> d_v_;
  hybrid::DeviceMatrix<double> d_w_;
  hybrid::DeviceMatrix<double> d_chk1_;  ///< plain code A·e
  hybrid::DeviceMatrix<double> d_chk2_;  ///< weighted code A·ω
  hybrid::DeviceMatrix<double> d_wvec_;
  hybrid::DeviceMatrix<double> d_sums_;
  hybrid::DeviceMatrix<double> d_pc_;
  hybrid::DeviceMatrix<double> d_fresh_;

  Matrix<double> w_host_;
  Matrix<double> v_host_;
  Matrix<double> ckpt_;
  Matrix<double> ckpt_chk1_;
  Matrix<double> ckpt_chk2_;
  // Re-encode staging segment, hoisted out of the update loop: the async
  // h2d that reads it stays in flight past the loop bottom and is retired
  // by detect()'s synchronous fetch before the next refill.
  Matrix<double> seg_;
  QProtector qp_;
  QProtector::PanelChecksums pending_q_;

  double threshold_;
  double scale_max_;
  RecoveryLadder ladder_;
  fault::FaultPlane* plane_;  ///< optional in-flight fault plane (not owned)
  DualSum panel_seal_;  ///< integrity sums of the panel checkpoint, at save
  DualSum chk_seal_;    ///< integrity sums of both checksum-vector checkpoints, at save
};

}  // namespace

void ft_sytrd(hybrid::Device& dev, MatrixView<double> a, VectorView<double> d,
              VectorView<double> e, VectorView<double> tau, const FtSytrdOptions& opt,
              fault::Injector* injector, FtReport* report,
              hybrid::HybridGehrdStats* stats) {
  const index_t n = a.rows();
  FTH_CHECK(a.cols() == n, "ft_sytrd: matrix must be square");
  FTH_CHECK(d.size() >= n, "ft_sytrd: d too short");
  FTH_CHECK(e.size() >= std::max<index_t>(n - 1, 0) &&
                tau.size() >= std::max<index_t>(n - 1, 0),
            "ft_sytrd: e/tau too short");
  FTH_CHECK(opt.nb >= 1 && opt.detect_every >= 1, "ft_sytrd: bad options");

  hybrid::RunFrame frame(dev, "ft", "sytrd", n, stats);
  FtReport local_rep;
  FtReport& rep = report != nullptr ? *report : local_rep;
  rep = {};
  const FroMax<double> norms = norm_fro_max(MatrixView<const double>(a));
  if (ft_blocked_panel(n, 0, opt.nb)) {
    FtSytrdDriver driver(dev, a, d, e, tau, opt, injector, rep, frame.st(), norms);
    driver.run();
  } else {
    // No blocked iteration: the host reduction alone, as in hybrid_sytrd.
    // The report still names the threshold a blocked run would apply.
    rep.threshold = sytrd_threshold(norms.fro, n, opt);
    const obs::TimedSpan finish("hybrid", "finish", frame.st().finish_seconds, "col", 0.0);
    lapack::sytd2(a, d, e, tau);
  }
}

}  // namespace fth::ft
