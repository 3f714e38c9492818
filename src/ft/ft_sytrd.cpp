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
        d_sums_(dev, 4 * std::max<index_t>(opt.nb, 1) + 2 * n_, 1, "sytrd.ft.d_sums"),
        d_fresh_(dev, n_, 2, "sytrd.ft.d_fresh"),
        w_host_(n_, std::max<index_t>(opt.nb, 1)),
        v_host_(n_, std::max<index_t>(opt.nb, 1)),
        omega_(n_, 1),
        sums_(4 * std::max<index_t>(opt.nb, 1) + 2 * n_, 1),
        // The panel, then both codes.
        ckpt_({{n_, std::max<index_t>(opt.nb, 1), 1.0, static_cast<double>(n_)}},
              {{n_, 1, 1.0, 0.0}, {n_, 1, static_cast<double>(n_ + 1), 0.0}}),
        seg_(std::max<index_t>(opt.nb, 1), 2),
        qp_(n_),
        threshold_(sytrd_threshold(norms.fro, n_, opt)),
        scale_max_(norms.max),
        ladder_(kWording, rep, opt.fault_plane, opt.max_retries, threshold_,
                ft_total_boundaries(n_, opt.nb)),
        plane_(opt.fault_plane) {
    if (plane_ != nullptr) plane_->bind(dev);
    for (index_t r = 0; r < n_; ++r) omega_(r, 0) = static_cast<double>(r + 1);
  }

  ~FtSytrdDriver() { release_plane(); }

 private:
#include "ft/recovery_loop.inc"
#include "ft/two_code.inc"
#include "ft/checkpoint.inc"
#include "ft/locate_repair.inc"

  // The strictly upper triangle of d_a_ is never read: a strike there is
  // dead storage.
  static constexpr fault::SurfaceShape kTrailingShape = fault::SurfaceShape::LowerTriangle;

  void commit_q() { qp_.commit(pending_q_); }
  DMatrixView<double> device_matrix() { return d_a_.view(); }

  // The host takes both codes from its own copy of A while the device
  // takes the upload; then the codes go up.
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
    Matrix<double> codes(n_, 2);
    sytrd_encode_codes(MatrixView<const double>(a_), omega_.cview().col(0), codes.view().col(0),
                       codes.view().col(1));
    copy_h2d_async(s_, codes.cview().block(0, 0, n_, 1), d_chk1_.view());
    copy_h2d_async(s_, codes.cview().block(0, 1, n_, 1), d_chk2_.view());
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
    save_checkpoint(i, ib);

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
              if (j == 0) seal_checkpoint(i, ib);
              return [this, w_col, first = j == 0] {
                s_.synchronize();
                if (first) expose_checkpoint();
                // Tripwire: a non-finite w means a NaN/Inf strike reached
                // the trailing matrix mid-panel. Abandon the panel before
                // any update smears it.
                throw_if_poisoned(w_col);
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

      // Trailing rank-2k (lower triangle) on the device.
      auto v2 = d_v_.block(ib - 1, 0, tn, ib);
      auto w2 = d_w_.block(ib - 1, 0, tn, ib);
      hybrid::syr2k_async(s_, Uplo::Lower, Trans::No, -1.0, v2, w2, 1.0,
                          d_a_.block(i + ib, i + ib, tn, tn));

      // The window between the data update and the code update below is
      // sytrd's analogue of gehrd's between-updates window.
      if (plane_ != nullptr) plane_->on_between_updates(s_);

      // --- Checksum maintenance --------------------------------------------
      // After this iteration the logical row sum of a trailing row r ≥ i+ib is
      //   old_sum(r) − (old panel-column entries of row r)        [zeroed]
      //              − (V2·W2ᵀ + W2·V2ᵀ)(r, :)·vec  over c ≥ i+ib [rank-2k]
      //              + e_last·vec(i+ib−1) for r == i+ib           [coupling]
      // and panel rows i..i+ib−1 become plain tridiagonal rows, re-encoded
      // from the finished host data (their pre-images are checkpointed).
      // While the device runs the rank-2k, the host takes the tail column
      // sums of V2/W2 against e and ω (paper line 6/7 analogues) from the
      // copies it just uploaded; the old panel's sums were taken from the
      // sealed checkpoint (seal_checkpoint).
      const index_t len = 4 * ib + 2 * tn;
      sytrd_operand_sums(MatrixView<const double>(v_host_.block(ib - 1, 0, tn, ib)),
                         MatrixView<const double>(w_host_.block(i + ib, 0, tn, ib)),
                         omega_.cview().col(0).sub(i + ib, tn),
                         sums_.view().col(0).sub(0, len));
      for (index_t j = 0; j < ib; ++j) {
        a_(i + j + 1, i + j) = e_[i + j];  // replace the panel's unit entries
      }
      // Re-encode the finished panel rows of both checksums from the final
      // tridiagonal data.
      for (index_t j = 0; j < ib; ++j) {
        const index_t r = i + j;
        const double dl = r > 0 ? a_(r, r - 1) : 0.0;
        const double dd = a_(r, r);
        const double du = a_(r + 1, r);  // superdiagonal by symmetry
        seg_(j, 0) = dl + dd + du;
        seg_(j, 1) = dl * static_cast<double>(r) + dd * static_cast<double>(r + 1) +
                     du * static_cast<double>(r + 2);
      }
      // The sums and the re-encoded rows go up; one task then updates the
      // trailing segments and adds the new coupling entry to row i+ib.
      copy_h2d_async(s_, sums_.cview().block(0, 0, len, 1), d_sums_.block(0, 0, len, 1));
      copy_h2d_async(s_, seg_.block(0, 0, ib, 1), d_chk1_.block(i, 0, ib, 1));
      copy_h2d_async(s_, seg_.block(0, 1, ib, 1), d_chk2_.block(i, 0, ib, 1));
      auto sums = d_sums_.view().col(0).sub(0, len);
      auto chke_tail = d_chk1_.view().col(0).sub(i + ib, tn);
      auto chkw_tail = d_chk2_.view().col(0).sub(i + ib, tn);
      const double e_last = e_[i + ib - 1];
      const auto w_last = static_cast<double>(i + ib);  // weight of col i+ib−1
      s_.enqueue("ft.code_update",
                 FTH_TASK_EFFECTS(FTH_READS(v2, w2, sums) FTH_WRITES(chke_tail, chkw_tail)),
                 [v2, w2, sums, chke_tail, chkw_tail, e_last, w_last] {
        const VectorView<double> ce = chke_tail.in_task();
        const VectorView<double> cw = chkw_tail.in_task();
        sytrd_code_update(v2.in_task(), w2.in_task(), sums.in_task(), ce, cw);
        ce[0] += e_last;
        cw[0] += e_last * w_last;
      });

      // Host work overlapped with the device update.
      {
        const obs::TimedSpan q_span = ladder_.q_phase("q_checksum");
        pending_q_ = qp_.compute_panel(MatrixView<const double>(a_), i, ib);
      }
      // No loop-bottom synchronize: the sums_ and seg_ uploads and the code
      // update stay in flight and are retired by detect()'s synchronous
      // fetch (or the next checkpoint fetch) before the host refills either
      // (fth_analyze --perf flagged the old barrier as coarse-synchronize).
    }
    return true;
  }

  /// The deferred half of the checkpoint save, run in the first column
  /// product's window before the second column's fold; then the old
  /// panel's code sums (its trailing rows against e and ω) are taken from
  /// the sealed copy, which no strike can reach before expose_checkpoint().
  void seal_checkpoint(index_t i, index_t ib) {
    ckpt_.seal(ladder_, i);
    const index_t tn = n_ - i - ib;
    sytrd_panel_sums(MatrixView<const double>(ckpt_.data(0).block(i + ib, 0, tn, ib)),
                     omega_.cview().col(0).sub(i, ib),
                     sums_.view().col(0).sub(0, 4 * ib + 2 * tn));
  }

  /// checkpoint.inc hook: the panel, on the device and in a_, and both
  /// codes.
  CheckpointBlocks checkpoint_blocks(index_t i, index_t ib) {
    return {{d_a_.block(0, i, n_, ib)}, {a_.block(0, i, n_, ib)},
            {d_chk1_.view(), d_chk2_.view()}};
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
  /// and, when `weighted`, against ω by a SYMV.
  void fresh_products(index_t i2, index_t tn, bool weighted) {
    auto trailing = d_a_.block(i2, i2, tn, tn);
    sum_lines_async(s_, trailing, LineShape::symmetric_lower(),
                    d_fresh_.view().col(0).sub(0, tn), {});
    if (weighted) {
      hybrid::symv_async(s_, Uplo::Lower, 1.0, trailing, d_wvec_.view().col(0).sub(i2, tn), 0.0,
                         d_fresh_.view().col(1).sub(0, tn));
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
    restore_checkpoint(i, completed, /*codes=*/true);
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
  hybrid::DeviceMatrix<double> d_sums_;  ///< sums_ on the device
  hybrid::DeviceMatrix<double> d_fresh_;

  Matrix<double> w_host_;
  Matrix<double> v_host_;
  Matrix<double> omega_;  ///< the weighted code's weights, ω_r = r + 1
  // One iteration's code sums, packed for one upload: V2ᵀe, W2ᵀe, V2ᵀω,
  // W2ᵀω (ib each), then the old panel's trailing rows against e and ω
  // (tn each). Retired like seg_ before the next refill.
  Matrix<double> sums_;
  Checkpoint ckpt_;
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
  const FroMax<double> norms = finite_input_norms(MatrixView<const double>(a), "ft_sytrd");
  FtReport local_rep;
  FtReport& rep = report != nullptr ? *report : local_rep;
  rep = {};
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
