#include "ft/ft_gebrd.hpp"

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
#include "la/norms.hpp"
#include "obs/trace.hpp"
#include "lapack/gebrd.hpp"
#include "lapack/gebrd_impl.hpp"

namespace fth::ft {
namespace {

using hybrid::copy_d2h;
using hybrid::copy_d2h_async;
using hybrid::copy_h2d;
using hybrid::copy_h2d_async;

constexpr Wording kWording{"ft_gebrd", "gap", /*counts_nonfinite=*/false};

/// Per-line detection tolerance: the caller's as given, or 50× the gehrd
/// default with its n factor divided back out.
double gebrd_threshold(double fro_norm, index_t n, const FtGebrdOptions& opt) {
  return opt.threshold > 0 ? opt.threshold
                           : 50.0 * default_threshold(fro_norm, n) /
                                 static_cast<double>(std::max<index_t>(n, 1));
}

class FtGebrdDriver {
 public:
  FtGebrdDriver(hybrid::Device& dev, MatrixView<double> a, VectorView<double> d,
                VectorView<double> e, VectorView<double> tauq, VectorView<double> taup,
                const FtGebrdOptions& opt, fault::Injector* inj, FtReport& rep,
                hybrid::HybridGehrdStats& st, FroMax<double> norms)
      : s_(dev.stream()),
        a_(a),
        d_(d),
        e_(e),
        tauq_(tauq),
        taup_(taup),
        opt_(opt),
        inj_(inj),
        rep_(rep),
        st_(st),
        n_(a.rows()),
        d_a_(dev, n_, n_, "gebrd.ft.d_a"),
        d_v2_(dev, n_, std::max<index_t>(opt.nb, 1), "gebrd.ft.d_v2"),
        d_y2_(dev, n_, std::max<index_t>(opt.nb, 1), "gebrd.ft.d_y2"),
        d_x2_(dev, n_, std::max<index_t>(opt.nb, 1), "gebrd.ft.d_x2"),
        d_u2_(dev, std::max<index_t>(opt.nb, 1), n_, "gebrd.ft.d_u2"),
        d_chk1_(dev, n_, 1, "gebrd.ft.d_chkc"),
        d_chk2_(dev, n_, 1, "gebrd.ft.d_chkr"),
        d_vec_(dev, n_, 1, "gebrd.ft.d_vec"),
        d_res_(dev, n_, 1, "gebrd.ft.d_res"),
        d_sums_(dev, 4 * std::max<index_t>(opt.nb, 1) + 2 * n_, 1, "gebrd.ft.d_sums"),
        d_fresh_(dev, n_, 2, "gebrd.ft.d_fresh"),
        x_host_(n_, std::max<index_t>(opt.nb, 1)),
        y_host_(n_, std::max<index_t>(opt.nb, 1)),
        u_host_(n_, 1),
        sums_(4 * std::max<index_t>(opt.nb, 1) + 2 * n_, 1),
        // The column and row panels, then both codes.
        ckpt_({{n_, std::max<index_t>(opt.nb, 1), 1.0, static_cast<double>(n_)},
               {std::max<index_t>(opt.nb, 1), n_, static_cast<double>(n_ + 7),
                static_cast<double>(n_ + 7)}},
              {{n_, 1, 1.0, 0.0}, {n_, 1, static_cast<double>(n_ + 1), 0.0}}),
        seg_(std::max<index_t>(opt.nb, 1), 2),
        qp_v_(n_, /*row_offset=*/1),
        qp_u_(n_, /*row_offset=*/2, QProtector::Storage::Rows),
        line_tol_(gebrd_threshold(norms.fro, n_, opt)),
        scale_max_(norms.max),
        ladder_(kWording, rep, opt.fault_plane, opt.max_retries, line_tol_,
                ft_total_boundaries(n_, opt.nb)),
        plane_(opt.fault_plane) {
    if (plane_ != nullptr) plane_->bind(dev);
  }

  ~FtGebrdDriver() { release_plane(); }

 private:
#include "ft/recovery_loop.inc"
#include "ft/two_code.inc"
#include "ft/checkpoint.inc"
#include "ft/locate_repair.inc"

  // A general matrix: the whole trailing block is live.
  static constexpr fault::SurfaceShape kTrailingShape = fault::SurfaceShape::Full;

  void commit_q() {
    qp_v_.commit(pending_v_);
    qp_u_.commit(pending_u_);
  }
  DMatrixView<double> device_matrix() { return d_a_.view(); }

  // The host takes both codes from its own copy of A, in one pass, while
  // the device takes the upload; then the codes go up.
  void encode() {
    const obs::TimedSpan span("ft", "encode", rep_.encode_seconds, "n",
                              static_cast<double>(n_));
    copy_h2d_async(s_, MatrixView<const double>(a_), d_a_.view());
    Matrix<double> codes(n_, 2);
    fresh_line_sums(MatrixView<const double>(a_), LineShape::full(), codes.view().col(0),
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

  // Returns false if a panel tripwire abandoned the iteration before any
  // update touched the trailing matrix (caller rolls back and redoes).
  bool run_iteration(index_t i, index_t ib) {
    const index_t tn = n_ - i - ib;
    aim_plane(i, ib);

    // Column panel, row panel, and both checksum vectors to the host;
    // checkpoint all four (diskless checkpointing). The rest of the save
    // runs in the first column product's window, before the first row fold
    // rewrites row i.
    save_checkpoint(i, ib);

    bool poisoned = false;
    {
      const obs::TimedSpan panel("hybrid", "panel", st_.panel_seconds, "col",
                                 static_cast<double>(i));
      try {
        lapack::detail::labrd_panel(
            a_, i, ib, d_.sub(i, ib), e_.sub(i, ib), tauq_.sub(i, ib), taup_.sub(i, ib),
            x_host_.view(), y_host_.view(),
            [&](index_t j, VectorView<const double> v, VectorView<double> ycol) {
              const index_t cj = i + j;
              const index_t mlen = n_ - cj;
              const index_t nlen = n_ - cj - 1;
              copy_h2d_async(s_, MatrixView<const double>(v.data(), mlen, 1, mlen),
                             d_vec_.block(0, 0, mlen, 1));
              hybrid::gemv_async(s_, Trans::Yes, 1.0, d_a_.block(cj, cj + 1, mlen, nlen),
                                 d_vec_.view().col(0).sub(0, mlen), 0.0,
                                 d_res_.view().col(0).sub(0, nlen));
              copy_d2h_async(s_, d_res_.block(0, 0, nlen, 1),
                             MatrixView<double>(ycol.data(), nlen, 1, nlen));
              if (j == 0) seal_checkpoint(i, ib);
              return [this, ycol, first = j == 0] {
                s_.synchronize();
                if (first) expose_checkpoint();
                // Tripwire: a non-finite product means a NaN/Inf strike
                // reached the trailing matrix mid-panel.
                throw_if_poisoned(ycol);
              };
            },
            [&](index_t j, VectorView<const double> u, VectorView<double> xcol) {
              const index_t cj = i + j;
              const index_t nlen = n_ - cj - 1;
              // u is a strided row view; stage it densely in u_host_, which
              // outlives the upload (only the waiter retires it).
              for (index_t r = 0; r < nlen; ++r) u_host_(r, 0) = u[r];
              copy_h2d_async(s_, MatrixView<const double>(u_host_.block(0, 0, nlen, 1)),
                             d_vec_.block(0, 0, nlen, 1));
              hybrid::gemv_async(s_, Trans::No, 1.0, d_a_.block(cj + 1, cj + 1, nlen, nlen),
                                 d_vec_.view().col(0).sub(0, nlen), 0.0,
                                 d_res_.view().col(0).sub(0, nlen));
              copy_d2h_async(s_, d_res_.block(0, 0, nlen, 1),
                             MatrixView<double>(xcol.data(), nlen, 1, nlen));
              return [this, xcol] {
                s_.synchronize();
                throw_if_poisoned(xcol);
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
      // Ship the four trailing-update operands.
      copy_h2d_async(s_, MatrixView<const double>(a_.block(i + ib, i, tn, ib)),
                     d_v2_.block(0, 0, tn, ib));
      copy_h2d_async(s_, MatrixView<const double>(y_host_.block(i + ib, 0, tn, ib)),
                     d_y2_.block(0, 0, tn, ib));
      copy_h2d_async(s_, MatrixView<const double>(x_host_.block(i + ib, 0, tn, ib)),
                     d_x2_.block(0, 0, tn, ib));
      copy_h2d_async(s_, MatrixView<const double>(a_.block(i, i + ib, ib, tn)),
                     d_u2_.block(0, 0, ib, tn));
      // The U2 transfer must observe the panel's unit entries; the host may
      // only restore the pivots after it completed (see the wait below).
      const hybrid::Event operands_shipped = s_.record();

      auto v2 = d_v2_.block(0, 0, tn, ib);
      auto y2 = d_y2_.block(0, 0, tn, ib);
      auto x2 = d_x2_.block(0, 0, tn, ib);
      auto u2 = d_u2_.block(0, 0, ib, tn);

      // Trailing update: A −= V2·Y2ᵀ + X2·U2 — the right (Q-side) and left
      // (P-side) halves.
      hybrid::gemm_async(s_, Trans::No, Trans::Yes, -1.0, v2, y2, 1.0,
                         d_a_.block(i + ib, i + ib, tn, tn));
      hybrid::gemm_async(s_, Trans::No, Trans::No, -1.0, x2, u2, 1.0,
                         d_a_.block(i + ib, i + ib, tn, tn));
      // The window between the data update and the code update below is
      // the between-updates window of the fault plane.
      if (plane_ != nullptr) plane_->on_between_updates(s_);

      // Maintained checksums, trailing segments:
      //   Δchk_col = −pc_cols − V2·(Y2ᵀe) − X2·(U2·e)
      //   Δchk_row = −pc_rows − Y2·(V2ᵀe) − U2ᵀ·(X2ᵀe)
      // While the device runs the GEMMs, the host takes the aggregate sums
      // Y2ᵀe, U2·e, V2ᵀe and X2ᵀe from the copies it just shipped (U2 with
      // the panel's unit entries, before the pivots go back); the old panel
      // sums pc were taken from the sealed checkpoint (seal_checkpoint).
      const index_t len = 4 * ib + 2 * tn;
      gebrd_operand_sums(MatrixView<const double>(y_host_.block(i + ib, 0, tn, ib)),
                         MatrixView<const double>(a_.block(i, i + ib, ib, tn)),
                         MatrixView<const double>(a_.block(i + ib, i, tn, ib)),
                         MatrixView<const double>(x_host_.block(i + ib, 0, tn, ib)),
                         sums_.view().col(0).sub(0, len));

      // Pivots back in place once U2 is shipped, then the finished panel
      // rows/columns of the checksums, re-encoded from the final bidiagonal
      // data.
      operands_shipped.wait();
      for (index_t j = 0; j < ib; ++j) {
        a_(i + j, i + j) = d_[i + j];
        a_(i + j, i + j + 1) = e_[i + j];
      }
      for (index_t j = 0; j < ib; ++j) {
        const index_t r = i + j;
        seg_(j, 0) = a_(r, r) + a_(r, r + 1);                      // row sum of B row r
        seg_(j, 1) = a_(r, r) + (r > 0 ? a_(r - 1, r) : 0.0);      // col sum of B col r
      }
      // The sums and the re-encoded lines go up; one task then updates the
      // trailing segments and accounts the new coupling entry
      // e_last = B(i+ib−1, i+ib) in the trailing column i+ib.
      copy_h2d_async(s_, sums_.cview().block(0, 0, len, 1), d_sums_.block(0, 0, len, 1));
      copy_h2d_async(s_, seg_.block(0, 0, ib, 1), d_chk1_.block(i, 0, ib, 1));
      copy_h2d_async(s_, seg_.block(0, 1, ib, 1), d_chk2_.block(i, 0, ib, 1));
      auto sums = d_sums_.view().col(0).sub(0, len);
      auto chkc_tail = d_chk1_.view().col(0).sub(i + ib, tn);
      auto chkr_tail = d_chk2_.view().col(0).sub(i + ib, tn);
      const double e_last = e_[i + ib - 1];
      s_.enqueue("ft.code_update",
                 FTH_TASK_EFFECTS(FTH_READS(v2, y2, x2, u2, sums)
                                      FTH_WRITES(chkc_tail, chkr_tail)),
                 [v2, y2, x2, u2, sums, chkc_tail, chkr_tail, e_last] {
        const VectorView<double> cr = chkr_tail.in_task();
        gebrd_code_update(v2.in_task(), y2.in_task(), x2.in_task(), u2.in_task(),
                          sums.in_task(), chkc_tail.in_task(), cr);
        cr[0] += e_last;
      });

      // Host work overlapped with the device GEMMs: the
      // Householder-protection panel sums of both families.
      {
        const obs::TimedSpan q_span = ladder_.q_phase("q_checksum");
        pending_v_ = qp_v_.compute_panel(MatrixView<const double>(a_), i, ib);
        pending_u_ = qp_u_.compute_panel(MatrixView<const double>(a_), i, ib);
      }
      // No loop-bottom synchronize: the sums_ and seg_ uploads and the code
      // update stay in flight and are retired by detect()'s synchronous
      // fetch (or the next checkpoint fetch) before the host refills either
      // (fth_analyze --perf flagged the old barrier as coarse-synchronize).
    }
    return true;
  }

  /// The deferred half of the checkpoint save, run in the first column
  /// product's window before the first row fold; then the old panels' code
  /// sums (the column panel's trailing rows, the row panel's columns) are
  /// taken from the sealed copies, which no strike can reach before
  /// expose_checkpoint().
  void seal_checkpoint(index_t i, index_t ib) {
    ckpt_.seal(ladder_, i);
    const index_t tn = n_ - i - ib;
    gebrd_panel_sums(MatrixView<const double>(ckpt_.data(0).block(ib, 0, tn, ib)),
                     MatrixView<const double>(ckpt_.data(1)),
                     sums_.view().col(0).sub(0, 4 * ib + 2 * tn));
  }

  /// checkpoint.inc hook: the column and row panels, on the device and in
  /// a_, and both codes. Column panel rows ≥ i only: the rows above hold
  /// finished host data (P's Householder storage and the superdiagonal)
  /// whose device copy is stale by design.
  CheckpointBlocks checkpoint_blocks(index_t i, index_t ib) {
    const index_t tn = n_ - i - ib;
    return {{d_a_.block(i, i, n_ - i, ib), d_a_.block(i, i + ib, ib, tn)},
            {a_.block(i, i, n_ - i, ib), a_.block(i, i + ib, ib, tn)},
            {d_chk1_.view(), d_chk2_.view()}};
  }

  // -- line_sums() hooks: row sums (col == false) or column sums. ----------
  /// Finished row/column r: bidiagonal entries from the host matrix.
  double finished_sum(index_t r, bool col) const {
    return col ? a_(r, r) + (r > 0 ? a_(r - 1, r) : 0.0)
               : a_(r, r) + (r + 1 < n_ ? a_(r, r + 1) : 0.0);
  }

  /// Row sums and, when `cols`, column sums of the trailing block in one
  /// pass (each line keeps its order with either output).
  void fresh_products(index_t i2, index_t tn, bool cols) {
    sum_lines_async(s_, d_a_.block(i2, i2, tn, tn), LineShape::full(),
                    d_fresh_.view().col(0).sub(0, tn),
                    cols ? d_fresh_.view().col(1).sub(0, tn) : DVectorView<double>());
  }

  /// The superdiagonal entry B(i2−1, i2) belongs to trailing column i2 but
  /// lives in a finished row.
  void add_coupling(double& sum, index_t i2, bool col) const {
    if (col) sum += a_(i2 - 1, i2);
  }

  /// Detection is the full two-code comparison itself. The reported gap is
  /// the worst finite line gap, NaN once any delta is non-finite.
  Detection detect(index_t i2) {
    const obs::TimedSpan timed("ft", "detect", rep_.detect_seconds);
    const LineSums s = line_sums(i2);
    const Discrepancy d = compare_checksums(s.fresh, s.row_code, s.col_code, line_tol_);
    double worst = 0.0;
    for (std::size_t r = 0; r < s.row_code.size(); ++r) {
      const double row_gap = s.fresh.row[r] - s.row_code[r];
      const double col_gap = s.fresh.col[r] - s.col_code[r];
      for (const double delta : {row_gap, col_gap})
        if (std::isfinite(delta)) worst = std::max(worst, std::abs(delta));
    }
    return {d.nonfinite > 0 ? std::numeric_limits<double>::quiet_NaN() : worst, d.clean(),
            d.nonfinite};
  }

  void rollback(index_t i, index_t ib, bool completed) {
    const index_t tn = n_ - i - ib;
    if (completed) {
      // Reverse the two trailing GEMMs exactly (retained operands). A
      // poisoned panel never applied them.
      hybrid::gemm_async(s_, Trans::No, Trans::Yes, 1.0, d_v2_.block(0, 0, tn, ib),
                         d_y2_.block(0, 0, tn, ib), 1.0,
                         d_a_.block(i + ib, i + ib, tn, tn));
      hybrid::gemm_async(s_, Trans::No, Trans::No, 1.0, d_x2_.block(0, 0, tn, ib),
                         d_u2_.block(0, 0, ib, tn), 1.0,
                         d_a_.block(i + ib, i + ib, tn, tn));
    }
    // Drain before touching the checkpoints from the host: in-flight faults
    // fire on the worker thread and may target the checkpoint buffers.
    // Recovery cold path, not worth an Event edge. fth-perf: expect coarse-synchronize
    s_.synchronize();
    restore_checkpoint(i, completed, /*codes=*/true);
  }

  // -- locate_repair.inc hooks (Section IV-F). -----------------------------
  LocateResult match(const LineSums& s) const { return locate(s, line_tol_); }

  // Finished rows hold P's Householder storage; finished columns hold Q's;
  // the bidiagonal band itself is host data too. Nothing to fold.
  static bool place_fault(index_t& row, index_t& col, index_t i_next) {
    return row >= i_next && col >= i_next;
  }

  // The blocked loop stopped at the crossover `i`: the trailing block
  // A(i:n, i:n) is still on the device. It comes down first (a sweep that
  // repairs the device copy fetches it again) and is reduced on the host,
  // as hybrid_gebrd does: no device update is left to protect.
  void final_phase(index_t i) {
    const index_t tn = n_ - i;
    copy_d2h(s_, d_a_.block(i, i, tn, tn), a_.block(i, i, tn, tn));
    if (opt_.final_sweep && sweep(i))
      copy_d2h(s_, d_a_.block(i, i, tn, tn), a_.block(i, i, tn, tn));

    {
      const obs::TimedSpan finish("hybrid", "finish", st_.finish_seconds, "col",
                                  static_cast<double>(i));
      lapack::gebd2(a_.block(i, i, tn, tn), d_.sub(i, tn), e_.sub(i, tn - 1), tauq_.sub(i, tn),
                    taup_.sub(i, tn - 1));
    }

    // Both families are checksummed and verified where they live: Q's
    // vectors down the columns, P's along the rows.
    {
      const obs::TimedSpan q_span = ladder_.q_phase("q_checksum");
      pending_v_ = qp_v_.compute_panel(MatrixView<const double>(a_), i, tn - 1);
      pending_u_ = qp_u_.compute_panel(MatrixView<const double>(a_), i, tn - 1);
      commit_q();
    }
    {
      const obs::TimedSpan q_span = ladder_.q_phase("q_verify");
      ladder_.verify_q(qp_v_, a_);
      ladder_.verify_q(qp_u_, a_);
    }

    // Single source of truth: extract d and e from the host matrix.
    for (index_t r = 0; r < n_; ++r) d_[r] = a_(r, r);
    for (index_t r = 0; r + 1 < n_; ++r) e_[r] = a_(r, r + 1);
  }

  hybrid::Stream& s_;
  MatrixView<double> a_;
  VectorView<double> d_;
  VectorView<double> e_;
  VectorView<double> tauq_;
  VectorView<double> taup_;
  const FtGebrdOptions& opt_;
  fault::Injector* inj_;
  FtReport& rep_;
  hybrid::HybridGehrdStats& st_;

  index_t n_;

  hybrid::DeviceMatrix<double> d_a_;
  hybrid::DeviceMatrix<double> d_v2_;
  hybrid::DeviceMatrix<double> d_y2_;
  hybrid::DeviceMatrix<double> d_x2_;
  hybrid::DeviceMatrix<double> d_u2_;
  hybrid::DeviceMatrix<double> d_chk1_;  ///< checksum column (row sums)
  hybrid::DeviceMatrix<double> d_chk2_;  ///< checksum row (column sums)
  hybrid::DeviceMatrix<double> d_vec_;
  hybrid::DeviceMatrix<double> d_res_;
  hybrid::DeviceMatrix<double> d_sums_;  ///< sums_ on the device
  hybrid::DeviceMatrix<double> d_fresh_;

  Matrix<double> x_host_;
  Matrix<double> y_host_;
  // Dense staging of the panel's strided row u: its upload is retired only
  // by the column's waiter, after the provider returned (DESIGN.md §7).
  Matrix<double> u_host_;
  // One iteration's code sums, packed for one upload: Y2ᵀe, U2·e, V2ᵀe,
  // X2ᵀe (ib each), then the old column panel's trailing row sums and the
  // old row panel's column sums (tn each). Retired like seg_ before the
  // next refill.
  Matrix<double> sums_;
  Checkpoint ckpt_;
  // Re-encode staging segment, hoisted out of the update loop: the async
  // h2d that reads it stays in flight past the loop bottom and is retired
  // by detect()'s synchronous fetch before the next refill.
  Matrix<double> seg_;
  QProtector qp_v_;
  QProtector qp_u_;
  QProtector::PanelChecksums pending_v_;
  QProtector::PanelChecksums pending_u_;

  double line_tol_;  ///< per-line detection and location tolerance
  double scale_max_;
  RecoveryLadder ladder_;
  fault::FaultPlane* plane_;  ///< optional in-flight fault plane (not owned)
};

}  // namespace

void ft_gebrd(hybrid::Device& dev, MatrixView<double> a, VectorView<double> d,
              VectorView<double> e, VectorView<double> tauq, VectorView<double> taup,
              const FtGebrdOptions& opt, fault::Injector* injector, FtReport* report,
              hybrid::HybridGehrdStats* stats) {
  const index_t n = a.rows();
  FTH_CHECK(a.cols() == n, "ft_gebrd: matrix must be square");
  FTH_CHECK(d.size() >= n && tauq.size() >= n, "ft_gebrd: d/tauq too short");
  FTH_CHECK(e.size() >= std::max<index_t>(n - 1, 0) &&
                taup.size() >= std::max<index_t>(n - 1, 0),
            "ft_gebrd: e/taup too short");
  FTH_CHECK(opt.nb >= 1 && opt.detect_every >= 1, "ft_gebrd: bad options");

  hybrid::RunFrame frame(dev, "ft", "gebrd", n, stats);
  const FroMax<double> norms = finite_input_norms(MatrixView<const double>(a), "ft_gebrd");
  FtReport local_rep;
  FtReport& rep = report != nullptr ? *report : local_rep;
  rep = {};
  if (ft_blocked_panel(n, 0, opt.nb)) {
    FtGebrdDriver driver(dev, a, d, e, tauq, taup, opt, injector, rep, frame.st(),
                         norms);
    driver.run();
  } else {
    // No blocked iteration: the host reduction alone, as in hybrid_gebrd.
    // The report still names the threshold a blocked run would apply.
    rep.threshold = gebrd_threshold(norms.fro, n, opt);
    const obs::TimedSpan finish("hybrid", "finish", frame.st().finish_seconds, "col", 0.0);
    lapack::gebd2(a, d, e, tauq, taup);
  }
}

}  // namespace fth::ft
