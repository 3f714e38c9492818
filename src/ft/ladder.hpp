// One recovery ladder for the two-sided FT drivers (ft_gehrd, ft_sytrd,
// ft_gebrd).
//
// Algorithm 3 of the paper is one protocol — detect, reverse, restore the
// checkpoint, locate, correct, re-execute — and all three drivers run it.
// This layer owns every part of it that does not touch the stream, so the
// drivers fill FtReport alike: the per-check bookkeeping, the retry bound,
// FtEvent accounting, the structured abandon path, the rollback and
// re-execution brackets, the dual-sum checkpoint seal, the final-sweep and
// Q-verify bookkeeping, the Clean/Recovered classification and the ft_*
// entry frame.
//
// Each driver keeps its policy and its short run()/ensure_clean() loop in
// its own TU: fth_analyze splices only unqualified TU-local calls into a
// caller's timeline, so a loop or any enqueue/copy/synchronize moved behind
// this header would drop out of the static race proof (DESIGN.md §15).
#pragma once

#include <limits>

#include "common/timer.hpp"
#include "fault/fault_plane.hpp"
#include "ft/ft_gehrd.hpp"  // FtReport / FtEvent
#include "hybrid/hybrid_gehrd.hpp"
#include "la/matrix.hpp"
#include "obs/trace.hpp"

namespace fth::ft {

/// Thrown by a panel tripwire when a device-assisted product comes back
/// non-finite: applying the reflectors would smear NaN/Inf across the whole
/// trailing matrix, so the panel is abandoned before any update.
struct PanelPoisoned {};

/// RAII bracket telling the fault plane a recovery re-execution is active
/// (DuringRecovery faults only count triggers inside the bracket).
class RecoveryScope {
 public:
  explicit RecoveryScope(fault::FaultPlane* p) : p_(p) {
    if (p_ != nullptr) p_->set_in_recovery(true);
  }
  ~RecoveryScope() {
    if (p_ != nullptr) p_->set_in_recovery(false);
  }
  RecoveryScope(const RecoveryScope&) = delete;
  RecoveryScope& operator=(const RecoveryScope&) = delete;

 private:
  fault::FaultPlane* p_;
};

/// One end-of-iteration check, as the algorithm's detect() reports it.
struct Detection {
  double gap = 0.0;       ///< reported in events, journal and aborts; NaN when meaningless
  bool clean = true;      ///< the algorithm's verdict against its threshold
  index_t nonfinite = 0;  ///< non-finite entries (or deltas) the check saw
  /// The panel tripwire already proved the iteration unusable; there is
  /// nothing meaningful to measure, so the detection is synthesized.
  static Detection poisoned() { return {std::numeric_limits<double>::quiet_NaN(), false, 1}; }
};

/// A driver's name and the wording of its retries-exhausted detail:
/// "<gap_noun> G > threshold T[ with N non-finite entries] after exhausting
/// retries".
struct Wording {
  const char* who;
  const char* gap_noun;
  bool counts_nonfinite;
};

/// Plain + position-weighted integrity sums of a checkpoint, compared
/// bitwise at restore time: any corruption of the host buffers between save
/// and restore — including NaN, which is unequal to itself — flips at least
/// one of them.
struct DualSum {
  double plain = 0.0;
  double weighted = 0.0;
  /// Adds a column-major block whose element (r, j) weighs base + r + (j+1)·stride.
  void add_block(MatrixView<const double> m, double base, double stride);
  [[nodiscard]] bool same_bits(const DualSum& o) const;
};

/// Trace span that also books its wall time into one FtReport field.
class TimedSpan {
 public:
  TimedSpan(const char* name, double& seconds) : seconds_(seconds), span_("ft", name) {}
  ~TimedSpan() { seconds_ += timer_.seconds(); }
  TimedSpan(const TimedSpan&) = delete;
  TimedSpan& operator=(const TimedSpan&) = delete;

 private:
  double& seconds_;
  WallTimer timer_;
  obs::TraceSpan span_;
};

/// Trace bracket of one recovery phase. Its DAG mark makes recovery
/// episodes visible on the host chain, so fth_why can separate
/// rollback-induced stalls from steady-state pipeline waits.
class Phase {
 public:
  Phase(const char* mark, const char* name, index_t col);
  Phase(const Phase&) = delete;
  Phase& operator=(const Phase&) = delete;

 private:
  obs::TraceSpan span_;
};

/// The re-execution bracket: the "reexec" phase inside the fault plane's
/// recovery scope. Books the whole episode's time on close.
class Redo {
 public:
  Redo(fault::FaultPlane* plane, index_t col, double& seconds, WallTimer since)
      : phase_("ft.reexec", "reexec", col), scope_(plane), seconds_(seconds), since_(since) {}
  ~Redo() { seconds_ += since_.seconds(); }
  Redo(const Redo&) = delete;
  Redo& operator=(const Redo&) = delete;

 private:
  Phase phase_;
  RecoveryScope scope_;
  double& seconds_;
  WallTimer since_;
};

class RecoveryLadder;

/// One recovery episode at one boundary: opened by a dirty check, its
/// FtEvent filled by the algorithm's locate/correct, closed by the redo.
class Episode {
 public:
  FtEvent& event() { return ev_; }
  /// Counts the rollback and brackets the algorithm's reverse/restore.
  [[nodiscard]] Phase rollback_phase(index_t col);
  /// Location or correction gave up: the pattern exceeds the codes'
  /// correction capability. Records the event, then aborts.
  [[noreturn]] void abandon(bool nonfinite, const char* what);
  /// Folds the filled event into the report.
  void corrected();
  [[nodiscard]] Redo reexecute(index_t col);

 private:
  friend class RecoveryLadder;
  Episode(RecoveryLadder& ladder, index_t boundary, int attempt, double gap, bool poisoned);

  RecoveryLadder& ladder_;
  index_t boundary_;
  int attempt_;
  double gap_;
  WallTimer since_;
  FtEvent ev_;
};

/// The shared bookkeeping of one FT run, owned by the algorithm's driver.
class RecoveryLadder {
 public:
  RecoveryLadder(const Wording& wording, FtReport& rep, fault::FaultPlane* plane,
                 int max_retries, double threshold, index_t total_boundaries);

  [[nodiscard]] double threshold() const { return threshold_; }
  [[nodiscard]] index_t total_boundaries() const { return total_boundaries_; }

  /// Records a check; true when the boundary is clean.
  bool clean(const Detection& det);
  /// A dirty check on `attempt` (1-based): counts the detection and, past
  /// max_retries, aborts with RetriesExhausted.
  Episode detected(const Detection& det, index_t boundary, int attempt, bool poisoned);

  void panel_aborted(index_t col);
  void reconstructed();
  void rederived();
  /// Bitwise cross-check of a freshly saved checkpoint against a raw
  /// readback of the device's maintained data: each mismatching element is
  /// replaced and counted as a re-derivation.
  void repair_from(MatrixView<double> ckpt, MatrixView<const double> ref);

  /// The final-sweep bracket, booked as detection time.
  [[nodiscard]] TimedSpan final_sweep();
  [[noreturn]] void abandon_final_sweep(const char* what);
  void swept(const FtEvent& ev);

  [[nodiscard]] TimedSpan q_phase(const char* name) { return {name, rep_.q_seconds}; }
  void q_corrected(int corrections);
  /// Tolerance of the Section IV-E Householder-storage verification.
  [[nodiscard]] static double q_tolerance(index_t n, double scale_max);

  /// Clean means NOTHING fired: a run that survived only because a
  /// checkpoint was re-derived, a non-finite element reconstructed, or a
  /// poisoned panel abandoned was still a recovery.
  void finish();

 private:
  friend class Episode;
  void book_corrections(const FtEvent& ev);

  Wording wording_;
  FtReport& rep_;
  fault::FaultPlane* plane_;
  int max_retries_;
  double threshold_;
  index_t total_boundaries_;
};

/// The frame every ft_* entry point runs its driver in: the caller's
/// report and stats (or local ones) reset, the run's trace span, device
/// footprint scoping, and total time stamped by finish().
class DriverFrame {
 public:
  DriverFrame(hybrid::Device& dev, const char* name, index_t n, FtReport* report,
              hybrid::HybridGehrdStats* stats);
  FtReport& rep() { return rep_; }
  hybrid::HybridGehrdStats& st() { return st_; }
  void finish();

 private:
  FtReport local_rep_;
  hybrid::HybridGehrdStats local_st_;
  FtReport& rep_;
  hybrid::HybridGehrdStats& st_;
  obs::TraceSpan span_;
  WallTimer total_;
  hybrid::detail::StatsScope scope_;
};

}  // namespace fth::ft
