// One recovery ladder for the two-sided FT drivers (ft_gehrd, ft_sytrd,
// ft_gebrd).
//
// Algorithm 3 of the paper is one protocol — detect, reverse, restore the
// checkpoint, locate, correct, re-execute — and all three drivers run it.
// This layer owns every part of it that does not touch the stream, so the
// drivers fill FtReport alike: the per-check bookkeeping, the retry bound,
// FtEvent accounting, the structured abandon path, the rollback and
// re-execution brackets, the diskless checkpoint's host copies and seals,
// the final-sweep bookkeeping, the Q verification and the Clean/Recovered
// classification.
//
// The stream side of the protocol — the ensure_clean() loop, run(), the
// two-code helpers, the checkpoint's transfers and location/repair — is
// shared through the .inc fragments included inside the driver classes
// (recovery_loop.inc, two_code.inc, checkpoint.inc, locate_repair.inc),
// which fth_analyze expands like the preprocessor. Never move a loop or
// any enqueue/copy/synchronize behind this header: the analyzer splices
// only TU-local calls, so it would drop out of the static race proof
// (DESIGN.md §15).
#pragma once

#include <array>
#include <initializer_list>
#include <limits>

#include "common/timer.hpp"
#include "fault/fault_plane.hpp"
#include "ft/ft_gehrd.hpp"  // FtReport / FtEvent
#include "la/matrix.hpp"
#include "obs/trace.hpp"

namespace fth::ft {

/// Thrown by a panel tripwire when a device-assisted product comes back
/// non-finite: applying the reflectors would smear NaN/Inf across the whole
/// trailing matrix, so the panel is abandoned before any update.
struct PanelPoisoned {};

/// The panel tripwire: throws PanelPoisoned when the device-assisted
/// product `x` holds a NaN or an Inf (count_nonfinite, no early exit).
void throw_if_poisoned(VectorView<const double> x);

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

/// Plain + position-weighted integrity sums of a checkpoint block, compared
/// bitwise at restore time: any corruption of the host buffers between save
/// and restore — a sign or exponent flip, a NaN or an Inf — flips at least
/// one of them. A seal only ever meets a re-seal of the same block, so its
/// summation order is its own: eight lanes of accumulators per block, joined
/// in a fixed order.
struct DualSum {
  double plain = 0.0;
  double weighted = 0.0;
  /// Adds block `m`, whose element (r, j) weighs base + r + (j+1)·stride.
  /// With a non-empty `to`, first copies `m` there, all but the first
  /// `stored` columns (saved earlier), and adds the stored copy: a
  /// checkpoint saved and sealed in one pass.
  void add_block(MatrixView<const double> m, double base, double stride,
                 MatrixView<double> to = {}, index_t stored = 0);
  [[nodiscard]] bool same_bits(const DualSum& o) const;
};

/// The re-execution bracket: the "reexec" span inside the fault plane's
/// recovery scope. Books the whole episode's time on close.
class Redo {
 public:
  Redo(fault::FaultPlane* plane, index_t col, double& seconds, WallTimer since)
      : span_("ft", "reexec", "col", static_cast<double>(col)),
        scope_(plane),
        seconds_(seconds),
        since_(since) {}
  ~Redo() { seconds_ += since_.seconds(); }
  Redo(const Redo&) = delete;
  Redo& operator=(const Redo&) = delete;

 private:
  obs::TraceSpan span_;
  RecoveryScope scope_;
  double& seconds_;
  WallTimer since_;
};

class QProtector;
class RecoveryLadder;

/// One recovery episode at one boundary: opened by a dirty check, its
/// FtEvent filled by the algorithm's locate/correct, closed by the redo.
class Episode {
 public:
  FtEvent& event() { return ev_; }
  /// Counts and logs the rollback and brackets the algorithm's
  /// reverse/restore.
  [[nodiscard]] obs::TraceSpan rollback_phase(index_t col);
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

  /// The final-sweep bracket, booked as detection time.
  [[nodiscard]] obs::TimedSpan final_sweep();
  [[noreturn]] void abandon_final_sweep(const char* what);
  void swept(const FtEvent& ev);

  [[nodiscard]] obs::TimedSpan q_phase(const char* name) { return {"ft", name, rep_.q_seconds}; }
  /// Section IV-E's one verification of the Householder storage `a` that
  /// `qp` protects: corrects it in place (a second pass follows one that
  /// rebuilt a non-finite entry), books the corrections and returns their
  /// number. A pattern the Q codes cannot repair aborts the run like
  /// the data codes' — NonfiniteDamage when a Q delta was non-finite,
  /// AmbiguousPattern otherwise.
  int verify_q(const QProtector& qp, MatrixView<double> a);

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

/// Where one iteration's checkpoint blocks live (checkpoint.inc's
/// checkpoint_blocks hook): one or two data blocks, on the device and in
/// host memory, and one or two code pre-images on the device.
struct CheckpointBlocks {
  std::array<DMatrixView<double>, 2> device;
  std::array<MatrixView<double>, 2> host;
  std::array<DMatrixView<double>, 2> codes;
};

/// The diskless checkpoint of Algorithm 3, line 4: host copies of the data
/// blocks an iteration factors and of the code pre-images it re-encodes.
/// The copies are fault targets too, so the data and the codes each carry
/// a DualSum seal, checked bitwise before a restore. They are sealed apart:
/// an undetected fault saved into the data may legitimately disagree with
/// the maintained codes (that disagreement locates it after the rollback),
/// and one seal over both would re-derive pristine codes from the faulty
/// data. checkpoint.inc moves the blocks.
class Checkpoint {
 public:
  /// A block's largest shape and its DualSum weights.
  struct Block {
    index_t rows;
    index_t cols;
    double base;
    double stride;
  };
  /// Allocates the data copies, the code copies, then the codes' raw
  /// readback (side by side), in that order.
  Checkpoint(std::initializer_list<Block> data, std::initializer_list<Block> codes);

  /// This iteration's blocks; each copy below takes its block's shape.
  CheckpointBlocks at;
  [[nodiscard]] index_t data_blocks() const { return n_data_; }
  [[nodiscard]] index_t code_blocks() const { return n_codes_; }
  [[nodiscard]] MatrixView<double> data(index_t k) {
    return data_[k].m.block(0, 0, at.host[k].rows(), at.host[k].cols());
  }
  [[nodiscard]] MatrixView<double> code(index_t k) {
    return code_[k].m.block(0, 0, at.codes[k].rows(), at.codes[k].cols());
  }
  [[nodiscard]] MatrixView<double> readback() {
    return readback_.block(0, 0, at.codes[0].rows(), at.codes[0].cols() + at.codes[1].cols());
  }

  /// Stores data block 0's first column, which the first larfg rewrites.
  void store_first();
  /// The rest of the save, in panel column `col`'s first product window:
  /// copies and seals the data in one pass, then checks each code copy
  /// bitwise against the readback (its d2h is fault-eligible), books each
  /// mismatch it replaces as a re-derivation, and seals the codes.
  void seal(RecoveryLadder& ladder, index_t col);
  [[nodiscard]] bool data_intact() { return sums(false).same_bits(data_seal_); }
  [[nodiscard]] bool codes_intact() { return sums(true).same_bits(code_seal_); }
  void reseal_data() { data_seal_ = sums(false); }
  void reseal_codes() { code_seal_ = sums(true); }
  /// Copies the data back to its place in host memory.
  void restore();

 private:
  DualSum sums(bool codes);

  struct Copy {
    Matrix<double> m;
    double base = 0.0;
    double stride = 0.0;
  };

  index_t n_data_ = 0;
  index_t n_codes_ = 0;
  std::array<Copy, 2> data_;
  std::array<Copy, 2> code_;
  Matrix<double> readback_;
  DualSum data_seal_;
  DualSum code_seal_;
};

}  // namespace fth::ft
