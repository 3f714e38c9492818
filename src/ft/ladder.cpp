#include "ft/ladder.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>
#include <string>

#include "common/error.hpp"
#include "ft/checksum.hpp"
#include "ft/q_protect.hpp"
#include "ft/recovery.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"

namespace fth::ft {

index_t ft_total_boundaries(index_t n, index_t nb) {
  index_t count = 0;
  for (index_t i = 0; ft_blocked_panel(n, i, nb); i += std::min(nb, n - 1 - i)) ++count;
  return count;
}

namespace {

bool bits_equal(double a, double b) { return std::memcmp(&a, &b, sizeof(double)) == 0; }

constexpr int kSealLanes = 8;
using Lanes = double __attribute__((vector_size(kSealLanes * sizeof(double))));

/// One column into the eight lanes: element r goes to lane r mod 8 (the
/// tail to lane 0) and weighs w0 + r. Never inlined, so the seal at save
/// and every re-seal run the same instructions on the same bits.
[[gnu::noinline]] void seal_column(const double* col, index_t rows, double w0, Lanes& plain,
                                   Lanes& weighted) {
  Lanes p = plain;
  Lanes s = weighted;
  Lanes w;
  for (int k = 0; k < kSealLanes; ++k) w[k] = w0 + static_cast<double>(k);
  index_t r = 0;
  for (; r + kSealLanes <= rows; r += kSealLanes) {
    Lanes x;
    std::memcpy(&x, col + r, sizeof x);
    p += x;
    s += x * w;
    w += static_cast<double>(kSealLanes);
  }
  for (; r < rows; ++r) {
    p[0] += col[r];
    s[0] += col[r] * (w0 + static_cast<double>(r));
  }
  plain = p;
  weighted = s;
}

}  // namespace

void DualSum::add_block(MatrixView<const double> m, double base, double stride,
                        MatrixView<double> to, index_t stored) {
  Lanes p = {};
  Lanes s = {};
  for (index_t j = 0; j < m.cols(); ++j) {
    const double* col = m.data() + j * m.ld();
    if (to.cols() > 0) {
      double* copy = to.data() + j * to.ld();
      if (j >= stored) std::copy_n(col, m.rows(), copy);
      col = copy;
    }
    seal_column(col, m.rows(), base + static_cast<double>(j + 1) * stride, p, s);
  }
  double ps = 0.0;
  double ws = 0.0;
  for (int k = 0; k < kSealLanes; ++k) {
    ps += p[k];
    ws += s[k];
  }
  plain += ps;
  weighted += ws;
}

bool DualSum::same_bits(const DualSum& o) const {
  return bits_equal(plain, o.plain) && bits_equal(weighted, o.weighted);
}

// ---- the diskless checkpoint -------------------------------------------------

Checkpoint::Checkpoint(std::initializer_list<Block> data, std::initializer_list<Block> codes) {
  const auto one_or_two = [](std::size_t k) { return k == 1 || k == 2; };
  FTH_CHECK(one_or_two(data.size()) && one_or_two(codes.size()),
            "Checkpoint: one or two data blocks and one or two code blocks");
  for (const Block& b : data) data_[n_data_++] = {{b.rows, b.cols}, b.base, b.stride};
  index_t cols = 0;
  for (const Block& b : codes) {
    code_[n_codes_++] = {{b.rows, b.cols}, b.base, b.stride};
    cols += b.cols;
  }
  readback_ = Matrix<double>(codes.begin()->rows, cols);
}

void Checkpoint::store_first() {
  const index_t rows = at.host[0].rows();
  fth::copy<double>(at.host[0].block(0, 0, rows, 1), data(0).block(0, 0, rows, 1));
}

void Checkpoint::seal(RecoveryLadder& ladder, index_t col) {
  const obs::TraceSpan span("ft", "checkpoint_seal", "col", static_cast<double>(col));
  data_seal_ = {};
  for (index_t k = 0; k < n_data_; ++k)
    data_seal_.add_block(at.host[k], data_[k].base, data_[k].stride, data(k), k == 0 ? 1 : 0);
  const MatrixView<double> ref = readback();
  index_t rc = 0;  // the readback column
  for (index_t k = 0; k < n_codes_; ++k) {
    const MatrixView<double> copy = code(k);
    for (index_t j = 0; j < copy.cols(); ++j, ++rc) {
      for (index_t r = 0; r < copy.rows(); ++r) {
        if (bits_equal(copy(r, j), ref(r, rc))) continue;
        copy(r, j) = ref(r, rc);
        ladder.rederived();
      }
    }
  }
  reseal_codes();
}

void Checkpoint::restore() {
  for (index_t k = 0; k < n_data_; ++k) fth::copy<double>(data(k), at.host[k]);
}

DualSum Checkpoint::sums(bool codes) {
  DualSum s;
  for (index_t k = 0; k < (codes ? n_codes_ : n_data_); ++k) {
    const Copy& c = codes ? code_[k] : data_[k];
    s.add_block(codes ? code(k) : data(k), c.base, c.stride);
  }
  return s;
}

// ---- one recovery episode ----------------------------------------------------

Episode::Episode(RecoveryLadder& ladder, index_t boundary, int attempt, double gap,
                 bool poisoned)
    : ladder_(ladder), boundary_(boundary), attempt_(attempt), gap_(gap) {
  ev_.boundary = boundary;
  ev_.gap = gap;
  ev_.panel_poisoned = poisoned;
}

obs::TraceSpan Episode::rollback_phase(index_t col) {
  ++ladder_.rep_.rollbacks;
  obs::counter_metric("ft.rollbacks").add();
  obs::journal_log(obs::JournalSeverity::Info, "ft", "rollback", -1,
                   static_cast<double>(attempt_), boundary_);
  return {"ft", "rollback", "col", static_cast<double>(col)};
}

void Episode::abandon(bool nonfinite, const char* what) {
  const AbortReason why =
      nonfinite ? AbortReason::NonfiniteDamage : AbortReason::AmbiguousPattern;
  FtReport& rep = ladder_.rep_;
  rep.events.push_back(std::move(ev_));
  abort_recovery(rep.outcome, ladder_.wording_.who, why, boundary_, attempt_, gap_,
                 ladder_.threshold_, what);
}

void Episode::corrected() {
  ev_.checkpoint_only =
      ev_.data_corrections == 0 && ev_.checksum_corrections == 0 && ev_.reconstructions == 0;
  ladder_.book_corrections(ev_);
  if (ev_.checkpoint_only) obs::counter_metric("ft.checkpoint_only_recoveries").add();
  ladder_.rep_.events.push_back(std::move(ev_));
}

Redo Episode::reexecute(index_t col) {
  obs::counter_metric("ft.reexecutions").add();
  obs::journal_log(obs::JournalSeverity::Info, "ft", "reexec", -1,
                   static_cast<double>(attempt_), boundary_);
  return Redo(ladder_.plane_, col, ladder_.rep_.recovery_seconds, since_);
}

// ---- the run's ledger -------------------------------------------------------

RecoveryLadder::RecoveryLadder(const Wording& wording, FtReport& rep, fault::FaultPlane* plane,
                               int max_retries, double threshold, index_t total_boundaries)
    : wording_(wording),
      rep_(rep),
      plane_(plane),
      max_retries_(max_retries),
      threshold_(threshold),
      total_boundaries_(total_boundaries) {
  rep_.threshold = threshold;
}

bool RecoveryLadder::clean(const Detection& det) {
  if (std::isfinite(det.gap)) {
    obs::histogram_metric("ft.detect_gap").observe(det.gap);
    obs::counter("ft.detect_gap", det.gap);
  }
  if (!det.clean) return false;
  rep_.max_fault_free_gap = std::max(rep_.max_fault_free_gap, det.gap);
  return true;
}

Episode RecoveryLadder::detected(const Detection& det, index_t boundary, int attempt,
                                 bool poisoned) {
  ++rep_.detections;
  obs::counter_metric("ft.detections").add();
  obs::journal_log(obs::JournalSeverity::Warn, "ft", "detect", -1, det.gap, boundary);
  if (det.nonfinite > 0) obs::counter_metric("ft.nonfinite_detections").add();
  if (attempt > max_retries_) {
    std::ostringstream os;
    os << wording_.gap_noun << " " << det.gap << " > threshold " << threshold_;
    if (wording_.counts_nonfinite) os << " with " << det.nonfinite << " non-finite entries";
    os << " after exhausting retries";
    abort_recovery(rep_.outcome, wording_.who, AbortReason::RetriesExhausted, boundary,
                   attempt - 1, det.gap, threshold_, os.str());
  }
  return Episode(*this, boundary, attempt, det.gap, poisoned);
}

void throw_if_poisoned(VectorView<const double> x) {
  if (count_nonfinite(MatrixView<const double>(x.data(), x.size(), 1, x.size())) > 0)
    throw PanelPoisoned{};
}

void RecoveryLadder::panel_aborted(index_t col) {
  ++rep_.panel_aborts;
  obs::counter_metric("ft.panel_aborts").add();
  obs::journal_log(obs::JournalSeverity::Warn, "ft", "panel_abort", -1, 0.0, col);
}

void RecoveryLadder::reconstructed() {
  ++rep_.reconstructions;
  obs::counter_metric("ft.reconstructions").add();
  obs::journal_log(obs::JournalSeverity::Info, "ft", "reconstructed");
}

void RecoveryLadder::rederived() {
  ++rep_.ckpt_rederivations;
  obs::counter_metric("ft.ckpt_rederivations").add();
  obs::journal_log(obs::JournalSeverity::Info, "ft", "ckpt_rederived");
}

obs::TimedSpan RecoveryLadder::final_sweep() {
  rep_.final_sweep_ran = true;
  return {"ft", "final_sweep", rep_.detect_seconds};
}

void RecoveryLadder::abandon_final_sweep(const char* what) {
  abort_recovery(rep_.outcome, wording_.who, AbortReason::AmbiguousPattern, total_boundaries_,
                 0, 0.0, threshold_, std::string("final sweep: ") + what);
}

void RecoveryLadder::swept(const FtEvent& ev) {
  rep_.final_sweep_corrections =
      ev.data_corrections + ev.checksum_corrections + ev.reconstructions;
  book_corrections(ev);
}

void RecoveryLadder::book_corrections(const FtEvent& ev) {
  rep_.data_corrections += ev.data_corrections;
  rep_.checksum_corrections += ev.checksum_corrections;
  obs::counter_metric("ft.data_corrections")
      .add(static_cast<std::uint64_t>(ev.data_corrections));
  obs::counter_metric("ft.checksum_corrections")
      .add(static_cast<std::uint64_t>(ev.checksum_corrections));
}

int RecoveryLadder::verify_q(const QProtector& qp, MatrixView<double> a) {
  // Section IV-E's tolerance, 1e3·eps·n, with no input scale: Householder
  // storage does not scale with A. larfg stores v = x / (α − β) with
  // |α − β| ≥ ‖x‖, so every stored |vᵢ| ≤ 1 whatever max|A| is, and a
  // code over n such entries rounds off by O(eps·n). Scaling the tolerance
  // by max|A| let a +1.0 strike on the storage through at max|A| = 2^60.
  const double tol = 1e3 * eps<double>() * static_cast<double>(a.rows());
  int corrections = 0;
  // A comparison with a non-finite delta gets rebuild targets only (locate
  // leaves its finite deltas alone), so a pass that rebuilt something is
  // followed by one more, as in locate_and_correct, which corrects a finite
  // strike elsewhere in the storage. A pass that saw no non-finite delta
  // rebuilt nothing and is the last.
  for (int pass = 0; pass < 2; ++pass) {
    Discrepancy disc;
    try {
      corrections += qp.verify_and_correct(a, qp.committed_columns(), tol, &disc);
    } catch (const recovery_error& e) {
      const AbortReason why =
          disc.nonfinite > 0 ? AbortReason::NonfiniteDamage : AbortReason::AmbiguousPattern;
      abort_recovery(rep_.outcome, wording_.who, why, total_boundaries_, 0, 0.0, threshold_,
                     std::string("Q verification: ") + e.what());
    }
    if (disc.nonfinite == 0) break;
  }
  rep_.q_corrections += corrections;
  obs::counter_metric("ft.q_corrections").add(static_cast<std::uint64_t>(corrections));
  return corrections;
}

void RecoveryLadder::finish() {
  const bool fired = rep_.detections > 0 || rep_.final_sweep_corrections > 0 ||
                     rep_.q_corrections > 0 || rep_.ckpt_rederivations > 0 ||
                     rep_.reconstructions > 0 || rep_.panel_aborts > 0;
  rep_.outcome.status = fired ? RecoveryStatus::Recovered : RecoveryStatus::Clean;
}

}  // namespace fth::ft
