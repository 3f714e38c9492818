#include "ft/ladder.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>
#include <string>

#include "ft/recovery.hpp"
#include "obs/dag.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"

namespace fth::ft {

index_t ft_total_boundaries(index_t n, index_t nb) {
  index_t count = 0;
  index_t i = 0;
  while (i < n - 1) {
    i += std::min(nb, n - 1 - i);
    ++count;
  }
  return count;
}

namespace {

bool bits_equal(double a, double b) { return std::memcmp(&a, &b, sizeof(double)) == 0; }

}  // namespace

void DualSum::add_block(MatrixView<const double> m, double base, double stride) {
  for (index_t j = 0; j < m.cols(); ++j) {
    for (index_t r = 0; r < m.rows(); ++r) {
      const double weight = base + static_cast<double>(r) + static_cast<double>(j + 1) * stride;
      plain += m(r, j);
      weighted += m(r, j) * weight;
    }
  }
}

bool DualSum::same_bits(const DualSum& o) const {
  return bits_equal(plain, o.plain) && bits_equal(weighted, o.weighted);
}

Phase::Phase(const char* mark, const char* name, index_t col)
    : span_("ft", name, "col", static_cast<double>(col)) {
  obs::dag::mark(mark);
}

// ---- one recovery episode ----------------------------------------------------

Episode::Episode(RecoveryLadder& ladder, index_t boundary, int attempt, double gap,
                 bool poisoned)
    : ladder_(ladder), boundary_(boundary), attempt_(attempt), gap_(gap) {
  ev_.boundary = boundary;
  ev_.gap = gap;
  ev_.panel_poisoned = poisoned;
}

Phase Episode::rollback_phase(index_t col) {
  ++ladder_.rep_.rollbacks;
  obs::counter_metric("ft.rollbacks").add();
  obs::journal_log(obs::JournalSeverity::Info, "ft", "rollback", -1,
                   static_cast<double>(attempt_), boundary_);
  return {"ft.rollback", "rollback", col};
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
  obs::instant("ft", "detection");
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

void RecoveryLadder::panel_aborted(index_t col) {
  ++rep_.panel_aborts;
  obs::counter_metric("ft.panel_aborts").add();
  obs::instant("ft", "panel_abort");
  obs::journal_log(obs::JournalSeverity::Warn, "ft", "panel_abort", -1, 0.0, col);
}

void RecoveryLadder::reconstructed() {
  ++rep_.reconstructions;
  obs::counter_metric("ft.reconstructions").add();
  obs::instant("ft", "reconstruction");
}

void RecoveryLadder::rederived() {
  ++rep_.ckpt_rederivations;
  obs::counter_metric("ft.ckpt_rederivations").add();
  obs::instant("ft", "ckpt_rederive");
}

void RecoveryLadder::repair_from(MatrixView<double> ckpt, MatrixView<const double> ref) {
  for (index_t j = 0; j < ckpt.cols(); ++j) {
    for (index_t r = 0; r < ckpt.rows(); ++r) {
      if (bits_equal(ckpt(r, j), ref(r, j))) continue;
      ckpt(r, j) = ref(r, j);
      rederived();
    }
  }
}

TimedSpan RecoveryLadder::final_sweep() {
  rep_.final_sweep_ran = true;
  return {"final_sweep", rep_.detect_seconds};
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

void RecoveryLadder::q_corrected(int corrections) {
  rep_.q_corrections += corrections;
  obs::counter_metric("ft.q_corrections").add(static_cast<std::uint64_t>(corrections));
}

double RecoveryLadder::q_tolerance(index_t n, double scale_max) {
  return 1e3 * eps<double>() * static_cast<double>(n) * std::max(1.0, scale_max);
}

void RecoveryLadder::finish() {
  const bool fired = rep_.detections > 0 || rep_.final_sweep_corrections > 0 ||
                     rep_.q_corrections > 0 || rep_.ckpt_rederivations > 0 ||
                     rep_.reconstructions > 0 || rep_.panel_aborts > 0;
  rep_.outcome.status = fired ? RecoveryStatus::Recovered : RecoveryStatus::Clean;
}

// ---- the ft_* entry frame ---------------------------------------------------

DriverFrame::DriverFrame(hybrid::Device& dev, const char* name, index_t n, FtReport* report,
                         hybrid::HybridGehrdStats* stats)
    : rep_(report != nullptr ? *report : local_rep_),
      st_(stats != nullptr ? *stats : local_st_),
      span_("ft", name, "n", static_cast<double>(n)),
      scope_(dev) {
  rep_ = {};
  st_ = {};
}

void DriverFrame::finish() {
  st_.total_seconds = total_.seconds();
  scope_.finish(st_);
}

}  // namespace fth::ft
