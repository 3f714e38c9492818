// Structured recovery outcomes for the FT drivers.
//
// Recovery used to end in one of two ways: silence (it worked) or a bare
// recovery_error with a formatted message. Campaigns aggregating thousands
// of trials need more: every run terminates with a RecoveryOutcome stored
// in its FtReport, and an abandoned recovery additionally throws a
// recovery_error carrying the same structured fields (common/error.hpp).
#pragma once

#include <string>

#include "common/error.hpp"
#include "common/types.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"

namespace fth::ft {

/// Final status of a fault-tolerant factorization run.
enum class RecoveryStatus {
  Clean,          ///< no detection fired; nothing to recover
  Recovered,      ///< every detection was rolled back and corrected
  Unrecoverable,  ///< recovery was abandoned; the run threw recovery_error
};

/// Why a recovery was abandoned.
enum class AbortReason {
  None,              ///< not abandoned
  RetriesExhausted,  ///< detection kept firing after max_retries attempts
  AmbiguousPattern,  ///< locate() could not resolve the error pattern (e.g. rectangle)
  NonfiniteDamage,   ///< NaN/Inf contamination the codes cannot reconstruct
  DeviceLost,        ///< device losses exceeded the redundancy group's correction radius
};

std::string to_string(RecoveryStatus s);
std::string to_string(AbortReason r);

/// Structured summary of how a run ended, recorded in FtReport. For an
/// Unrecoverable outcome the boundary/attempts/gap/threshold fields mirror
/// the recovery_error that was thrown.
struct RecoveryOutcome {
  RecoveryStatus status = RecoveryStatus::Clean;
  AbortReason reason = AbortReason::None;
  index_t boundary = -1;   ///< iteration boundary that was abandoned
  int attempts = 0;        ///< recovery attempts spent at that boundary
  double gap = 0.0;        ///< detection gap observed on the last attempt
  double threshold = 0.0;  ///< detection threshold in force
  std::string detail;      ///< human-readable context (locate message, …)
};

/// Fill `out`, bump the ft.unrecoverable counter, and throw the matching
/// structured recovery_error. `who` names the driver for the message.
[[noreturn]] inline void abort_recovery(RecoveryOutcome& out, const char* who,
                                        AbortReason reason, index_t boundary, int attempts,
                                        double gap, double threshold,
                                        const std::string& detail) {
  out.status = RecoveryStatus::Unrecoverable;
  out.reason = reason;
  out.boundary = boundary;
  out.attempts = attempts;
  out.gap = gap;
  out.threshold = threshold;
  out.detail = detail;
  obs::counter_metric("ft.unrecoverable").add();
  obs::journal_log(obs::JournalSeverity::Error, "ft", "abort", -1, gap, boundary,
                   obs::intern_name(std::string(who) + ": " + to_string(reason)));
  std::string msg = std::string(who) + ": recovery abandoned at boundary " +
                    std::to_string(boundary) + " after " + std::to_string(attempts) +
                    " attempt(s) [" + to_string(reason) + "]";
  if (!detail.empty()) msg += ": " + detail;
  throw recovery_error(msg, boundary, attempts, gap, threshold);
}

inline std::string to_string(RecoveryStatus s) {
  switch (s) {
    case RecoveryStatus::Clean: return "clean";
    case RecoveryStatus::Recovered: return "recovered";
    case RecoveryStatus::Unrecoverable: return "unrecoverable";
  }
  return "?";
}

inline std::string to_string(AbortReason r) {
  switch (r) {
    case AbortReason::None: return "none";
    case AbortReason::RetriesExhausted: return "retries-exhausted";
    case AbortReason::AmbiguousPattern: return "ambiguous-pattern";
    case AbortReason::NonfiniteDamage: return "nonfinite-damage";
    case AbortReason::DeviceLost: return "device-lost";
  }
  return "?";
}

}  // namespace fth::ft
