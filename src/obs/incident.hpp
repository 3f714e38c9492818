// fth::obs incident — auto-assembled forensic capsules for FT incidents.
//
// When something noteworthy happens — a device loss is absorbed, recovery
// escalates to recovery_error, a campaign trial dies — the scattered
// evidence (journal records, flight-recorder rings, the trailing DAG
// fragment, metrics deltas, the FaultPlane strike ledger, the health
// timeline) is bundled into ONE JSON *incident capsule* and written
// atomically (tmp + rename) into the incident directory. `tools/fth_incident`
// renders a capsule as a causal timeline (strike → detection → recovery →
// verification) and computes per-incident detection latency and recovery
// cost; CI uploads capsules as artifacts on failure.
//
// Layering: this module is pure fth::obs — it knows nothing about
// ft::RecoveryOutcome or fault::FaultPlane. Emitters flatten their state
// into IncidentOutcome strings and pre-rendered JSON fragments
// (strikes/ledger), so src/ft and src/fault depend on obs, never the
// reverse.
//
// Cost discipline: incident_enabled() is one relaxed atomic load; nothing
// is collected or allocated until an emitter has an incident in hand (an
// exceptional, already-slow path). `FTH_INCIDENT=<dir>` arms at static-init
// time; arming incidents also arms the journal (capsules are assembled from
// it). fth_checkinfo reports the armed state for the Release bench guard.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/health.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"

namespace fth::json {
class Value;
}  // namespace fth::json

namespace fth::obs {

/// Flattened recovery outcome (the ft::RecoveryOutcome chain without the
/// ft types): what the run concluded about the incident.
struct IncidentOutcome {
  std::string status;  ///< "recovered", "escalated", "degraded", "failed", …
  std::string reason;  ///< machine cause ("device_lost", "threshold", …)
  std::string detail;  ///< human context (abort message, gap vs threshold, …)
  int attempts = 0;    ///< recovery attempts consumed
};

/// Everything one capsule bundles. Emitters fill what they have; empty
/// vectors/strings are emitted as empty arrays (or omitted for fragments).
struct IncidentReport {
  const char* trigger = "";  ///< "device_loss" | "escalation" | "recovery_error"
  std::string who;           ///< emitting driver ("pool_gehrd", "gehrd", …)
  std::uint64_t run_id = 0;  ///< journal run the incident belongs to
  int device = -1;           ///< device ordinal (-1 none)
  std::int64_t boundary = -1;  ///< iteration boundary (-1 none)
  IncidentOutcome outcome;
  /// Counter snapshot-delta over the incident's run (name → delta).
  std::vector<std::pair<std::string, std::uint64_t>> metrics_delta;
  std::vector<JournalEvent> journal;        ///< run-sliced journal records
  std::vector<DeviceHealthSnapshot> health; ///< health timeline at assembly
  /// Pre-rendered JSON fragments (arrays/objects); empty = omitted.
  std::string strikes_json;  ///< FaultPlane fired faults + losses
  std::string ledger_json;   ///< campaign/soak trial ledger entry
  std::string flight_json;   ///< obs::flight_tail_json(...)
  std::string dag_json;      ///< obs::dag::tail_json(...)
};

namespace incident_detail {
extern std::atomic<bool> g_on;  ///< emitter gate (one relaxed load when off)
}  // namespace incident_detail

/// True between incident_set_dir() and incident_stop(). Relaxed load.
[[nodiscard]] inline bool incident_enabled() noexcept {
  return incident_detail::g_on.load(std::memory_order_relaxed);
}

/// Arm capsule emission into `dir` (created if missing). Also arms the
/// journal when it is off — capsules are assembled from it.
void incident_set_dir(const std::string& dir);

/// Disarm capsule emission (the journal stays as it was).
void incident_stop();

/// The armed incident directory ("" when disarmed).
[[nodiscard]] std::string incident_dir();

/// A capsule for journal run `run_id` holding the evidence every capsule
/// carries: the counter deltas since `counters_before`, the run's journal
/// slice and the newest flight-ring and DAG records. Emitters add the
/// trigger, the outcome and their own fragments.
[[nodiscard]] IncidentReport incident_for_run(std::uint64_t run_id,
                                              const Registry::CounterValues& counters_before);

/// Render the capsule document (schema "fth-incident-v1").
[[nodiscard]] std::string render_incident_json(const IncidentReport& rep);

/// Write a capsule atomically (tmp + rename) as
/// `<dir>/fth_incident_run<run_id>_<seq>.json`. Returns the path, or ""
/// when emission is disarmed or the write failed.
std::string write_incident(const IncidentReport& rep);

/// Honour `FTH_INCIDENT=<dir>`. Idempotent; called from a static
/// initializer like the other obs env hooks, and explicitly by fth_checkinfo.
void incident_init_from_env();

/// Schema validation for a parsed capsule: "" when valid, else a
/// human-readable description of the first violation. Shared by
/// `fth_incident --check` and the tests.
[[nodiscard]] std::string incident_validate(const json::Value& capsule);

/// The place of a journaled (component, event) in an incident's causal
/// chain: "strike", "detect", "repair", "verify", or "" for none. The one
/// classifier behind incident_timing() and fth_incident's timeline
/// (DESIGN.md §14.2 lists the events).
[[nodiscard]] const char* incident_role(std::string_view component, std::string_view event);

/// Per-incident timings derived from the capsule's journal slice (all in
/// the obs µs timebase; -1 when the corresponding record is absent).
struct IncidentTiming {
  double strike_us = -1.0;       ///< first FaultPlane strike record
  double detect_us = -1.0;       ///< first detection record
  double repair_done_us = -1.0;  ///< last repair/verification record
  double detection_latency_us = -1.0;  ///< detect − strike
  double recovery_cost_us = -1.0;      ///< repair_done − detect
};
[[nodiscard]] IncidentTiming incident_timing(const json::Value& capsule);

}  // namespace fth::obs
