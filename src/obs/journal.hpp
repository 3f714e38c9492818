// fth::obs journal — the event record and its bounded window.
//
// Counters say *how often* the FT machinery fired; events say *what
// happened, in order*: every detection, rollback, re-execution, FaultPlane
// strike, pool loss/reconstruction/remap, checker violation and health
// state change is one record of the event log (obs/trace.hpp), written by
// one call, journal_log(). Every armed reader sees that record with one
// timestamp: the trace file and the flight ring as an instant, the DAG as
// a host-chain mark, and the journal in one bounded ring shared by all
// threads (oldest overwritten) — safe to leave armed across soak
// campaigns, and the raw material of incident capsules (obs/incident.hpp).
//
// journal_log() costs one relaxed load of the sink mask when no reader is
// armed and never allocates: component, event and detail are literals or
// intern_name() pointers. `FTH_JOURNAL=<path>` arms the journal at
// static-init time and dumps it as JSONL at exit; campaigns and tests use
// journal_start() and journal_snapshot().
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace fth::obs {

enum class JournalSeverity : std::uint8_t { Info = 0, Warn = 1, Error = 2 };

[[nodiscard]] const char* to_string(JournalSeverity s) noexcept;

/// One structured record, as the journal hands it back. `component`,
/// `event` and `detail` are string literals or intern_name() pointers
/// (stored, never copied — the log's contract for names).
struct JournalEvent {
  double t_us = 0.0;         ///< obs::detail::now_us() timebase (steady clock)
  std::uint64_t run_id = 0;  ///< journal run id in force when recorded
  double value = 0.0;        ///< numeric payload (gap, waited ms, countdown, …)
  std::int64_t boundary = -1;  ///< iteration boundary (-1 none)
  const char* component = "";  ///< subsystem: "ft", "pool", "fault", "health", "check"
  const char* event = "";      ///< what happened: "detect", "loss_detected", …
  int device = -1;             ///< pool/device ordinal (-1 none)
  JournalSeverity severity = JournalSeverity::Info;
  const char* detail = "";  ///< optional short context ("" for none)
};

/// True between journal_start() and journal_stop(). Relaxed load, any thread.
[[nodiscard]] inline bool journal_enabled() noexcept {
  return (log_sinks() & detail::kJournal) != 0;
}

/// Arm the journal with a ring of `capacity` records (clamped to ≥ 64).
/// Re-arming clears the ring. Incident capsules need the journal: arming
/// incidents (obs/incident.hpp) arms the journal too.
void journal_start(std::size_t capacity = 4096);

/// Disarm and release the ring.
void journal_stop();

namespace detail {
void log_event(JournalSeverity sev, const char* component, const char* event, int device,
               double value, std::int64_t boundary, const char* detail) noexcept;
}  // namespace detail

/// Log one event for every armed reader (trace file, flight ring, DAG,
/// journal). One relaxed load when none is armed; never allocates.
inline void journal_log(JournalSeverity sev, const char* component, const char* event,
                        int device = -1, double value = 0.0, std::int64_t boundary = -1,
                        const char* detail = "") noexcept {
  if ((log_sinks() & obs::detail::kEventReaders) != 0)
    obs::detail::log_event(sev, component, event, device, value, boundary, detail);
}

/// Run-id management: campaigns stamp each trial (and the pool driver each
/// run) with a fresh id so a capsule can slice the shared ring down to its
/// own run. Ids are process-monotonic, starting at 1; 0 means "no run".
std::uint64_t journal_new_run() noexcept;
void journal_set_run(std::uint64_t id) noexcept;
[[nodiscard]] std::uint64_t journal_run() noexcept;

/// Ring contents, oldest first. The filtered overload keeps only records
/// stamped with `run_id`. Empty when the journal is off.
[[nodiscard]] std::vector<JournalEvent> journal_snapshot();
[[nodiscard]] std::vector<JournalEvent> journal_snapshot(std::uint64_t run_id);

/// One JSONL line per record (no trailing newline on the last; "" for none).
[[nodiscard]] std::string journal_to_jsonl(const std::vector<JournalEvent>& events);
/// Single JSON object for one record (the JSONL line / capsule array entry).
[[nodiscard]] std::string journal_event_json(const JournalEvent& e);

/// Dump the ring as JSONL to `path`; false on I/O failure or journal off.
bool journal_write(const std::string& path);

/// Honour `FTH_JOURNAL=<path>`: arm the journal and register an atexit dump
/// to that path. Idempotent; called from a static initializer like the
/// trace recorder's env hook, and explicitly by fth_checkinfo.
void journal_init_from_env();

}  // namespace fth::obs
