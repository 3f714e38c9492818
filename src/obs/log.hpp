// fth::obs event log — the record type and reader interface behind the
// trace file, the flight ring, the profiler and the DAG recorder. Internal
// to src/obs: instrumentation goes through obs/trace.hpp, and the buffers
// themselves live in obs/trace.cpp (DESIGN.md §8).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "obs/trace.hpp"

namespace fth::obs::log {

using detail::kDag;
using detail::kFlight;
using detail::kProfile;
using detail::kTraceFile;

enum class Kind : std::uint8_t {
  SpanBegin,  ///< TraceSpan: cat, name, optional arg_key/value
  SpanEnd,
  Instant,    ///< cat, name
  Counter,    ///< name, value
  TaskBegin,  ///< a stream task on its worker: stream, ticket, name = label
  TaskEnd,
  WaitBegin,  ///< cat = "synchronize" | "event_wait", name = call site,
              ///< stream + ticket = the newest task the wait can observe
  WaitEnd,
  Enqueue,    ///< stream, ticket, name = label, value = queue depth
  Transfer,   ///< DAG only: stream, ticket, value = payload bytes
  Discard,    ///< DAG only: a dead stream's dropped task (stream, ticket, label)
  Mark,       ///< DAG only: name = dag::mark label
  FlowBegin,  ///< trace file only: a DAG cause arrow, value = flow id
  FlowEnd,
};

struct Record {
  double ts_us = 0.0;
  double value = 0.0;
  std::uint64_t stream = 0;
  std::uint64_t ticket = 0;
  const char* cat = "";
  const char* name = "";
  const char* arg_key = "";
  std::uint32_t tid = 0;
  Kind kind = Kind::Instant;
};

/// Stamp `r` (time, calling thread) and hand it to every armed sink that
/// reads its kind; a no-op when none does.
void append(Record r) noexcept;

/// Append a pre-stamped flow record to the trace file's window (no-op
/// unless a trace file is being recorded).
void append_flow(const Record& r) noexcept;

/// Arm or disarm `sink` (kProfile or kDag). Arming kDag opens its window
/// on the unbounded log: it starts empty.
void arm(unsigned sink);
void disarm(unsigned sink);

/// One thread's records from a window, in log order.
struct Track {
  std::uint32_t tid = 0;
  std::vector<Record> records;
};

/// The records of the DAG's window, one Track per thread that logged any.
/// `close` disarms the DAG and frees what the trace file's window does not
/// still hold.
[[nodiscard]] std::vector<Track> dag_window(bool close);

// The profiler's per-thread aggregate lives beside the thread's buffer and
// is fed under the same lock (obs/profile.cpp defines the type).
struct ProfileAgg;
struct ProfileAggDelete {
  void operator()(ProfileAgg* a) const noexcept;
};
using ProfileSlot = std::unique_ptr<ProfileAgg, ProfileAggDelete>;

/// Fold `r` into the calling thread's aggregate, creating it on first use.
void profile_feed(ProfileSlot& slot, const Record& r) noexcept;

/// Move every thread's aggregate out of the log (empty slots included).
[[nodiscard]] std::vector<ProfileSlot> take_profiles();

}  // namespace fth::obs::log
