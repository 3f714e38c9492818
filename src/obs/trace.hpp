// fth::obs tracing — the per-thread event log every obs view reads, and its
// Chrome/Perfetto `trace_event` JSON writer.
//
// Each thread appends typed records to its own buffer (obs/trace.cpp):
// spans (B/E pairs), instants and counters from the instrumentation below,
// and the software device's stream records — enqueue, task begin/end,
// wait begin/end, transfer payloads — from src/hybrid. Four sinks read the
// log and differ only in capacity; any combination can be armed:
//  * trace file — an unbounded window, written as one JSON file at
//    trace_stop() / process exit (`FTH_TRACE=<path>` or trace_start()).
//    Open it at https://ui.perfetto.dev or chrome://tracing;
//  * flight recorder — a bounded per-thread ring of the newest records,
//    cheap enough to leave on for whole fault campaigns
//    (`FTH_FLIGHT=<n_events>` or flight_start()). It is auto-dumped to a
//    trace file when recovery escalates to abort (recovery_error) or on a
//    fatal signal, so post-mortems carry the last milliseconds of timeline;
//  * profiler — aggregates live and buffers nothing, see obs/profile.hpp;
//  * DAG recorder — an unbounded window, assembled into a graph at
//    dag::stop(), see obs/dag.hpp.
// A record is logged only for the sinks that read its kind, so the trace
// file and the flight ring carry no DAG-only records. Disarmed, every call
// site costs one relaxed load of the sink mask (trace_enabled()).
//
// Event names and categories must be string literals or pointers obtained
// from intern_name() — the log stores the pointers, never copies, which is
// what keeps the enabled path allocation-free. DESIGN.md §8 documents the
// event taxonomy and track layout used across the library.
#pragma once

#include <atomic>
#include <cstdint>
#include <source_location>
#include <string>
#include <string_view>

namespace fth::obs {

namespace detail {
/// The sinks reading the event log; `g_sinks` holds the armed ones.
enum Sink : unsigned { kTraceFile = 1u, kFlight = 2u, kProfile = 4u, kDag = 8u };
extern std::atomic<unsigned> g_sinks;
}  // namespace detail

/// The armed sinks (detail::Sink bits). Relaxed load, any thread.
[[nodiscard]] inline unsigned log_sinks() noexcept {
  return detail::g_sinks.load(std::memory_order_relaxed);
}

/// True while any sink (trace file, flight recorder, profiler, DAG) is
/// armed. One relaxed load — safe to call from any thread at any frequency.
[[nodiscard]] inline bool trace_enabled() noexcept { return log_sinks() != 0; }

/// Start recording; events accumulate in memory until trace_stop(), which
/// writes `path`. Calling trace_start() while active replaces the output
/// path and drops the events buffered so far. Registers an atexit hook so a
/// crash-free process always flushes.
void trace_start(const std::string& path);

/// Stop file tracing and write the accumulated trace (no-op when no file
/// trace is active). Returns the number of events written.
std::size_t trace_stop();

/// Honour `FTH_TRACE=<path>` and `FTH_FLIGHT=<n_events>` if set. Called
/// once automatically from a static initializer in trace.cpp; benches also
/// call it explicitly so the behaviour does not depend on static-init order.
void trace_init_from_env();

/// Name the calling thread's track in the trace (e.g. "device-stream").
/// Cheap and callable before tracing starts; the name is emitted as a
/// `thread_name` metadata event at write time.
void set_thread_name(const char* name);

/// Copy `name` into process-lifetime storage and return a stable pointer,
/// deduplicated by content. This is the supported way to use a dynamically
/// built string (e.g. a per-size bench label) as an event name or category
/// — passing a temporary's .c_str() directly would dangle, since the
/// recorder keeps pointers until write time. Interned names survive until
/// process exit; intern each distinct label once and reuse the pointer.
[[nodiscard]] const char* intern_name(std::string_view name);

/// Interned `"<kind>@<basename(file)>:<line>"` call-site label — the name
/// a wait record carries, so the profiler and the DAG recorder can
/// attribute waits to source locations. Cached per (kind, file, line), so
/// repeat calls from the same site are a map hit.
[[nodiscard]] const char* site_label(const char* kind, const char* file, unsigned line);

// --- Flight recorder --------------------------------------------------------

/// Start the flight recorder: each thread keeps (up to) the last `capacity`
/// events in a preallocated ring. Enabled for the whole process by
/// `FTH_FLIGHT=<n_events>`. Also installs best-effort fatal-signal handlers
/// (SIGSEGV/SIGBUS/SIGILL/SIGFPE/SIGABRT) that dump the ring before
/// re-raising.
void flight_start(std::size_t capacity);

/// True between flight_start() and flight_stop().
[[nodiscard]] inline bool flight_active() noexcept {
  return (log_sinks() & detail::kFlight) != 0;
}

/// Write the current ring contents as a Chrome trace file and return its
/// path ("" when the recorder is inactive or the file cannot be written).
/// The dump carries an instant event named after `reason` on a synthetic
/// track, and does not clear the rings — later dumps overwrite the file
/// with fresher history. Path: `FTH_FLIGHT_PATH` if set, else
/// `fth_flight_<pid>.json` in the working directory. Called automatically
/// from the recovery_error constructor and the fatal-signal handlers;
/// noexcept so it is safe mid-unwind.
std::string flight_dump(const char* reason) noexcept;

/// Stop the flight recorder (without dumping) and release the rings.
void flight_stop();

/// The newest `max_events` flight-ring events (merged across threads,
/// oldest first) rendered as a JSON array of
/// `{"ts_us":…,"ph":"B","tid":…,"cat":"…","name":"…"}` objects — the
/// embeddable form incident capsules (obs/incident.hpp) carry, as opposed
/// to flight_dump()'s Chrome-trace file. Non-destructive; "[]" when the
/// flight recorder is inactive.
[[nodiscard]] std::string flight_tail_json(std::size_t max_events);

namespace detail {
/// Microseconds on the log's clock (steady, zero at process start) — the
/// timebase of every record, so all views agree on the same timestamps.
[[nodiscard]] double now_us() noexcept;
void begin_span(const char* cat, const char* name) noexcept;
void begin_span(const char* cat, const char* name, const char* arg_key,
                double arg_value) noexcept;
void end_span() noexcept;
void record_instant(const char* cat, const char* name) noexcept;
void record_counter(const char* name, double value) noexcept;

// Stream records. src/hybrid calls each behind one trace_enabled() check.
/// Stream::publish: task `ticket` of `stream` is about to become visible to
/// the worker with `depth` tasks queued (the trace views show the depth as
/// the `stream.queue_depth` counter).
void log_enqueue(std::uint64_t stream, std::uint64_t ticket, const char* label,
                 double depth) noexcept;
/// copy_*_async: the payload of transfer task `ticket` (DAG only).
void log_transfer(std::uint64_t stream, std::uint64_t ticket, double bytes) noexcept;
/// A dead stream dropped task `ticket` without running it (DAG only).
void log_discard(std::uint64_t stream, std::uint64_t ticket, const char* label) noexcept;
void task_begin(std::uint64_t stream, std::uint64_t ticket, const char* label) noexcept;
void task_end() noexcept;
void wait_begin(const char* kind, const std::source_location& loc, std::uint64_t stream,
                std::uint64_t cause) noexcept;
void wait_end() noexcept;
}  // namespace detail

/// RAII scoped span: emits a `ph:"B"` event at construction and the
/// matching `ph:"E"` at destruction, on the calling thread's track.
class TraceSpan {
 public:
  TraceSpan(const char* cat, const char* name) noexcept : armed_(trace_enabled()) {
    if (armed_) detail::begin_span(cat, name);
  }
  /// Span with one numeric argument shown in the UI (e.g. bytes moved).
  TraceSpan(const char* cat, const char* name, const char* arg_key,
            double arg_value) noexcept
      : armed_(trace_enabled()) {
    if (armed_) detail::begin_span(cat, name, arg_key, arg_value);
  }
  ~TraceSpan() {
    if (armed_) detail::end_span();
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  bool armed_;
};

/// RAII record of one stream task on its worker thread (task begin/end with
/// stream and ticket). The trace views show it as a `stream/<label>` span.
class TaskRecord {
 public:
  TaskRecord(std::uint64_t stream, std::uint64_t ticket, const char* label) noexcept
      : armed_(trace_enabled()) {
    if (armed_) detail::task_begin(stream, ticket, label);
  }
  ~TaskRecord() {
    if (armed_) detail::task_end();
  }
  TaskRecord(const TaskRecord&) = delete;
  TaskRecord& operator=(const TaskRecord&) = delete;

 private:
  bool armed_;
};

/// RAII record of one blocking wait: `kind` is "synchronize" or
/// "event_wait", `cause` the newest ticket of `stream` the wait can observe
/// (0 = none). The trace views show it as a `stream/<kind>@<file>:<line>`
/// span named after the call site.
class WaitRecord {
 public:
  WaitRecord(const char* kind, const std::source_location& loc, std::uint64_t stream,
             std::uint64_t cause) noexcept
      : armed_(trace_enabled()) {
    if (armed_) detail::wait_begin(kind, loc, stream, cause);
  }
  ~WaitRecord() {
    if (armed_) detail::wait_end();
  }
  WaitRecord(const WaitRecord&) = delete;
  WaitRecord& operator=(const WaitRecord&) = delete;

 private:
  bool armed_;
};

/// Thread-scoped instant event (`ph:"i"`, scope "t").
inline void instant(const char* cat, const char* name) noexcept {
  if ((log_sinks() & (detail::kTraceFile | detail::kFlight)) != 0)
    detail::record_instant(cat, name);
}

/// Sample on a counter track (`ph:"C"`): one named series per `name`.
inline void counter(const char* name, double value) noexcept {
  if ((log_sinks() & (detail::kTraceFile | detail::kFlight)) != 0)
    detail::record_counter(name, value);
}

}  // namespace fth::obs
