// fth::obs::dag — execution-DAG recorder with critical-path attribution and
// what-if overlap analysis (DESIGN.md §12).
//
// A reader of the event log (obs/trace.hpp). While armed (FTH_DAG=1 or a
// bench's --dag flag) its unbounded window of the log holds every stream
// enqueue, task, h2d/d2h payload, wait (synchronize / event_wait, tagged
// with its interned call site), host span and event (obs::journal_log);
// disarmed, the records only it reads are not logged at all.
//
// stop() assembles the records into a Graph whose happens-before edges come
// from the very machinery fth::check already trusts:
//   Seq   host program order (Work/Wait/Mark chain per host thread),
//   Fifo  ticket order within one stream (the in-order worker),
//   Enq   host chain node → the task it enqueued,
//   Cause finished task → the host wait that blocked on it (which
//         synchronize/event_wait, waiting on which ticket, from where).
// Every edge satisfies pred.t1 ≤ succ.t0 on the recorded clock, so the CPM
// forward pass provably yields critical_path_s ≤ wall_s.
//
// analyze() extracts the critical path (with and without Fifo edges — the
// data-only variant lower-bounds any reordering), per-node slack, and the
// "top blocking edges" table attributing host_wait_s to file:line sites.
// simulate() replays the DAG under a hypothetical config (k-panel
// lookahead, s streams, scaled device compute) and predicts wall time and
// overlap_fraction — the measured target the lookahead/fusion PRs are
// gated against. tools/fth_why is the CLI over a dumped *_dag.json.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace fth::json {
class Value;
}

namespace fth::obs::dag {

// --- Recording --------------------------------------------------------------

/// True while the recorder is armed. Relaxed load, any thread.
[[nodiscard]] bool enabled() noexcept;

/// Arm the recorder; its window on the log starts empty.
void start();

struct Graph;

/// Disarm and assemble the window's records into a Graph. Returns an empty
/// graph when the recorder was not armed.
[[nodiscard]] Graph stop();

/// Honour `FTH_DAG` (=1 records and dumps `fth_dag_<pid>.json` at exit; any
/// other non-empty value is used as the dump path). Idempotent; called from
/// a static initializer like the trace recorder's env hook.
void init_from_env();

/// Trailing fragment of the in-flight recording: non-destructively copy the
/// window (the recorder stays armed), assemble it, and render
/// the newest `max_nodes` nodes by end time as a JSON array of objects —
/// the embeddable form incident capsules (obs/incident.hpp) carry, as
/// opposed to stop()'s full Graph. "[]" when the recorder is off.
[[nodiscard]] std::string tail_json(std::size_t max_nodes);

// --- Graph ------------------------------------------------------------------

enum class NodeKind : std::uint8_t {
  Task = 0,  ///< stream task (incl. h2d/d2h transfers and event_record markers)
  Wait = 1,  ///< blocking host interval (synchronize / event_wait); CP point at t1
  Work = 2,  ///< host segment between two chain boundaries
  Span = 3,  ///< host TraceSpan (context only — no CP edges)
  Mark = 4,  ///< zero-duration host-thread event (obs::journal_log), "component/event"
};

enum class EdgeKind : std::uint8_t { Seq = 0, Fifo = 1, Enq = 2, Cause = 3 };

struct Node {
  NodeKind kind = NodeKind::Work;
  std::int8_t phase = 0;    ///< 0 none, 1 panel, 2 update (innermost hybrid span)
  std::int32_t iter = -1;   ///< driver iteration (counted at "hybrid/panel" begins)
  std::uint32_t tid = 0;    ///< trace-recorder thread id (shared with trace files)
  std::uint64_t stream = 0; ///< process-unique stream id (tasks/waits)
  std::uint64_t ticket = 0; ///< task ticket / wait cause ticket
  double t0_us = 0.0;
  double t1_us = 0.0;
  double enq_us = -1.0;     ///< tasks: host enqueue timestamp
  double bytes = 0.0;       ///< transfers: payload size
  std::int64_t cause = -1;      ///< waits: node index of the task blocked on
  std::int64_t enq_after = -1;  ///< tasks: host chain node after which enqueued
  std::string label;            ///< task label / span "cat/name" / wait kind
  std::string site;             ///< waits: interned "kind@file:line" call site
  [[nodiscard]] double dur_us() const noexcept { return t1_us > t0_us ? t1_us - t0_us : 0.0; }
};

struct Edge {
  std::int64_t src = -1;
  std::int64_t dst = -1;
  EdgeKind kind = EdgeKind::Seq;
};

struct Graph {
  std::vector<Node> nodes;
  std::vector<Edge> edges;
  /// Work/Wait/Mark indices of the primary host thread, in program order —
  /// the replay script the what-if scheduler drives.
  std::vector<std::int64_t> host_order;
  double t0_us = 0.0;
  double t1_us = 0.0;

  [[nodiscard]] double wall_s() const noexcept {
    return t1_us > t0_us ? (t1_us - t0_us) / 1e6 : 0.0;
  }
  [[nodiscard]] std::size_t count(NodeKind k) const noexcept;
  [[nodiscard]] std::size_t count(EdgeKind k) const noexcept;

  /// Full dump (schema in EXPERIMENTS.md; parse back with parse_graph).
  [[nodiscard]] std::string to_json() const;
};

/// Inverse of Graph::to_json() over a parsed *_dag.json document. Throws
/// json::parse_error on schema mismatch.
[[nodiscard]] Graph parse_graph(const json::Value& root);

// --- Analysis ---------------------------------------------------------------

/// One (site, wait kind, cause label) group of the blocking-edge table.
struct CauseGroup {
  std::string site;        ///< "synchronize@hybrid_gehrd.cpp:79"
  std::string kind;        ///< "synchronize" | "event_wait"
  std::string waiting_on;  ///< cause task label ("dev.gemv", "d2h", ...); "unresolved"
  std::uint64_t count = 0;
  double seconds = 0.0;
};

/// Critical-path segment: consecutive-path nodes aggregated by (kind, label).
struct PathSegment {
  std::string label;
  NodeKind kind = NodeKind::Work;
  std::uint64_t count = 0;
  double seconds = 0.0;
};

struct Analysis {
  double wall_s = 0.0;
  double critical_path_s = 0.0;       ///< longest chain over all edge kinds
  double critical_path_data_s = 0.0;  ///< Fifo edges excluded (reordering bound)
  double host_blocked_s = 0.0;        ///< sum of Wait durations
  double attributed_s = 0.0;          ///< blocked time with a resolved cause + site
  double attributed_frac = 0.0;
  std::vector<CauseGroup> blocking;   ///< sorted by seconds, descending
  std::vector<PathSegment> path;      ///< full-CP composition, sorted by seconds
  std::vector<double> slack_s;        ///< per node, data-edge CPM slack
};

[[nodiscard]] Analysis analyze(const Graph& g);

// --- What-if scheduling -----------------------------------------------------

/// Stream count that models "one stream per iteration".
inline constexpr int kInfiniteStreams = 1 << 20;

struct Scenario {
  std::string name;
  int lookahead = 0;      ///< panels of update work the host may leave in flight
  int streams = 1;        ///< virtual streams (1 = recorded FIFO; kInfiniteStreams)
  double dev_scale = 1.0; ///< duration multiplier for dev.* compute tasks
};

struct Prediction {
  Scenario scenario;
  double wall_s = 0.0;
  double device_busy_s = 0.0;
  double host_blocked_s = 0.0;
  double overlap_fraction = 0.0;  ///< same definition as the profiler (DESIGN.md §8)
  double speedup = 0.0;           ///< recorded wall / predicted wall
};

/// Replay the recorded host program under `sc` (see DESIGN.md §12 for the
/// model's assumptions) and predict the resulting timeline.
[[nodiscard]] Prediction simulate(const Graph& g, const Scenario& sc);

/// The standard scenario table benches embed: replay, 1- and 2-panel
/// lookahead, infinite streams, and (when 0 < dev_gemm_scale < 1) 1-panel
/// lookahead with device compute scaled to the measured roofline.
[[nodiscard]] std::vector<Scenario> default_scenarios(double dev_gemm_scale);

/// The `dag` section of bench_*.json (schema in EXPERIMENTS.md).
[[nodiscard]] std::string section_json(const Graph& g, const Analysis& a,
                                       const std::vector<Prediction>& what_if);

/// Human-readable summary: totals, top blocking edges, what-if table.
void print_analysis(const Graph& g, const Analysis& a,
                    const std::vector<Prediction>& what_if, std::FILE* out);

}  // namespace fth::obs::dag
