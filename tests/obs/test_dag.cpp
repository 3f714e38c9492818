// fth::obs::dag — the execution-DAG recorder and its offline analyses:
// hand-computable CPM/attribution/what-if numbers over synthetic graphs,
// structural determinism of two identical recorded runs (the golden-graph
// property the bench gate's `dag.tasks`/`dag.waits` thresholds rely on),
// the to_json/parse_graph round trip through the in-repo json reader, and
// the zero-cost-when-off guarantee (no allocations on a disarmed log, and
// none for an event once the journal is armed).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <source_location>
#include <string>
#include <tuple>
#include <vector>

#include "common/json.hpp"
#include "hybrid/hybrid_gehrd.hpp"
#include "la/generate.hpp"
#include "obs/dag.hpp"
#include "obs/journal.hpp"
#include "obs/trace.hpp"

// ---- global allocation counter (for the zero-overhead-off test) -------------
//
// Replaceable global operator new/delete, counting every allocation made by
// this binary. The disarmed log's entry points must not show up here at all.

namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t al) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  const std::size_t a = static_cast<std::size_t>(al);
  const std::size_t rounded = (size + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded == 0 ? a : rounded)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t al) {
  return ::operator new(size, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace fth {
namespace {

using obs::dag::EdgeKind;
using obs::dag::Graph;
using obs::dag::Node;
using obs::dag::NodeKind;

Node make_node(NodeKind kind, const std::string& label, double t0, double t1) {
  Node nd;
  nd.kind = kind;
  nd.label = label;
  nd.t0_us = t0;
  nd.t1_us = t1;
  return nd;
}

// ---- analyze(): hand-computable CPM, slack, and attribution -----------------
//
// Work[0,100) --Enq--> Task dev.gemm[100,300) --Cause--> Wait sync[150,300)
//      |                    |--Fifo--> Task dev.aux[300,320)      |
//      +-------------Seq-------------------------------->--------+--Seq--> Work[300,350)
//
// Full and data-only critical path: Work(100) + dev.gemm(200) + Wait(0) +
// Work(50) = 350 µs = the wall. dev.aux hangs off the side with 230 µs of
// data slack (its only non-Fifo path is Work(100)+aux(20)=120 µs through).

Graph hand_graph() {
  Graph g;
  g.t0_us = 0.0;
  g.t1_us = 350.0;
  g.nodes.push_back(make_node(NodeKind::Work, "host", 0.0, 100.0));  // 0
  Node gemm = make_node(NodeKind::Task, "dev.gemm", 100.0, 300.0);   // 1
  gemm.stream = 1;
  gemm.ticket = 1;
  gemm.enq_us = 90.0;
  gemm.enq_after = 0;
  g.nodes.push_back(gemm);
  Node wait = make_node(NodeKind::Wait, "synchronize", 150.0, 300.0);  // 2
  wait.site = "synchronize@x.cpp:5";
  wait.stream = 1;
  wait.ticket = 1;
  wait.cause = 1;
  g.nodes.push_back(wait);
  g.nodes.push_back(make_node(NodeKind::Work, "host", 300.0, 350.0));  // 3
  Node aux = make_node(NodeKind::Task, "dev.aux", 300.0, 320.0);       // 4
  aux.stream = 1;
  aux.ticket = 2;
  aux.enq_us = 95.0;
  aux.enq_after = 0;
  g.nodes.push_back(aux);
  g.edges.push_back({0, 2, EdgeKind::Seq});
  g.edges.push_back({0, 1, EdgeKind::Enq});
  g.edges.push_back({0, 4, EdgeKind::Enq});
  g.edges.push_back({1, 2, EdgeKind::Cause});
  g.edges.push_back({2, 3, EdgeKind::Seq});
  g.edges.push_back({1, 4, EdgeKind::Fifo});
  g.host_order = {0, 2, 3};
  return g;
}

TEST(DagAnalyze, HandComputableCriticalPathSlackAndAttribution) {
  const Graph g = hand_graph();
  EXPECT_EQ(g.count(NodeKind::Task), 2u);
  EXPECT_EQ(g.count(NodeKind::Wait), 1u);
  EXPECT_EQ(g.count(EdgeKind::Fifo), 1u);

  const obs::dag::Analysis an = obs::dag::analyze(g);
  EXPECT_NEAR(an.wall_s, 350e-6, 1e-15);
  EXPECT_NEAR(an.critical_path_s, 350e-6, 1e-15);
  EXPECT_NEAR(an.critical_path_data_s, 350e-6, 1e-15);
  EXPECT_LE(an.critical_path_s, an.wall_s + 1e-15);

  // The one wait is 150 µs, fully attributed to its cause task + site.
  EXPECT_NEAR(an.host_blocked_s, 150e-6, 1e-15);
  EXPECT_NEAR(an.attributed_s, 150e-6, 1e-15);
  EXPECT_DOUBLE_EQ(an.attributed_frac, 1.0);
  ASSERT_EQ(an.blocking.size(), 1u);
  EXPECT_EQ(an.blocking[0].site, "synchronize@x.cpp:5");
  EXPECT_EQ(an.blocking[0].kind, "synchronize");
  EXPECT_EQ(an.blocking[0].waiting_on, "dev.gemm");
  EXPECT_EQ(an.blocking[0].count, 1u);
  EXPECT_NEAR(an.blocking[0].seconds, 150e-6, 1e-15);

  // Path composition, sorted by seconds: gemm 200 µs, host 2×150 µs, the
  // zero-duration wait point.
  ASSERT_EQ(an.path.size(), 3u);
  EXPECT_EQ(an.path[0].label, "dev.gemm");
  EXPECT_NEAR(an.path[0].seconds, 200e-6, 1e-15);
  EXPECT_EQ(an.path[1].label, "host");
  EXPECT_EQ(an.path[1].count, 2u);
  EXPECT_NEAR(an.path[1].seconds, 150e-6, 1e-15);
  EXPECT_EQ(an.path[2].label, "synchronize@x.cpp:5");
  EXPECT_NEAR(an.path[2].seconds, 0.0, 1e-15);

  // Slack: everything on the path is tight; dev.aux could slip 230 µs.
  ASSERT_EQ(an.slack_s.size(), g.nodes.size());
  EXPECT_NEAR(an.slack_s[0], 0.0, 1e-15);
  EXPECT_NEAR(an.slack_s[1], 0.0, 1e-15);
  EXPECT_NEAR(an.slack_s[3], 0.0, 1e-15);
  EXPECT_NEAR(an.slack_s[4], 230e-6, 1e-15);
}

// ---- simulate(): the lookahead pipeline model -------------------------------
//
// Panel work enqueues one iteration-0 update gemm, the next panel's
// synchronize blocks on it (the recorded pipeline bubble); under 1-panel
// lookahead the newest update generation may stay in flight and the bubble
// disappears — unless the in-flight task is a d2h, which lands host data
// and must keep draining (DESIGN.md §12).

Graph pipeline_graph(bool with_d2h) {
  Graph g;
  g.t0_us = 0.0;
  g.t1_us = 120.0;
  Node w0 = make_node(NodeKind::Work, "host", 0.0, 10.0);  // 0: panel 0
  w0.phase = 1;
  w0.iter = 0;
  g.nodes.push_back(w0);
  Node gemm = make_node(NodeKind::Task, "dev.gemm", 10.0, 110.0);  // 1: update 0
  gemm.phase = 2;
  gemm.iter = 0;
  gemm.stream = 7;
  gemm.ticket = 1;
  gemm.enq_us = 5.0;
  gemm.enq_after = 0;
  g.nodes.push_back(gemm);
  Node w2 = make_node(NodeKind::Work, "host", 10.0, 20.0);  // 2: panel 1
  w2.phase = 1;
  w2.iter = 1;
  g.nodes.push_back(w2);
  Node wait = make_node(NodeKind::Wait, "synchronize", 20.0, 110.0);  // 3
  wait.site = "synchronize@p.cpp:9";
  wait.phase = 1;
  wait.iter = 1;
  wait.stream = 7;
  wait.ticket = with_d2h ? 2 : 1;
  wait.cause = 1;
  g.nodes.push_back(wait);
  g.nodes.push_back(make_node(NodeKind::Work, "host", 110.0, 120.0));  // 4
  g.edges.push_back({0, 1, EdgeKind::Enq});
  g.edges.push_back({0, 2, EdgeKind::Seq});
  g.edges.push_back({2, 3, EdgeKind::Seq});
  g.edges.push_back({1, 3, EdgeKind::Cause});
  g.edges.push_back({3, 4, EdgeKind::Seq});
  if (with_d2h) {
    Node d2h = make_node(NodeKind::Task, "d2h", 110.0, 115.0);  // 5
    d2h.phase = 2;
    d2h.iter = 0;
    d2h.stream = 7;
    d2h.ticket = 2;
    d2h.enq_us = 6.0;
    d2h.enq_after = 0;
    d2h.bytes = 1024.0;
    g.nodes.push_back(d2h);
    g.edges.push_back({0, 5, EdgeKind::Enq});
    g.edges.push_back({1, 5, EdgeKind::Fifo});
  }
  g.host_order = {0, 2, 3, 4};
  return g;
}

TEST(DagSimulate, ReplayReproducesTheRecordedPipelineBubble) {
  const Graph g = pipeline_graph(/*with_d2h=*/false);
  const obs::dag::Prediction p = obs::dag::simulate(g, {"replay", 0, 1, 1.0});
  // t: 10 (panel 0) + 10 (panel 1), sync drains the 100 µs gemm ending at
  // 110, tail work to 120.
  EXPECT_NEAR(p.wall_s, 120e-6, 1e-15);
  EXPECT_NEAR(p.host_blocked_s, 90e-6, 1e-15);
  EXPECT_NEAR(p.device_busy_s, 100e-6, 1e-15);
  // Busy [10,110) ∩ blocked [20,110) = 90 µs → 10 µs of hidden device work.
  EXPECT_NEAR(p.overlap_fraction, 0.1, 1e-12);
  EXPECT_NEAR(p.speedup, 1.0, 1e-12);
}

TEST(DagSimulate, OnePanelLookaheadElidesTheUpdateDrain) {
  const Graph g = pipeline_graph(/*with_d2h=*/false);
  const obs::dag::Prediction p =
      obs::dag::simulate(g, {"lookahead1_streams2", 1, 2, 1.0});
  // During panel 1 the newest update generation in flight is iteration 0;
  // with 1-panel lookahead the synchronize leaves it in flight, the host
  // never blocks, and the wall is the gemm finishing on its own stream.
  EXPECT_NEAR(p.wall_s, 110e-6, 1e-15);
  EXPECT_NEAR(p.host_blocked_s, 0.0, 1e-15);
  EXPECT_NEAR(p.overlap_fraction, 1.0, 1e-12);
  EXPECT_NEAR(p.speedup, 120.0 / 110.0, 1e-12);
}

TEST(DagSimulate, LandedD2hStaysAHardDependencyUnderLookahead) {
  const Graph g = pipeline_graph(/*with_d2h=*/true);
  const obs::dag::Prediction p =
      obs::dag::simulate(g, {"lookahead1_streams2", 1, 2, 1.0});
  // The update-phase d2h may not be elided: the host reads its landed data
  // right after the wait. It queues behind the gemm (ends 115), the sync
  // drains to it, and the tail work pushes the wall to 125.
  EXPECT_NEAR(p.wall_s, 125e-6, 1e-15);
  EXPECT_NEAR(p.host_blocked_s, 95e-6, 1e-15);
}

TEST(DagSimulate, DevScaleShrinksOnlyDeviceCompute) {
  const Graph g = pipeline_graph(/*with_d2h=*/false);
  const obs::dag::Prediction p = obs::dag::simulate(g, {"fast_gemm", 0, 1, 0.5});
  // gemm 100 → 50 µs; replay then blocks [20,60) and ends at 70.
  EXPECT_NEAR(p.wall_s, 70e-6, 1e-15);
  EXPECT_NEAR(p.device_busy_s, 50e-6, 1e-15);
  EXPECT_NEAR(p.host_blocked_s, 40e-6, 1e-15);
}

// ---- recorded runs: golden determinism, round trip, what-if sanity ----------

Graph record_small_run() {
  const index_t n = 48, nb = 16;
  hybrid::Device dev;
  Matrix<double> a = random_matrix(n, n, 7);
  std::vector<double> tau(static_cast<std::size_t>(n - 1));
  obs::dag::start();
  obs::journal_log(obs::JournalSeverity::Info, "test", "begin");
  hybrid::hybrid_gehrd(dev, a.view(), VectorView<double>(tau.data(), n - 1),
                       {.nb = nb, .nx = nb}, nullptr);
  return obs::dag::stop();
}

// Structure with run-varying fields (timestamps, tids, the process-global
// stream ids) normalized away; stream ids map to first-appearance order.
struct GraphShape {
  std::vector<std::tuple<int, int, int, int, std::uint64_t, std::string, std::string,
                         double, std::int64_t, std::int64_t>>
      nodes;
  std::vector<std::tuple<std::int64_t, std::int64_t, int>> edges;
  std::vector<std::int64_t> host_order;
  bool operator==(const GraphShape&) const = default;
};

GraphShape shape_of(const Graph& g) {
  GraphShape s;
  std::vector<std::uint64_t> streams;
  const auto norm_stream = [&](std::uint64_t id) -> int {
    if (id == 0) return -1;
    for (std::size_t i = 0; i < streams.size(); ++i)
      if (streams[i] == id) return static_cast<int>(i);
    streams.push_back(id);
    return static_cast<int>(streams.size() - 1);
  };
  for (const Node& nd : g.nodes)
    s.nodes.emplace_back(static_cast<int>(nd.kind), nd.phase, nd.iter,
                         norm_stream(nd.stream), nd.ticket, nd.label, nd.site, nd.bytes,
                         nd.cause, nd.enq_after);
  for (const obs::dag::Edge& e : g.edges)
    s.edges.emplace_back(e.src, e.dst, static_cast<int>(e.kind));
  s.host_order = g.host_order;
  return s;
}

TEST(DagRecord, TwoIdenticalRunsYieldTheSameGraphShape) {
  const Graph a = record_small_run();
  const Graph b = record_small_run();
  ASSERT_GT(a.count(NodeKind::Task), 0u);
  ASSERT_GT(a.count(NodeKind::Wait), 0u);
  ASSERT_GT(a.count(NodeKind::Span), 0u);
  EXPECT_EQ(a.count(NodeKind::Mark), 1u);
  EXPECT_GT(a.count(EdgeKind::Fifo), 0u);
  EXPECT_GT(a.count(EdgeKind::Cause), 0u);
  EXPECT_GT(a.count(EdgeKind::Enq), 0u);
  EXPECT_EQ(shape_of(a), shape_of(b))
      << "the DAG of a fixed-seed run must be structurally deterministic "
         "(the bench gate pins dag.tasks/dag.waits to abs 0)";
}

TEST(DagRecord, EdgesRespectRecordedTime) {
  const Graph g = record_small_run();
  // Every happens-before edge must satisfy pred.t1 ≤ succ's CPM position
  // (a Wait sits at its end) — the invariant that makes CP ≤ wall a
  // theorem rather than an observation.
  for (const obs::dag::Edge& e : g.edges) {
    const Node& src = g.nodes[static_cast<std::size_t>(e.src)];
    const Node& dst = g.nodes[static_cast<std::size_t>(e.dst)];
    const double dst_at = dst.kind == NodeKind::Wait ? dst.t1_us : dst.t0_us;
    EXPECT_LE(src.t1_us, dst_at + 1e-6)
        << "edge " << e.src << "->" << e.dst << " kind "
        << static_cast<int>(e.kind);
  }
}

TEST(DagRecord, JsonRoundTripIsExact) {
  const Graph g = record_small_run();
  json::Value v;
  ASSERT_NO_THROW(v = json::parse(g.to_json()));
  const Graph r = obs::dag::parse_graph(v);
  EXPECT_EQ(r.t0_us, g.t0_us);
  EXPECT_EQ(r.t1_us, g.t1_us);
  EXPECT_EQ(r.host_order, g.host_order);
  ASSERT_EQ(r.nodes.size(), g.nodes.size());
  for (std::size_t i = 0; i < g.nodes.size(); ++i) {
    EXPECT_EQ(static_cast<int>(r.nodes[i].kind), static_cast<int>(g.nodes[i].kind));
    EXPECT_EQ(r.nodes[i].label, g.nodes[i].label);
    EXPECT_EQ(r.nodes[i].site, g.nodes[i].site);
    EXPECT_EQ(r.nodes[i].ticket, g.nodes[i].ticket);
    EXPECT_EQ(r.nodes[i].cause, g.nodes[i].cause);
    EXPECT_EQ(r.nodes[i].enq_after, g.nodes[i].enq_after);
    EXPECT_EQ(r.nodes[i].t0_us, g.nodes[i].t0_us) << "%.17g timestamps round-trip";
    EXPECT_EQ(r.nodes[i].t1_us, g.nodes[i].t1_us);
  }
  ASSERT_EQ(r.edges.size(), g.edges.size());
  for (std::size_t i = 0; i < g.edges.size(); ++i) {
    EXPECT_EQ(r.edges[i].src, g.edges[i].src);
    EXPECT_EQ(r.edges[i].dst, g.edges[i].dst);
    EXPECT_EQ(static_cast<int>(r.edges[i].kind), static_cast<int>(g.edges[i].kind));
  }
}

TEST(DagRecord, ADeadStreamsDiscardedTaskIsAZeroLengthNode) {
  hybrid::Stream s;
  s.kill();
  obs::dag::start();
  s.enqueue("dev.gemm", [] {});  // discarded, never run
  s.synchronize();
  const Graph g = obs::dag::stop();
  ASSERT_EQ(g.count(NodeKind::Task), 1u);
  const Node& task = g.nodes[0];
  EXPECT_EQ(task.label, "dev.gemm");
  EXPECT_EQ(task.t0_us, task.t1_us);
  EXPECT_EQ(g.count(EdgeKind::Cause), 1u) << "the synchronize still waits on it";
}

TEST(DagRecord, MalformedNodeRowIsRejected) {
  const json::Value v = json::parse(
      R"({"version":1,"t0_us":0,"t1_us":1,"host_order":[],)"
      R"("nodes":[[0,0,-1,0,0,0,0.0,1.0,-1.0,0.0,-1,-1,"host"]],"edges":[]})");
  EXPECT_THROW({ const Graph g = obs::dag::parse_graph(v); }, json::parse_error);
}

TEST(DagWhatIf, PredictionsAreSane) {
  const Graph g = record_small_run();
  const obs::dag::Analysis an = obs::dag::analyze(g);
  EXPECT_GT(an.critical_path_s, 0.0);
  EXPECT_LE(an.critical_path_s, an.wall_s + 1e-12);
  EXPECT_LE(an.critical_path_data_s, an.critical_path_s + 1e-12);
  EXPECT_GE(an.attributed_frac, 0.0);
  EXPECT_LE(an.attributed_frac, 1.0);
  EXPECT_LE(an.attributed_s, an.host_blocked_s + 1e-12);

  const obs::dag::Prediction replay = obs::dag::simulate(g, {"replay", 0, 1, 1.0});
  const obs::dag::Prediction inf = obs::dag::simulate(
      g, {"infinite_streams", 0, obs::dag::kInfiniteStreams, 1.0});
  // The replay compresses untracked host gaps but honours every recorded
  // dependency, so it lands between the data-only critical path and the
  // recorded wall; extra streams can only help.
  EXPECT_LE(replay.wall_s, g.wall_s() + 1e-9);
  EXPECT_GE(replay.wall_s, an.critical_path_data_s - 1e-9);
  EXPECT_LE(inf.wall_s, replay.wall_s + 1e-9);
  EXPECT_GE(inf.wall_s, 0.0);
  for (const obs::dag::Prediction* p : {&replay, &inf}) {
    EXPECT_GE(p->overlap_fraction, 0.0);
    EXPECT_LE(p->overlap_fraction, 1.0);
    EXPECT_GT(p->speedup, 0.0);
  }

  // default_scenarios: the roofline-gemm entry appears only for a real
  // sub-unity scale.
  EXPECT_EQ(obs::dag::default_scenarios(1.0).size(), 4u);
  EXPECT_EQ(obs::dag::default_scenarios(0.0).size(), 4u);
  const auto with_roof = obs::dag::default_scenarios(0.5);
  ASSERT_EQ(with_roof.size(), 5u);
  EXPECT_EQ(with_roof.back().name, "lookahead1_roofline_gemm");
  EXPECT_DOUBLE_EQ(with_roof.back().dev_scale, 0.5);

  // The bench-report section parses and exposes the gated keys.
  std::vector<obs::dag::Prediction> what_if = {replay, inf};
  json::Value sec;
  ASSERT_NO_THROW(sec = json::parse(obs::dag::section_json(g, an, what_if)));
  EXPECT_GT(sec.at("tasks").as_number(), 0.0);
  EXPECT_GT(sec.at("waits").as_number(), 0.0);
  EXPECT_GT(sec.at("critical_path_s").as_number(), 0.0);
  EXPECT_EQ(sec.at("what_if").as_array().size(), 2u);
}

// ---- disabled log: zero cost ------------------------------------------------

TEST(DagOff, DisabledHooksRecordNothingAndNeverAllocate) {
  // CI arms the flight recorder for the whole suite (FTH_FLIGHT); the off
  // path is the one with every sink disarmed, so pause it for this test.
  const bool flight = obs::flight_active();
  obs::flight_stop();
  ASSERT_FALSE(obs::trace_enabled()) << "no sink may be armed for this test";
  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  // Every stream-layer entry point, exactly as src/hybrid calls it.
  for (std::uint64_t i = 0; i < 1000; ++i) {
    if (obs::trace_enabled()) obs::detail::log_enqueue(1, i, "dev.gemm", 1.0);
    {
      obs::TaskRecord task(1, i, "dev.gemm");
      obs::TraceSpan span("hybrid", "panel");
    }
    if (obs::trace_enabled()) obs::detail::log_transfer(1, i, 4096.0);
    if (obs::trace_enabled()) obs::detail::log_discard(1, i, "dev.gemm");
    { obs::WaitRecord wait("synchronize", std::source_location::current(), 1, i); }
    obs::counter("stream.queue_depth", 0.0);
    obs::journal_log(obs::JournalSeverity::Info, "test", "mark", -1, 1.0, 2, "detail");
  }
  const std::uint64_t after = g_allocs.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u)
      << "a disarmed log must be a relaxed load and nothing else";
  const Graph g = obs::dag::stop();
  EXPECT_TRUE(g.nodes.empty()) << "a disarmed log must not buffer records";
  EXPECT_EQ(g.wall_s(), 0.0);
  if (flight) obs::trace_init_from_env();  // re-arms FTH_FLIGHT
}

TEST(DagOff, AnArmedJournalLogsEventsWithoutAllocating) {
  const bool flight = obs::flight_active();
  obs::flight_stop();
  ASSERT_FALSE(obs::trace_enabled()) << "only the journal may be armed for this test";
  obs::journal_start(64);
  obs::journal_log(obs::JournalSeverity::Info, "test", "register");  // the thread's buffer
  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  for (int i = 0; i < 1000; ++i)
    obs::journal_log(obs::JournalSeverity::Warn, "test", "event", 1, static_cast<double>(i), i,
                     "detail");
  const std::uint64_t after = g_allocs.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u) << "an event is one 64-byte record copied into the ring";
  const std::vector<obs::JournalEvent> events = obs::journal_snapshot();
  ASSERT_EQ(events.size(), 64u);
  EXPECT_DOUBLE_EQ(events.back().value, 999.0);
  EXPECT_STREQ(events.back().detail, "detail");
  obs::journal_stop();
  if (flight) obs::trace_init_from_env();  // re-arms FTH_FLIGHT
}

}  // namespace
}  // namespace fth
