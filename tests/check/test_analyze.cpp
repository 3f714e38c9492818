// fth::analyze — the static transfer/Event-discipline pass (DESIGN.md §11).
//
// Two layers of proof:
//  1. Engine unit tests on synthetic snippets: every rule fires on its
//     seed and stays quiet on the idiomatic spelling (the analysis is a
//     pure function of the source text, so these are deterministic).
//  2. Seeded regressions on the REAL driver sources: load each hybrid/FT
//     driver from FTH_REPO_ROOT, delete exactly one ordering edge (the
//     Event wait or synchronize() the U2 discipline depends on), and
//     assert the analyzer reports exactly that missing edge at the known
//     access site — plus the clean-tree golden: the unmodified sources
//     produce zero findings. The whole-tree gate is the analyze.repo
//     ctest (tools/fth_analyze.cpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "check/analyze.hpp"

namespace fth::check::analyze {
namespace {

namespace fs = std::filesystem;

std::string slurp(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Fragments as the tool reads them, from the repo tree, except that an
/// in-memory override wins: a seeded test mutates a shared fragment
/// without touching disk.
FragmentLoader repo_fragments(std::map<std::string, std::string> overrides = {}) {
  return [overrides = std::move(overrides)](const std::string& rel, std::string& text) {
    const auto it = overrides.find(rel);
    if (it != overrides.end()) {
      text = it->second;
      return true;
    }
    const fs::path p = fs::path(FTH_REPO_ROOT) / rel;
    if (!fs::is_regular_file(p)) return false;
    text = slurp(p);
    return true;
  };
}

std::vector<Finding> run(const std::string& path, const std::string& content,
                         Stats* stats = nullptr) {
  return analyze_source(path, content, stats, {}, repo_fragments());
}

// ---- scope ------------------------------------------------------------------

TEST(AnalyzeScope, HybridFtAndUserFacingSurfacesOnly) {
  EXPECT_TRUE(in_scope("src/hybrid/hybrid_gehrd.cpp"));
  EXPECT_TRUE(in_scope("src/ft/ft_sytrd.cpp"));
  EXPECT_TRUE(in_scope("examples/ex_hybrid.cpp"));
  EXPECT_TRUE(in_scope("bench/bench_table1_platform.cpp"));
  EXPECT_FALSE(in_scope("src/lapack/gehrd.cpp"));
  EXPECT_FALSE(in_scope("tests/hybrid/test_stream.cpp"));
  EXPECT_FALSE(in_scope("src/hybrid/README.md"));
  EXPECT_FALSE(in_scope("src/ft/two_code.inc"))
      << "a fragment is analyzed only inside the TUs that include it";
  EXPECT_TRUE(run("src/lapack/x.cpp", "void f(Stream& s) { dv.in_task(); }").empty())
      << "out-of-scope paths produce no findings at all";
}

// ---- transfer-race ----------------------------------------------------------

TEST(AnalyzeRace, D2hAnyMentionWithoutEdgeRaces) {
  const auto f = run("src/hybrid/x.cpp",
                     "void f(Stream& s) {\n"
                     "  copy_d2h_async(s, d_y.cview(), y.view());\n"
                     "  blas::trmm(y.view());\n"
                     "}\n");
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "transfer-race");
  EXPECT_EQ(f[0].line, 3);
  EXPECT_NE(f[0].message.find("'y'"), std::string::npos);
  EXPECT_NE(f[0].message.find("d2h"), std::string::npos);
  EXPECT_NE(f[0].missing_edge.find("wait on an Event recorded at/after ticket 1"),
            std::string::npos)
      << "the fix-it edge mirrors the runtime checker's wording";
}

TEST(AnalyzeRace, H2dRacesHostWritesOnly) {
  // A live h2d only *reads* the host buffer: concurrent host reads are
  // fine, writes race — same asymmetry as the runtime checker.
  const auto f = run("src/hybrid/x.cpp",
                     "void f(Stream& s) {\n"
                     "  copy_h2d_async(s, y.cview(), d_y.view());\n"
                     "  double t = y(0, 0);\n"
                     "  y(0, 0) = 1.0;\n"
                     "}\n");
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "transfer-race");
  EXPECT_EQ(f[0].line, 4);
  EXPECT_NE(f[0].message.find("write"), std::string::npos);
}

TEST(AnalyzeRace, EventWaitIsAnOrderingEdge) {
  EXPECT_TRUE(run("src/hybrid/x.cpp",
                  "void f(Stream& s) {\n"
                  "  copy_d2h_async(s, d_y.cview(), y.view());\n"
                  "  const Event done = s.record();\n"
                  "  done.wait();\n"
                  "  blas::trmm(y.view());\n"
                  "}\n")
                  .empty());
}

TEST(AnalyzeRace, EventRecordedBeforeTheTransferDoesNotCover) {
  const auto f = run("src/hybrid/x.cpp",
                     "void f(Stream& s) {\n"
                     "  const Event early = s.record();\n"
                     "  copy_d2h_async(s, d_y.cview(), y.view());\n"
                     "  early.wait();\n"
                     "  y(0, 0) = 1.0;\n"
                     "}\n");
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "transfer-race");
  EXPECT_EQ(f[0].line, 5);
}

TEST(AnalyzeRace, SynchronizeAndSyncCopiesRetireEverything) {
  EXPECT_TRUE(run("src/hybrid/x.cpp",
                  "void f(Stream& s) {\n"
                  "  copy_d2h_async(s, d_y.cview(), y.view());\n"
                  "  s.synchronize();\n"
                  "  y(0, 0) = 1.0;\n"
                  "}\n")
                  .empty());
  EXPECT_TRUE(run("src/hybrid/x.cpp",
                  "void f(Stream& s) {\n"
                  "  copy_h2d_async(s, y.cview(), d_y.view());\n"
                  "  copy_d2h(s, d_z.cview(), z.view());\n"
                  "  y(0, 0) = 1.0;\n"
                  "}\n")
                  .empty())
      << "a synchronous copy is enqueue + synchronize";
}

TEST(AnalyzeRace, TransferAndKernelArgumentsAreNotHostAccesses) {
  // Mentioning the buffer inside another stream operation's argument
  // list is FIFO-ordered device work, not a host touch.
  EXPECT_TRUE(run("src/hybrid/x.cpp",
                  "void f(Stream& s) {\n"
                  "  copy_d2h_async(s, d_y.cview(), y.view());\n"
                  "  gemm_async(s, 1.0, y.cview(), d_b.cview(), 0.0, d_c.view());\n"
                  "  s.synchronize();\n"
                  "}\n")
                  .empty());
}

TEST(AnalyzeRace, FunctionBoundariesResetTheSymbolicStream) {
  // The pass is per-function: a transfer left pending at the end of one
  // function must not leak races into the next.
  EXPECT_TRUE(run("src/hybrid/x.cpp",
                  "void f(Stream& s) { copy_d2h_async(s, d_y.cview(), y.view()); }\n"
                  "void g(Stream& s) { y(0, 0) = 1.0; }\n")
                  .empty());
}

// ---- cross-stream-race ------------------------------------------------------

TEST(AnalyzeCross, WaitForOnARecordedEventIsAnOrderingEdge) {
  // The pool drivers' health-checked waits: wait_for's timeout path has
  // no edge, but every driver throws on it, so the continuation is
  // ordered exactly like wait().
  EXPECT_TRUE(run("src/ft/x.cpp",
                  "void f(Stream& sd) {\n"
                  "  copy_d2h_async(sd, d_y.cview(), y.view());\n"
                  "  const Event done = sd.record();\n"
                  "  if (!done.wait_for(timeout_)) throw device_lost{0};\n"
                  "  blas::trmm(y.view());\n"
                  "}\n")
                  .empty());
}

TEST(AnalyzeCross, EffectOnAnotherStreamsLiveTransferNeedsAWaitEventEdge) {
  const auto f = run("src/ft/x.cpp",
                     "void f(Stream& sd, Stream& sc) {\n"
                     "  copy_d2h_async(sd, d_g.cview(), stage_g_.view());\n"
                     "  const Event shard_done = sd.record();\n"
                     "  sc.enqueue(\"pool.reduce\", FTH_TASK_EFFECTS(FTH_READS(stage_g_)),\n"
                     "             [=] { g(); });\n"
                     "  sc.synchronize();\n"
                     "}\n");
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "cross-stream-race");
  EXPECT_EQ(f[0].line, 4);
  EXPECT_NE(f[0].message.find("'stage_g_'"), std::string::npos);
  EXPECT_NE(f[0].message.find("'sd'"), std::string::npos);
  EXPECT_NE(f[0].missing_edge.find("wait_event"), std::string::npos);

  EXPECT_TRUE(run("src/ft/x.cpp",
                  "void f(Stream& sd, Stream& sc) {\n"
                  "  copy_d2h_async(sd, d_g.cview(), stage_g_.view());\n"
                  "  const Event shard_done = sd.record();\n"
                  "  sc.wait_event(shard_done);\n"
                  "  sc.enqueue(\"pool.reduce\", FTH_TASK_EFFECTS(FTH_READS(stage_g_)),\n"
                  "             [=] { g(); });\n"
                  "  sc.synchronize();\n"
                  "}\n")
                  .empty())
      << "the wait_event edge carries the producer's marker into the consumer";
}

TEST(AnalyzeCross, SameStreamPairsAreFifoOrdered) {
  EXPECT_TRUE(run("src/ft/x.cpp",
                  "void f(Stream& sd) {\n"
                  "  copy_d2h_async(sd, d_g.cview(), stage_g_.view());\n"
                  "  sd.enqueue(\"pool.reduce\", FTH_TASK_EFFECTS(FTH_READS(stage_g_)),\n"
                  "             [=] { g(); });\n"
                  "  sd.synchronize();\n"
                  "}\n")
                  .empty())
      << "a task behind its own stream's transfer needs no edge";
}

TEST(AnalyzeCross, AnEventRecordedBeforeTheTransferDoesNotCover) {
  const auto f = run("src/ft/x.cpp",
                     "void f(Stream& sd, Stream& sc) {\n"
                     "  const Event early = sd.record();\n"
                     "  copy_d2h_async(sd, d_g.cview(), stage_g_.view());\n"
                     "  sc.wait_event(early);\n"
                     "  sc.enqueue(\"pool.reduce\", FTH_TASK_EFFECTS(FTH_READS(stage_g_)),\n"
                     "             [=] { g(); });\n"
                     "  sc.synchronize();\n"
                     "}\n");
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "cross-stream-race");
  EXPECT_EQ(f[0].line, 5);
}

// ---- function summaries (DESIGN.md §11.3a) ----------------------------------

TEST(AnalyzeSummaries, HelperTransfersSpliceIntoTheCallerWithArgSubstitution) {
  // The helper starts a d2h into its *parameter*; the caller touches the
  // buffer it actually passed. v1 skipped the call and saw nothing.
  const auto f = run("src/ft/x.cpp",
                     "void ship(Stream& s, MatrixView<double> host) {\n"
                     "  copy_d2h_async(s, d_y.cview(), host);\n"
                     "}\n"
                     "void f(Stream& s) {\n"
                     "  ship(s, y_host_.view());\n"
                     "  y_host_(0, 0) = 1.0;\n"
                     "}\n");
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "transfer-race");
  EXPECT_EQ(f[0].line, 6);
  EXPECT_NE(f[0].message.find("'y_host_'"), std::string::npos)
      << "the callee's parameter root is substituted with the call-site argument";
  EXPECT_NE(f[0].message.find("line 2"), std::string::npos)
      << "the racing transfer is the one inside the helper";
}

TEST(AnalyzeSummaries, HelperWaitsRetireTheCallersTransfers) {
  EXPECT_TRUE(run("src/ft/x.cpp",
                  "void drain(Stream& s) { s.synchronize(); }\n"
                  "void f(Stream& s) {\n"
                  "  copy_d2h_async(s, d_y.cview(), y_host_.view());\n"
                  "  drain(s);\n"
                  "  y_host_(0, 0) = 1.0;\n"
                  "}\n")
                  .empty())
      << "a synchronize inside a helper is an ordering edge at the call site";
}

TEST(AnalyzeSummaries, CalleeInternalPairsAreNotReReportedAtTheCallSite) {
  // The helper races against ITSELF; the defect is reported once, at
  // the line inside the helper, not again for every call site.
  const auto f = run("src/ft/x.cpp",
                     "void bad(Stream& s) {\n"
                     "  copy_d2h_async(s, d_y.cview(), y_host_.view());\n"
                     "  y_host_(0, 0) = 1.0;\n"
                     "}\n"
                     "void f(Stream& s) {\n"
                     "  bad(s);\n"
                     "  s.synchronize();\n"
                     "  bad(s);\n"
                     "  s.synchronize();\n"
                     "}\n");
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].line, 3);
}

TEST(AnalyzeSummaries, ACrossCallRaceIsStillReportedAtTheSecondCallSite) {
  // ...but a SECOND call whose internal touch races the FIRST call's
  // still-live transfer is a genuine inter-call defect, anchored on the
  // call site that trips it.
  const auto f = run("src/ft/x.cpp",
                     "void bad(Stream& s) {\n"
                     "  copy_d2h_async(s, d_y.cview(), y_host_.view());\n"
                     "  y_host_(0, 0) = 1.0;\n"
                     "}\n"
                     "void f(Stream& s) {\n"
                     "  bad(s);\n"
                     "  bad(s);\n"
                     "}\n");
  ASSERT_EQ(f.size(), 2u);
  EXPECT_EQ(f[0].line, 3) << "the internal pair, once";
  EXPECT_EQ(f[1].line, 7) << "call #2's touch against call #1's transfer";
}

TEST(AnalyzeSummaries, ConditionallyEnqueuingHelperSummarizesAsTheMayUnion) {
  // The branch may or may not run; the summary keeps the transfer, which
  // is the conservative direction for the race rules.
  const auto f = run("src/ft/x.cpp",
                     "void maybe_ship(Stream& s, int flag) {\n"
                     "  if (flag != 0) copy_d2h_async(s, d_y.cview(), y_host_.view());\n"
                     "}\n"
                     "void f(Stream& s) {\n"
                     "  maybe_ship(s, 1);\n"
                     "  y_host_(0, 0) = 1.0;\n"
                     "}\n");
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "transfer-race");
  EXPECT_EQ(f[0].line, 6);
}

TEST(AnalyzeSummaries, ACalleeDefinedBelowItsCallerIsStillSpliced) {
  // Summaries must not depend on definition order: outer() reaches
  // start_fetch()'s d2h through caller(), wherever start_fetch is defined.
  const std::string start_fetch =
      "void start_fetch(Stream& s) {\n"
      "  copy_d2h_async(s, d_buf_.cview(), host_buf_.view());\n"
      "}\n";
  const std::string caller_and_outer =
      "void caller(Stream& s) {\n"
      "  start_fetch(s);\n"
      "}\n"
      "void outer(Stream& s) {\n"
      "  caller(s);\n"
      "  host_buf_(0, 0) = 1.0;\n"
      "}\n";
  const auto above = run("src/ft/x.cpp", start_fetch + caller_and_outer);
  ASSERT_EQ(above.size(), 1u);
  EXPECT_EQ(above[0].rule, "transfer-race");
  EXPECT_EQ(above[0].line, 9);
  const auto below = run("src/ft/x.cpp", caller_and_outer + start_fetch);
  ASSERT_EQ(below.size(), 1u) << "a helper defined further down must not vanish";
  EXPECT_EQ(below[0].rule, "transfer-race");
  EXPECT_EQ(below[0].line, 6);
  EXPECT_NE(below[0].message.find("line 9"), std::string::npos)
      << "the racing transfer is start_fetch's, two calls down";
}

TEST(AnalyzeSummaries, SplicedCallSitesAccumulateCalleeStats) {
  // The Stats undercount fix: two call sites of a helper with one
  // transfer contribute two transfers on top of the definition's own.
  Stats stats;
  EXPECT_TRUE(run("src/ft/x.cpp",
                  "void ship(Stream& s) {\n"
                  "  copy_d2h_async(s, d_y.cview(), y_host_.view());\n"
                  "  s.synchronize();\n"
                  "}\n"
                  "void f(Stream& s) {\n"
                  "  ship(s);\n"
                  "  ship(s);\n"
                  "}\n",
                  &stats)
                  .empty());
  EXPECT_EQ(stats.calls, 2u);
  EXPECT_EQ(stats.transfers, 3u) << "once per definition + once per call site";
  EXPECT_EQ(stats.syncs, 3u);
}

// ---- loop-carried happens-before (DESIGN.md §11.3b) -------------------------

TEST(AnalyzeLoop, ATransferInFlightAcrossTheBackEdgeRacesTheNextIteration) {
  const auto f = run("src/hybrid/x.cpp",
                     "void f(Stream& s) {\n"
                     "  for (index_t i = 0; i < n; ++i) {\n"
                     "    y(0, 0) = 1.0;\n"
                     "    copy_d2h_async(s, d_y.cview(), y.view());\n"
                     "  }\n"
                     "  s.synchronize();\n"
                     "}\n");
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "loop-carried-race");
  EXPECT_EQ(f[0].line, 3);
  EXPECT_NE(f[0].message.find("line 4"), std::string::npos)
      << "the message names the back-edge source (the transfer's enqueue line)";
  EXPECT_NE(f[0].message.find("previous loop iteration"), std::string::npos);
}

TEST(AnalyzeLoop, AnEventRecordedInIterationIAndWaitedInIPlusOneIsClean) {
  // The lookahead pattern: the wait at the top of the body retires the
  // transfer the BOTTOM of the previous iteration started.
  EXPECT_TRUE(run("src/hybrid/x.cpp",
                  "void f(Stream& s) {\n"
                  "  copy_d2h_async(s, d_y.cview(), y.view());\n"
                  "  Event ready = s.record();\n"
                  "  for (index_t i = 0; i < n; ++i) {\n"
                  "    ready.wait();\n"
                  "    y(0, 0) = 1.0;\n"
                  "    copy_d2h_async(s, d_y.cview(), y.view());\n"
                  "    ready = s.record();\n"
                  "  }\n"
                  "  s.synchronize();\n"
                  "}\n")
                  .empty());
}

TEST(AnalyzeLoop, APreLoopTransferRetiredInsideTheLoopIsClean) {
  EXPECT_TRUE(run("src/hybrid/x.cpp",
                  "void f(Stream& s) {\n"
                  "  copy_d2h_async(s, d_y.cview(), y.view());\n"
                  "  const Event done = s.record();\n"
                  "  for (index_t i = 0; i < n; ++i) {\n"
                  "    done.wait();\n"
                  "    y(0, 0) = 1.0;\n"
                  "  }\n"
                  "}\n")
                  .empty());
}

TEST(AnalyzeLoop, ABoundedWaitForIsACrossIterationEdgeToo) {
  // wait_for's timeout path has no edge, but every driver throws on it,
  // so the straight-line continuation is ordered — in loops as well.
  EXPECT_TRUE(run("src/ft/x.cpp",
                  "void f(Stream& s) {\n"
                  "  copy_d2h_async(s, d_y.cview(), y.view());\n"
                  "  Event ready = s.record();\n"
                  "  for (index_t i = 0; i < n; ++i) {\n"
                  "    if (!ready.wait_for(timeout_)) throw device_lost{0};\n"
                  "    y(0, 0) = 1.0;\n"
                  "    copy_d2h_async(s, d_y.cview(), y.view());\n"
                  "    ready = s.record();\n"
                  "  }\n"
                  "  s.synchronize();\n"
                  "}\n")
                  .empty());
}

TEST(AnalyzeLoop, ASelfSynchronizingBodyStaysCleanAndCountsOnce) {
  // The v1 drivers' shape: the sync at the bottom empties the live set,
  // so nothing crosses the back-edge; the second symbolic iteration
  // must not double-count stats.
  Stats stats;
  EXPECT_TRUE(run("src/hybrid/x.cpp",
                  "void f(Stream& s) {\n"
                  "  for (index_t i = 0; i < n; ++i) {\n"
                  "    copy_d2h_async(s, d_y.cview(), y.view());\n"
                  "    s.synchronize();\n"
                  "    y(0, 0) = 1.0;\n"
                  "  }\n"
                  "}\n",
                  &stats)
                  .empty());
  EXPECT_EQ(stats.transfers, 1u);
  EXPECT_EQ(stats.syncs, 1u);
}

TEST(AnalyzeLoop, ACarriedTransferRacesAHelperTouchAtTheCallSite) {
  // Loop-carried + summaries composed: the touch lives in a helper, the
  // transfer crosses the back-edge; the finding anchors on the call.
  const auto f = run("src/ft/x.cpp",
                     "void factor(MatrixView<double> panel) { panel(0, 0) = 1.0; }\n"
                     "void f(Stream& s) {\n"
                     "  for (index_t i = 0; i < n; ++i) {\n"
                     "    factor(y_host_.view());\n"
                     "    copy_d2h_async(s, d_y.cview(), y_host_.view());\n"
                     "  }\n"
                     "  s.synchronize();\n"
                     "}\n");
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "loop-carried-race");
  EXPECT_EQ(f[0].line, 4);
}

// ---- unbounded-pool-wait ----------------------------------------------------

TEST(AnalyzePoolWait, PlainWaitOnAPoolMembersEventHangsOnALostDevice) {
  const auto f = run("src/ft/x.cpp",
                     "void f(DevicePool& pool) {\n"
                     "  Stream& sd = pool.stream(0);\n"
                     "  copy_d2h_async(sd, d_y.cview(), y.view());\n"
                     "  const Event done = sd.record();\n"
                     "  done.wait();\n"
                     "  y(0, 0) = 1.0;\n"
                     "}\n");
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "unbounded-pool-wait");
  EXPECT_EQ(f[0].line, 5);
  EXPECT_NE(f[0].missing_edge.find("wait_for"), std::string::npos);

  EXPECT_TRUE(run("src/ft/x.cpp",
                  "void f(DevicePool& pool) {\n"
                  "  Stream& sd = pool.stream(0);\n"
                  "  copy_d2h_async(sd, d_y.cview(), y.view());\n"
                  "  const Event done = sd.record();\n"
                  "  if (!done.wait_for(timeout_)) throw device_lost{0};\n"
                  "  y(0, 0) = 1.0;\n"
                  "}\n")
                  .empty())
      << "the health-checked bounded wait is the sanctioned spelling";
}

TEST(AnalyzePoolWait, PlainWaitOnASingleDeviceStreamStaysLegal) {
  EXPECT_TRUE(run("src/hybrid/x.cpp",
                  "void f(Stream& s) {\n"
                  "  copy_d2h_async(s, d_y.cview(), y.view());\n"
                  "  const Event done = s.record();\n"
                  "  done.wait();\n"
                  "  y(0, 0) = 1.0;\n"
                  "}\n")
                  .empty())
      << "only DevicePool member streams can be lost";
}

// ---- stale-checksum-write ---------------------------------------------------

TEST(AnalyzeStaleChk, AWriteOverProtectedStorageNeedsADominatingReencode) {
  const auto f = run("src/ft/x.cpp",
                     "void f(Stream& s_) {\n"
                     "  s_.enqueue(\"ft.couple\", FTH_TASK_EFFECTS(FTH_WRITES(d_chke_.view())),\n"
                     "             [=] { g(); });\n"
                     "  s_.synchronize();\n"
                     "}\n");
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "stale-checksum-write");
  EXPECT_EQ(f[0].line, 2);
  EXPECT_NE(f[0].message.find("'d_chke_'"), std::string::npos);
  EXPECT_NE(f[0].missing_edge.find("re-encode"), std::string::npos);
}

TEST(AnalyzeStaleChk, AnH2dRefreshFromHostTruthSanctionsTheWrite) {
  EXPECT_TRUE(run("src/ft/x.cpp",
                  "void f(Stream& s_) {\n"
                  "  copy_h2d_async(s_, seg.cview(), d_chke_.block(i, 0, ib, 1));\n"
                  "  s_.enqueue(\"ft.couple\", FTH_TASK_EFFECTS(FTH_WRITES(d_chke_.view())),\n"
                  "             [=] { g(); });\n"
                  "  s_.synchronize();\n"
                  "}\n")
                  .empty())
      << "the sytrd/gebrd couple-task pattern: re-encode then adjust";
}

TEST(AnalyzeStaleChk, AVerifyEndsTheSanction) {
  // After the next checksum comparison the old re-encode no longer
  // dominates: the write would drift from what verify just vouched for.
  const auto f = run("src/ft/x.cpp",
                     "void f(Stream& s_) {\n"
                     "  copy_h2d_async(s_, seg.cview(), d_chke_.block(i, 0, ib, 1));\n"
                     "  verify_checksums();\n"
                     "  s_.enqueue(\"ft.couple\", FTH_TASK_EFFECTS(FTH_WRITES(d_chke_.view())),\n"
                     "             [=] { g(); });\n"
                     "  s_.synchronize();\n"
                     "}\n");
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "stale-checksum-write");
  EXPECT_EQ(f[0].line, 4);
}

TEST(AnalyzeStaleChk, AnEncodeCallSanctionsEverythingUntilTheNextVerify) {
  EXPECT_TRUE(run("src/ft/x.cpp",
                  "void f(Stream& s_) {\n"
                  "  encode();\n"
                  "  s_.enqueue(\"ft.couple\", FTH_TASK_EFFECTS(FTH_WRITES(d_chke_.view())),\n"
                  "             [=] { g(); });\n"
                  "  s_.synchronize();\n"
                  "}\n")
                  .empty());
}

TEST(AnalyzeStaleChk, AWriteDeclaredThroughALocalAliasIsChecked) {
  // The code-update tasks declare their writes through a local view of
  // the code's tail; the alias names the protected root it binds.
  const std::string write =
      "  auto tail = d_chk1_.view().col(0).sub(1, 2);\n"
      "  s_.enqueue(\"ft.code_update\", FTH_TASK_EFFECTS(FTH_WRITES(tail)),\n"
      "             [tail] { tail.in_task()[0] += 1.0; });\n"
      "  s_.synchronize();\n"
      "}\n";
  const auto f = run("src/ft/x.cpp", "void f(Stream& s_) {\n" + write);
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "stale-checksum-write");
  EXPECT_EQ(f[0].line, 3);
  EXPECT_NE(f[0].message.find("'d_chk1_'"), std::string::npos);
  EXPECT_TRUE(run("src/ft/x.cpp",
                  "void f(Stream& s_) {\n"
                  "  copy_h2d_async(s_, seg.cview(), d_chk1_.block(i, 0, ib, 1));\n" +
                      write)
                  .empty())
      << "an h2d re-encode of d_chk1_ sanctions the aliased write";
  EXPECT_TRUE(run("src/ft/x.cpp",
                  "void f(Stream& s_, bool second) {\n"
                  "  auto code = second ? d_chk2_.view() : d_chk1_.view();\n"
                  "  s_.enqueue(\"ft.correct\", FTH_TASK_EFFECTS(FTH_WRITES(code)),\n"
                  "             [code] { code.in_task()(0, 0) = 1.0; });\n"
                  "  s_.synchronize();\n"
                  "}\n")
                  .empty())
      << "two_code.inc's write_code: the alias does not name one protected root";
}

TEST(AnalyzeStaleChk, ReadsOfProtectedStorageAreAlwaysLegal) {
  EXPECT_TRUE(run("src/ft/x.cpp",
                  "void f(Stream& s_) {\n"
                  "  s_.enqueue(\"ft.readback\", FTH_TASK_EFFECTS(FTH_READS(d_chke_.view())),\n"
                  "             [=] { g(); });\n"
                  "  s_.synchronize();\n"
                  "}\n")
                  .empty())
      << "detection reads the maintained code; only writes need a re-encode";
}

// ---- stream-not-idle --------------------------------------------------------

TEST(AnalyzeIdle, HostViewRequiresADrainedStream) {
  const auto f = run("src/hybrid/x.cpp",
                     "void f(Stream& s) {\n"
                     "  s.enqueue(\"dev.k\", FTH_TASK_EFFECTS(FTH_WRITES(d_y)),\n"
                     "            [=] { d_y.in_task()(0, 0) = 1.0; });\n"
                     "  auto h = host_view(d_y.view(), s);\n"
                     "}\n");
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "stream-not-idle");
  EXPECT_EQ(f[0].line, 4);
  EXPECT_NE(f[0].missing_edge.find("synchronize()"), std::string::npos);

  EXPECT_TRUE(run("src/hybrid/x.cpp",
                  "void f(Stream& s) {\n"
                  "  s.enqueue(\"dev.k\", FTH_TASK_EFFECTS(), [=] { g(); });\n"
                  "  s.synchronize();\n"
                  "  auto h = host_view(d_y.view(), s);\n"
                  "}\n")
                  .empty());
}

// ---- in-task-context --------------------------------------------------------

TEST(AnalyzeInTask, UnwrapOutsideAnEnqueuedLambdaIsFlagged) {
  const auto f = run("src/ft/x.cpp", "void f() { auto h = dv.in_task(); }\n");
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "in-task-context");
  // Inside the enqueued task lambda it is the sanctioned unwrap (the
  // AnalyzeIdle seed above already exercises that path staying quiet).
}

// ---- undeclared-task --------------------------------------------------------

TEST(AnalyzeEffects, TasksInTheDisciplinedLayersMustDeclare) {
  const std::string bare = "void f(Stream& s) { s.enqueue(\"ft.x\", [=] { g(); }); }\n";
  const auto f = run("src/ft/x.cpp", bare);
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "undeclared-task");
  EXPECT_NE(f[0].message.find("\"ft.x\""), std::string::npos);
  EXPECT_NE(f[0].message.find("FTH_TASK_EFFECTS"), std::string::npos);

  EXPECT_TRUE(run("src/ft/x.cpp",
                  "void f(Stream& s) {\n"
                  "  s.enqueue(\"ft.x\", FTH_TASK_EFFECTS(FTH_READS(a)), [=] { g(); });\n"
                  "}\n")
                  .empty());
  EXPECT_TRUE(run("src/hybrid/stream.hpp", bare).empty())
      << "the label-only forwarder in stream.hpp is the sanctioned hatch";
  EXPECT_TRUE(run("bench/x.cpp", bare).empty())
      << "the declared-effect rule is scoped to src/hybrid + src/ft";
}

// ---- chkrow-reencode --------------------------------------------------------

TEST(AnalyzeChkrow, ChecksumRowWritesMustComeFromReencodeOrCheckpoint) {
  const auto f = run(
      "src/ft/x.cpp",
      "void f(Stream& s_) {\n"
      "  copy_h2d_async(s_, a_.block(0, 0, 1, ib), d_e_.block(n_, i, 1, ib));\n"
      "  s_.synchronize();\n"
      "}\n");
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "chkrow-reencode");
  EXPECT_EQ(f[0].line, 2);
  EXPECT_NE(f[0].message.find("new_chkrow_"), std::string::npos);

  for (const char* good : {"new_chkrow_", "ckpt_chkrow_"}) {
    EXPECT_TRUE(run("src/ft/x.cpp",
                    "void f(Stream& s_) {\n  copy_h2d_async(s_, " + std::string(good) +
                        ".block(0, 0, 1, ib), d_e_.block(n_, i, 1, ib));\n"
                        "  s_.synchronize();\n}\n")
                    .empty())
        << good;
  }
}

// ---- the analysis reads code, not text --------------------------------------

TEST(AnalyzeLexing, CommentsStringsAndDeclarationsAreNotStreamOps) {
  Stats stats;
  EXPECT_TRUE(run("src/hybrid/x.cpp",
                  "// copy_d2h_async(s, d_y.cview(), y.view());\n"
                  "void copy_d2h_async(Stream& s, DMatrixView<const double> dev,\n"
                  "                    MatrixView<double> host);\n"
                  "void f(Stream& s) {\n"
                  "  const char* doc = \"copy_d2h_async(s, d.cview(), y.view())\";\n"
                  "  auto re = R\"(then y_upper_ready.wait(); fires)\";\n"
                  "  y(0, 0) = 1.0;\n"
                  "}\n",
                  &stats)
                  .empty());
  EXPECT_EQ(stats.transfers, 0u) << "neither the comment, the string, nor the "
                                    "declaration is a transfer call";
  EXPECT_EQ(stats.functions, 1u);
}

// ---- report format ----------------------------------------------------------

TEST(AnalyzeFormat, CarriesFileLineRuleAndRequiredEdge) {
  const auto f = run("src/hybrid/x.cpp",
                     "void f(Stream& s) {\n"
                     "  copy_d2h_async(s, d_y.cview(), y.view());\n"
                     "  y(0, 0) = 1.0;\n"
                     "}\n");
  ASSERT_EQ(f.size(), 1u);
  const std::string s = format(f[0]);
  EXPECT_NE(s.find("src/hybrid/x.cpp:3"), std::string::npos);
  EXPECT_NE(s.find("[transfer-race]"), std::string::npos);
  EXPECT_NE(s.find("required: wait on an Event"), std::string::npos);
}

// ---- .inc fragments ---------------------------------------------------------
//
// Quoted `.inc` includes are expanded in place; every token keeps its
// file of origin. These tests feed in-memory fragments.

std::vector<Finding> run_with(const std::string& path, const std::string& content,
                              std::map<std::string, std::string> fragments, bool perf = false) {
  return analyze_source(path, content, nullptr, Options{.perf = perf},
                        repo_fragments(std::move(fragments)));
}

TEST(AnalyzeFragments, ARaceInsideAFragmentIsReportedAtTheFragmentLine) {
  const auto f = run_with("src/ft/x.cpp",
                          "class Driver {\n"
                          " public:\n"
                          "#include \"ft/shared.inc\"\n"
                          "};\n",
                          {{"src/ft/shared.inc",
                            "  void fetch_and_touch(Stream& s) {\n"
                            "    copy_d2h_async(s, d_y_.cview(), y_.view());\n"
                            "    y_(0, 0) = 1.0;\n"
                            "  }\n"}});
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "transfer-race");
  EXPECT_EQ(f[0].file, "src/ft/shared.inc");
  EXPECT_EQ(f[0].line, 3);
  EXPECT_NE(f[0].message.find("enqueued at src/ft/shared.inc:2"), std::string::npos)
      << f[0].message;
  const std::string sarif = to_sarif(f);
  EXPECT_NE(sarif.find("\"uri\": \"src/ft/shared.inc\"}, \"region\": {\"startLine\": 3}"),
            std::string::npos)
      << "SARIF locates the finding in the fragment too";
}

TEST(AnalyzeFragments, AFragmentHelperCalledFromTheTuIsSplicedWithItsOrigin) {
  // The fragment sits below its caller, as the FT drivers' shared code
  // sits above the hooks it calls.
  const auto f = run_with("src/ft/x.cpp",
                          "void outer(Stream& s) {\n"
                          "  start(s);\n"
                          "  y_(0, 0) = 1.0;\n"
                          "}\n"
                          "#include \"ft/shared.inc\"\n",
                          {{"src/ft/shared.inc",
                            "void start(Stream& s) {\n"
                            "  copy_d2h_async(s, d_y_.cview(), y_.view());\n"
                            "}\n"}});
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].file, "src/ft/x.cpp");
  EXPECT_EQ(f[0].line, 3);
  EXPECT_NE(f[0].message.find("enqueued at src/ft/shared.inc:2"), std::string::npos)
      << f[0].message;
}

TEST(AnalyzeFragments, AnExpectMarkerInsideAFragmentIsHonouredThere) {
  const std::string body =
      "void f(Stream& s) {\n"
      "  copy_h2d_async(s, y.cview(), d_y.view());\n"
      "  gemm_async(s, 1.0, d_a.cview(), d_b.cview(), 0.0, d_c.view());\n"
      "  // fth-perf: expect coarse-synchronize\n"
      "  s.synchronize();\n"
      "}\n";
  const auto marked =
      run_with("src/ft/x.cpp", "#include \"ft/shared.inc\"\n", {{"src/ft/shared.inc", body}},
               /*perf=*/true);
  ASSERT_EQ(marked.size(), 1u);
  EXPECT_EQ(marked[0].rule, "coarse-synchronize");
  EXPECT_EQ(marked[0].file, "src/ft/shared.inc");
  EXPECT_EQ(marked[0].line, 5);
  EXPECT_TRUE(marked[0].expected);

  // A marker on the same line number of the including TU is another file.
  std::string unmarked = body;
  unmarked.replace(unmarked.find("fth-perf: expect"), 16, "no marker here..");
  const auto f = run_with("src/ft/x.cpp",
                          "#include \"ft/shared.inc\"\n\n\n"
                          "// fth-perf: expect coarse-synchronize\n\n",
                          {{"src/ft/shared.inc", unmarked}}, /*perf=*/true);
  ASSERT_EQ(f.size(), 1u);
  EXPECT_FALSE(f[0].expected);
}

TEST(AnalyzeFragments, AMissingOrSelfIncludingFragmentIsAnError) {
  const auto missing = run_with("src/ft/x.cpp",
                                "#include \"ft/ladder.hpp\"\n"
                                "#include \"ft/absent.inc\"\n",
                                {});
  ASSERT_EQ(missing.size(), 1u) << "headers are not expanded; fragments must be";
  EXPECT_EQ(missing[0].rule, "missing-fragment");
  EXPECT_EQ(missing[0].file, "src/ft/x.cpp");
  EXPECT_EQ(missing[0].line, 2);
  EXPECT_NE(missing[0].message.find("ft/absent.inc"), std::string::npos);
  EXPECT_FALSE(missing[0].perf);

  const auto loop = run_with("src/ft/x.cpp", "#include \"ft/loop.inc\"\n",
                             {{"src/ft/loop.inc", "\n#include \"loop.inc\"\n"}});
  ASSERT_EQ(loop.size(), 1u);
  EXPECT_EQ(loop[0].rule, "missing-fragment");
  EXPECT_EQ(loop[0].file, "src/ft/loop.inc");
  EXPECT_EQ(loop[0].line, 2);
  EXPECT_NE(loop[0].message.find("includes itself"), std::string::npos);
}

// ---- seeded regressions on the real drivers ---------------------------------

std::string repo_file(const std::string& rel) {
  const std::string content = slurp(fs::path(FTH_REPO_ROOT) / rel);
  EXPECT_FALSE(content.empty()) << rel;
  return content;
}

/// Delete the first occurrence of `needle` (the newline stays, so every
/// later line number is preserved).
std::string without(std::string content, const std::string& needle) {
  const std::size_t pos = content.find(needle);
  EXPECT_NE(pos, std::string::npos) << "seed not found: " << needle;
  if (pos != std::string::npos) content.erase(pos, needle.size());
  return content;
}

/// Replace the first occurrence of `from` with `to` (both single-line,
/// so every line number is preserved).
std::string replaced(std::string content, const std::string& from, const std::string& to) {
  const std::size_t pos = content.find(from);
  EXPECT_NE(pos, std::string::npos) << "seed not found: " << from;
  if (pos != std::string::npos) content.replace(pos, from.size(), to);
  return content;
}

/// The 1-based line of `anchor` in `content`, which must hold it exactly
/// once (0 when it does not).
int line_of(const std::string& content, const std::string& anchor) {
  const std::size_t pos = content.find(anchor);
  EXPECT_NE(pos, std::string::npos) << "anchor not found: " << anchor;
  if (pos == std::string::npos) return 0;
  EXPECT_EQ(content.find(anchor, pos + 1), std::string::npos)
      << "anchor not unique: " << anchor;
  const auto at = content.begin() + static_cast<std::ptrdiff_t>(pos);
  return 1 + static_cast<int>(std::count(content.begin(), at, '\n'));
}

struct SeededEdge {
  const char* file;        ///< repo-relative driver source
  const char* deleted;     ///< the one ordering edge removed
  const char* rule;        ///< expected finding
  const char* anchor;      ///< text of the expected access site's line
  const char* mentions;    ///< substring the message must carry
  std::size_t findings;    ///< total findings the deletion produces
};

// One entry per U2-critical edge in the hybrid and FT drivers. Each
// finding must land on the line of its anchor, the actual access site in
// the current sources (the clean-tree golden below catches drift the
// other way).
const SeededEdge kSeeds[] = {
    {"src/hybrid/hybrid_gehrd.cpp", "y_upper_ready.wait();", "transfer-race",
     "y_host.block(0, 0, i + 1, ib - 1));", "'y_host'", 1},
    {"src/hybrid/hybrid_gebrd.cpp", "operands_shipped.wait();", "transfer-race",
     "a(i + j, i + j) = d[i + j];", "'a'", 1},
    // The hook-branch drain: with no loop-bottom synchronize the trailing
    // GEMMs are still in flight at the iteration boundary, so deleting it
    // breaks the host_view unwrap.
    {"src/hybrid/hybrid_gebrd.cpp", "s.synchronize();  // host_view below", "stream-not-idle",
     ".dev_a = host_view(d_a.view(), s)});", "host_view", 1},
    {"src/ft/ft_gehrd.cpp", "y_upper_ready.wait();", "transfer-race",
     "y_host_.block(0, 0, i + 1, ib - 1));", "'y_host_'", 1},
    // ft_gebrd: the wait also covers the fault-injection helper's host
    // write of a_, so its deletion surfaces that second race (at the
    // inject_at_boundary splice in the shared run(), two_code.inc)
    // alongside the pivot-restore one.
    {"src/ft/ft_gebrd.cpp", "operands_shipped.wait();", "transfer-race",
     "a_(i + j, i + j) = d_[i + j];", "'a_'", 2},
    // The one inter-device edge of the pool driver's Y-top reduction:
    // without it the collector task reads stage_g_ while the producers'
    // d2h copies are still in flight (ISSUE 7 / DESIGN.md §13).
    {"src/ft/pool_gehrd.cpp", "sc.wait_event(shard_done);", "cross-stream-race",
     "sc.enqueue(\"pool.ytop_reduce\",", "'stage_g_'", 1},
};

TEST(AnalyzeSeeded, DeletingEachOrderingEdgeIsCaughtAtTheAccessSite) {
  for (const auto& seed : kSeeds) {
    const int line = line_of(repo_file(seed.file), seed.anchor);
    const auto f = run(seed.file, without(repo_file(seed.file), seed.deleted));
    ASSERT_EQ(f.size(), seed.findings) << seed.file << " minus `" << seed.deleted << "`";
    const Finding* hit = nullptr;
    for (const auto& x : f)
      if (x.file == seed.file && x.line == line) hit = &x;
    ASSERT_NE(hit, nullptr) << seed.file << ": nothing anchored at line " << line << " ("
                            << seed.anchor << ")";
    EXPECT_EQ(hit->rule, seed.rule) << seed.file;
    EXPECT_EQ(hit->file, seed.file);
    EXPECT_NE(hit->message.find(seed.mentions), std::string::npos)
        << seed.file << ": " << hit->message;
    EXPECT_FALSE(hit->missing_edge.empty())
        << "every discipline finding names the edge that would fix it";
  }
}

TEST(AnalyzeSeeded, AHostWriteInTheSharedFreshSumsIsCaughtFromEveryIncludingTu) {
  // Seeded inside the two-code fragment's one reader: the host write races
  // the seg_ re-encode h2d a re-executed iteration leaves in flight when
  // the recovery loop comes round to detect() again. Each TU that includes
  // the fragment reports it once, at the fragment line.
  const char* const frag = "src/ft/two_code.inc";
  const std::string head = "LineSums line_sums(index_t i2, bool both = true) {";
  const FragmentLoader seeded =
      repo_fragments({{frag, replaced(repo_file(frag), head, head + " seg_(0, 0) = 0.0;")}});
  for (const char* tu : {"src/ft/ft_sytrd.cpp", "src/ft/ft_gebrd.cpp"}) {
    const auto f = analyze_source(tu, repo_file(tu), nullptr, {}, seeded);
    ASSERT_EQ(f.size(), 1u) << tu;
    EXPECT_EQ(f[0].rule, "loop-carried-race") << tu;
    EXPECT_EQ(f[0].file, "src/ft/recovery_loop.inc") << "the redo loop's detect() call";
    EXPECT_NE(f[0].message.find("'seg_'"), std::string::npos) << f[0].message;
  }
  EXPECT_TRUE(run("src/ft/ft_gehrd.cpp", repo_file("src/ft/ft_gehrd.cpp")).empty())
      << "gehrd includes the recovery loop, not the two-code fragment";
}

TEST(AnalyzeSeeded, DeletingTheCheckpointSaveDrainIsCaughtFromEveryIncludingTu) {
  // The shared save's one drain retires the panel fetch, the code d2h and
  // their readback. Without it the first-column store touches the
  // checkpoint while the code d2h into it is in flight, in each TU that
  // includes the fragment.
  const char* const frag = "src/ft/checkpoint.inc";
  const int line = line_of(repo_file(frag), "    ckpt_.store_first();");
  const FragmentLoader seeded =
      repo_fragments({{frag, without(repo_file(frag), "s_.synchronize();")}});
  for (const char* tu : {"src/ft/ft_gehrd.cpp", "src/ft/ft_sytrd.cpp", "src/ft/ft_gebrd.cpp"}) {
    const auto f = analyze_source(tu, repo_file(tu), nullptr, {}, seeded);
    bool hit = false;
    for (const auto& x : f)
      hit = hit || (x.rule == "transfer-race" && x.file == frag && x.line == line &&
                    x.message.find("'ckpt_'") != std::string::npos);
    EXPECT_TRUE(hit) << tu << ": " << f.size() << " finding(s), none at the store";
  }
}

TEST(AnalyzeSeeded, RetargetingTheChecksumRowReencodeIsCaught) {
  // The §7 gotcha, made structural: sourcing the checksum-row h2d from
  // the (stale) trailing matrix instead of the re-encoded row.
  const auto f = run("src/ft/ft_gehrd.cpp",
                     [] {
                       std::string c = repo_file("src/ft/ft_gehrd.cpp");
                       const std::string from = "MatrixView<const double>(new_chkrow_";
                       const std::size_t pos = c.find(from);
                       EXPECT_NE(pos, std::string::npos);
                       c.replace(pos, from.size(), "MatrixView<const double>(scratch_");
                       return c;
                     }());
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "chkrow-reencode");
}

TEST(AnalyzeSeeded, StrippingATaskEffectDeclarationIsCaught) {
  const auto f = run("src/hybrid/dev_blas.cpp",
                     without(repo_file("src/hybrid/dev_blas.cpp"), "FTH_TASK_EFFECTS"));
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "undeclared-task");
}

// ---- seeded regressions on the lookahead fixture ----------------------------
//
// examples/lookahead_pipeline.cpp is the shape ROADMAP item 1 will take:
// a d2h in flight across the loop back-edge, helper-factored pipeline
// stages, a cross-stream wait_event edge, pool-member health waits, and
// a checksum re-encode dominating a protected write. Each test deletes
// (or rewrites) exactly one of its ordering edges in memory and asserts
// the expected rule at the exact line.

const char* const kFixture = "examples/lookahead_pipeline.cpp";

bool has_finding(const std::vector<Finding>& f, const char* rule, int line) {
  for (const auto& x : f)
    if (x.rule == rule && x.line == line) return true;
  return false;
}

TEST(AnalyzeFixture, TheCleanLookaheadPipelineIsProvenSafe) {
  EXPECT_TRUE(run(kFixture, repo_file(kFixture)).empty())
      << "the fixture is the clean spelling of the item-1 lookahead shape";
}

TEST(AnalyzeFixture, DeletingTheCrossIterationWaitIsALoopCarriedRace) {
  const auto f = run(
      kFixture,
      without(repo_file(kFixture),
              "if (!panel_ready_.wait_for(kHealthTimeout)) throw std::runtime_error(\"device "
              "0 lost\");"));
  // Both pipeline edges through that wait break: the priming transfer
  // (straight-line) and the back-edge one (loop-carried). Each is
  // reported once, at the factor_panel call that touches the panel.
  ASSERT_EQ(f.size(), 2u);
  EXPECT_TRUE(has_finding(f, "loop-carried-race", 80));
  EXPECT_TRUE(has_finding(f, "transfer-race", 80));
  for (const auto& x : f) {
    EXPECT_NE(x.message.find("'panel_host_'"), std::string::npos);
    EXPECT_NE(x.message.find("line 130"), std::string::npos)
        << "the racing transfer is the helper's d2h, seen through its summary";
  }
}

TEST(AnalyzeFixture, DeletingTheLookaheadRecordBreaksTheSameEdge) {
  // Without the record there is no marker for the top-of-loop wait to
  // retire through — the wait becomes a no-op on an unbound Event.
  const auto f = run(kFixture, without(repo_file(kFixture), "panel_ready_ = sc.record();"));
  EXPECT_TRUE(has_finding(f, "loop-carried-race", 80));
}

TEST(AnalyzeFixture, DeletingTheWaitEventEdgeIsACrossStreamRace) {
  const auto f = run(kFixture, without(repo_file(kFixture), "sc.wait_event(shard_done);"));
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "cross-stream-race");
  EXPECT_EQ(f[0].line, 152);
  EXPECT_NE(f[0].message.find("'stage_host_'"), std::string::npos);
  EXPECT_NE(f[0].missing_edge.find("wait_event"), std::string::npos);
}

TEST(AnalyzeFixture, DeletingTheChecksumReadbackWaitIsATransferRace) {
  const auto f = run(
      kFixture,
      without(repo_file(kFixture),
              "if (!chk_ready.wait_for(kHealthTimeout)) throw std::runtime_error(\"device 0 "
              "lost\");"));
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "transfer-race");
  EXPECT_EQ(f[0].line, 167);
  EXPECT_NE(f[0].message.find("'chk_host_'"), std::string::npos);
}

TEST(AnalyzeFixture, SwappingAPoolWaitForForPlainWaitIsCaught) {
  const auto f = run(kFixture,
                     replaced(repo_file(kFixture),
                              "if (!panel_ready_.wait_for(kHealthTimeout)) throw "
                              "std::runtime_error(\"device 0 lost\");",
                              "panel_ready_.wait();"));
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "unbounded-pool-wait");
  EXPECT_EQ(f[0].line, 78);
  EXPECT_NE(f[0].message.find("'panel_ready_'"), std::string::npos);
}

TEST(AnalyzeFixture, RemovingTheReencodeBeforeTheCoupleWriteIsCaught) {
  const auto f = run(
      kFixture,
      without(repo_file(kFixture),
              "copy_h2d_async(sc, chk_seg_.cview(), d_chk_.block(0, i, 1, nb_));"));
  // Reported in the helper's own body AND at the run()-loop call site
  // the summary splice anchors on — the write is unsanctioned in both
  // timelines.
  ASSERT_EQ(f.size(), 2u);
  EXPECT_TRUE(has_finding(f, "stale-checksum-write", 187));
  EXPECT_TRUE(has_finding(f, "stale-checksum-write", 92));
  for (const auto& x : f) EXPECT_NE(x.message.find("'d_chk_'"), std::string::npos);
}

// ---- SARIF ------------------------------------------------------------------

TEST(AnalyzeSarif, FindingsRenderAsSarif210WithTheRuleTable) {
  const auto f = run("src/hybrid/x.cpp",
                     "void f(Stream& s) {\n"
                     "  copy_d2h_async(s, d_y.cview(), y.view());\n"
                     "  y(0, 0) = 1.0;\n"
                     "}\n");
  ASSERT_EQ(f.size(), 1u);
  const std::string sarif = to_sarif(f);
  EXPECT_NE(sarif.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("\"ruleId\": \"transfer-race\""), std::string::npos);
  EXPECT_NE(sarif.find("\"uri\": \"src/hybrid/x.cpp\""), std::string::npos);
  EXPECT_NE(sarif.find("\"startLine\": 3"), std::string::npos);
  EXPECT_NE(sarif.find("required:"), std::string::npos)
      << "the fix-it edge is folded into the result message";
  // The full §11.4 rule table ships in every log, findings or not.
  for (const char* rule :
       {"loop-carried-race", "unbounded-pool-wait", "stale-checksum-write", "chkrow-reencode"})
    EXPECT_NE(sarif.find(std::string("\"id\": \"") + rule + "\""), std::string::npos) << rule;
}

TEST(AnalyzeSarif, AnEmptyRunIsAWellFormedLog) {
  const std::string sarif = to_sarif({});
  EXPECT_NE(sarif.find("\"results\": [\n"), std::string::npos);
  EXPECT_EQ(sarif.find("\"ruleId\""), std::string::npos);
}

// ---- the performance plane (DESIGN.md §11.5) --------------------------------
//
// Same engine, perf switch on. Every rule gets the kSeeds treatment:
// a synthetic seed it must fire on at the exact line, the idiomatic
// spelling it must stay quiet on, and a mutation of the REAL sources
// re-introducing the over-synchronization this PR removed.

std::vector<Finding> run_perf(const std::string& path, const std::string& content) {
  return analyze_source(path, content, nullptr, Options{.perf = true}, repo_fragments());
}

bool has_perf(const std::vector<Finding>& f, const char* rule, int line) {
  for (const auto& x : f)
    if (x.perf && x.rule == rule && x.line == line) return true;
  return false;
}

std::size_t perf_count(const std::vector<Finding>& f) {
  std::size_t n = 0;
  for (const auto& x : f) n += x.perf ? 1 : 0;
  return n;
}

TEST(AnalyzePerf, OffByDefaultAndScopedToTheOverlapSurfaces) {
  // The record precedes the transfer, so the synchronize() is the d2h's
  // fetch-join (never coarse) and the wait's marker is already
  // host-ordered: exactly one advisory, the redundant wait.
  const std::string seed =
      "void f(Stream& s) {\n"
      "  const Event done = s.record();\n"
      "  copy_d2h_async(s, d_y.cview(), y.view());\n"
      "  s.synchronize();\n"
      "  done.wait();\n"
      "  y(0, 0) = 1.0;\n"
      "}\n";
  EXPECT_TRUE(run("src/ft/x.cpp", seed).empty())
      << "the default Options never even compute the plane";
  EXPECT_TRUE(run_perf("bench/x.cpp", seed).empty())
      << "bench/ is correctness-scoped but not an overlap surface";
  EXPECT_TRUE(run_perf("src/hybrid/stream.cpp", seed).empty())
      << "only the hybrid_* drivers opt into the perf plane under src/hybrid/";
  const auto f = run_perf("src/ft/x.cpp", seed);
  ASSERT_EQ(f.size(), 1u);
  EXPECT_TRUE(f[0].perf);
  EXPECT_FALSE(f[0].expected);
}

TEST(AnalyzePerfRedundantWait, AWaitAlreadyHostOrderedOnEveryPathFires) {
  const auto f = run_perf("src/ft/x.cpp",
                          "void f(Stream& s) {\n"
                          "  const Event done = s.record();\n"
                          "  copy_d2h_async(s, d_y.cview(), y.view());\n"
                          "  s.synchronize();\n"
                          "  done.wait();\n"
                          "  y(0, 0) = 1.0;\n"
                          "}\n");
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "redundant-wait");
  EXPECT_EQ(f[0].line, 5);
  EXPECT_TRUE(f[0].perf);
  EXPECT_NE(f[0].message.find("retires nothing"), std::string::npos);
  EXPECT_NE(f[0].missing_edge.find("drop the wait"), std::string::npos)
      << "perf findings carry the fix-it in the missing_edge slot";

  EXPECT_TRUE(run_perf("src/ft/x.cpp",
                       "void f(Stream& s) {\n"
                       "  copy_d2h_async(s, d_y.cview(), y.view());\n"
                       "  const Event done = s.record();\n"
                       "  done.wait();\n"
                       "  y(0, 0) = 1.0;\n"
                       "}\n")
                  .empty())
      << "a wait that is the one retiring edge is load-bearing, not redundant";
}

TEST(AnalyzePerfRedundantWait, ASameStreamWaitEventFires) {
  const auto f = run_perf("src/ft/x.cpp",
                          "void f(Stream& sc) {\n"
                          "  const Event e = sc.record();\n"
                          "  sc.wait_event(e);\n"
                          "  sc.synchronize();\n"
                          "}\n");
  ASSERT_TRUE(has_perf(f, "redundant-wait", 3));
  EXPECT_TRUE(run_perf("src/ft/x.cpp",
                       "void f(Stream& sd, Stream& sc) {\n"
                       "  copy_d2h_async(sd, d_g.cview(), stage_g_.view());\n"
                       "  const Event e = sd.record();\n"
                       "  sc.wait_event(e);\n"
                       "  sc.enqueue(\"pool.reduce\", FTH_TASK_EFFECTS(FTH_READS(stage_g_)),\n"
                       "             [=] { g(stage_g_); });\n"
                       "}\n")
                  .empty())
      << "a genuine cross-stream edge is justified, never redundant";
}

TEST(AnalyzePerfCoarseSync, ABarrierWiderThanTheNewestObligationFires) {
  const auto f = run_perf("src/hybrid/hybrid_x.cpp",
                          "void f(Stream& s) {\n"
                          "  copy_h2d_async(s, y.cview(), d_y.view());\n"
                          "  gemm_async(s, 1.0, d_a.cview(), d_b.cview(), 0.0, d_c.view());\n"
                          "  s.synchronize();\n"
                          "}\n");
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "coarse-synchronize");
  EXPECT_EQ(f[0].line, 4);
  EXPECT_NE(f[0].message.find("line 2"), std::string::npos)
      << "the message names the transfer that is the real obligation";
  EXPECT_NE(f[0].missing_edge.find("record an Event"), std::string::npos)
      << "the fix-it names the narrower record()/wait pair";
}

TEST(AnalyzePerfCoarseSync, AHelperOfAHelperReplaysNoPhantomDeviceOp) {
  // The FT drivers' deferred checkpoint seal: host-only helpers, one
  // calling the other, between a product's d2h and its waiter. Spliced,
  // they add no device op, so the barrier stays the d2h's fetch-join.
  const auto f = run_perf("src/ft/x.cpp",
                          "double inner(const Matrix<double>& m) { return m(0, 0); }\n"
                          "void outer(Matrix<double>& m) { m(1, 1) = inner(m); }\n"
                          "void f(Stream& s) {\n"
                          "  copy_d2h_async(s, d_y.cview(), y.view());\n"
                          "  outer(z);\n"
                          "  s.synchronize();\n"
                          "  y(0, 0) = 1.0;\n"
                          "}\n");
  EXPECT_EQ(perf_count(f), 0u);
  for (const auto& x : f) ADD_FAILURE() << format(x);
}

TEST(AnalyzePerfCoarseSync, AHostViewInTheSameScopeJustifiesTheDrain) {
  EXPECT_TRUE(run_perf("src/hybrid/hybrid_x.cpp",
                       "void f(Stream& s) {\n"
                       "  copy_h2d_async(s, y.cview(), d_y.view());\n"
                       "  gemm_async(s, 1.0, d_a.cview(), d_b.cview(), 0.0, d_c.view());\n"
                       "  s.synchronize();\n"
                       "  auto h = host_view(d_y.view(), s);\n"
                       "}\n")
                  .empty())
      << "drain-before-unwrap is the discipline, not over-synchronization";
}

TEST(AnalyzePerfCoarseSync, AHostViewInsideABraceInitializerIsTheSameScope) {
  // The hybrid drivers' hook branch: the unwrap sits inside the
  // IterationHookContext{...} designated-initializer braces. Those are
  // expression braces, not a statement scope — the justification must
  // see through them (they bit the first rollout of the drivers' fix).
  EXPECT_TRUE(run_perf("src/hybrid/hybrid_x.cpp",
                       "void f(Stream& s, const IterationHook& hook) {\n"
                       "  copy_h2d_async(s, y.cview(), d_y.view());\n"
                       "  gemm_async(s, 1.0, d_a.cview(), d_b.cview(), 0.0, d_c.view());\n"
                       "  if (hook) {\n"
                       "    s.synchronize();\n"
                       "    hook(IterationHookContext{.dev_a = host_view(d_y.view(), s)});\n"
                       "  }\n"
                       "}\n")
                  .empty());
}

TEST(AnalyzePerfCoarseSync, ABarrierOutsideTheConsumingBranchStillFires) {
  const auto f = run_perf("src/hybrid/hybrid_x.cpp",
                          "void f(Stream& s, const IterationHook& hook) {\n"
                          "  copy_h2d_async(s, y.cview(), d_y.view());\n"
                          "  gemm_async(s, 1.0, d_a.cview(), d_b.cview(), 0.0, d_c.view());\n"
                          "  s.synchronize();\n"
                          "  if (hook) {\n"
                          "    hook(IterationHookContext{.dev_a = host_view(d_y.view(), s)});\n"
                          "  }\n"
                          "}\n");
  EXPECT_TRUE(has_perf(f, "coarse-synchronize", 4))
      << "the common path pays the drain the rare branch needs: movable";
}

TEST(AnalyzePerfCoarseSync, AnExpectMarkerTurnsTheFindingIntoAnExemplar) {
  const auto f = run_perf("src/ft/x.cpp",
                          "void f(Stream& s) {\n"
                          "  copy_h2d_async(s, y.cview(), d_y.view());\n"
                          "  gemm_async(s, 1.0, d_a.cview(), d_b.cview(), 0.0, d_c.view());\n"
                          "  // fth-perf: expect coarse-synchronize\n"
                          "  s.synchronize();\n"
                          "}\n");
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "coarse-synchronize");
  EXPECT_TRUE(f[0].expected) << "the marker sanctions the barrier without hiding it";
}

TEST(AnalyzePerfFalseSerial, DisjointBackToBackTasksFire) {
  const auto f = run_perf(
      "src/ft/x.cpp",
      "void f(Stream& s) {\n"
      "  s.enqueue(\"ft.a\", FTH_TASK_EFFECTS(FTH_WRITES(d_y)), [=] { d_y.in_task(); });\n"
      "  s.enqueue(\"ft.b\", FTH_TASK_EFFECTS(FTH_WRITES(d_z)), [=] { d_z.in_task(); });\n"
      "}\n");
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "false-serialization");
  EXPECT_EQ(f[0].line, 3);
  ASSERT_EQ(f[0].tasks.size(), 2u) << "the finding carries the pair for --dag pricing";
  EXPECT_EQ(f[0].tasks[0], "ft.a");
  EXPECT_EQ(f[0].tasks[1], "ft.b");
}

TEST(AnalyzePerfFalseSerial, ConflictingOrBatchSiblingsStayQuiet) {
  EXPECT_TRUE(run_perf("src/ft/x.cpp",
                       "void f(Stream& s) {\n"
                       "  s.enqueue(\"ft.a\", FTH_TASK_EFFECTS(FTH_WRITES(d_y)),\n"
                       "            [=] { d_y.in_task(); });\n"
                       "  s.enqueue(\"ft.b\", FTH_TASK_EFFECTS(FTH_READS(d_y)),\n"
                       "            [=] { d_y.in_task(); });\n"
                       "}\n")
                  .empty())
      << "a write-read pair on one root is a genuine FIFO dependence";
  EXPECT_TRUE(run_perf("src/ft/x.cpp",
                       "void f(Stream& s) {\n"
                       "  s.enqueue(\"ft.a\", FTH_TASK_EFFECTS(FTH_WRITES(d_y)),\n"
                       "            [=] { d_y.in_task(); });\n"
                       "  s.enqueue(\"ft.a\", FTH_TASK_EFFECTS(FTH_WRITES(d_z)),\n"
                       "            [=] { d_z.in_task(); });\n"
                       "}\n")
                  .empty())
      << "same-label neighbours are batch siblings: distributing them is "
         "the DevicePool's job, not a per-pair rewrite";
}

TEST(AnalyzePerfOverWide, ADeclaredRootTheBodyNeverMentionsFires) {
  const auto f = run_perf(
      "src/ft/x.cpp",
      "void f(Stream& s) {\n"
      "  s.enqueue(\"ft.k\", FTH_TASK_EFFECTS(FTH_READS(h_x) FTH_WRITES(d_y)),\n"
      "            [=] { d_y.in_task()(0, 0) = 1.0; });\n"
      "  s.synchronize();\n"
      "}\n");
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "over-wide-effects");
  EXPECT_EQ(f[0].line, 2);
  EXPECT_NE(f[0].message.find("'h_x'"), std::string::npos);
}

TEST(AnalyzePerfOverWide, ALocalAliasOfTheRootCountsAsAMention) {
  EXPECT_TRUE(run_perf("src/ft/x.cpp",
                       "void f(Stream& s) {\n"
                       "  auto ce = d_chke_.view();\n"
                       "  encode();\n"
                       "  s.enqueue(\"ft.couple\", FTH_TASK_EFFECTS(FTH_WRITES(d_chke_.view())),\n"
                       "            [ce] { ce.in_task()(0, 0) += 1.0; });\n"
                       "  s.synchronize();\n"
                       "}\n")
                  .empty())
      << "capturing a view bound from the root IS a use of the root";
}

TEST(AnalyzePerfDeadTransfer, AnOverwrittenUnconsumedH2dFires) {
  const auto f = run_perf("src/ft/x.cpp",
                          "void f(Stream& s) {\n"
                          "  copy_h2d_async(s, y.cview(), d_y.view());\n"
                          "  copy_h2d_async(s, y.cview(), d_y.view());\n"
                          "}\n");
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "dead-transfer");
  EXPECT_EQ(f[0].line, 2) << "the DEAD copy is the first one";
  EXPECT_NE(f[0].message.find("line 3"), std::string::npos);

  EXPECT_TRUE(run_perf("src/ft/x.cpp",
                       "void f(Stream& s) {\n"
                       "  copy_h2d_async(s, y.cview(), d_y.view());\n"
                       "  gemm_async(s, 1.0, d_y.cview(), d_b.cview(), 0.0, d_c.view());\n"
                       "  copy_h2d_async(s, y.cview(), d_y.view());\n"
                       "}\n")
                  .empty())
      << "a device op between the copies consumes the first payload";
}

TEST(AnalyzePerfDeadTransfer, AReFetchedUnreadD2hFires) {
  const auto f = run_perf("src/ft/x.cpp",
                          "void f(Stream& s) {\n"
                          "  copy_d2h(s, d_y.cview(), y.view());\n"
                          "  copy_d2h(s, d_y.cview(), y.view());\n"
                          "}\n");
  ASSERT_TRUE(has_perf(f, "dead-transfer", 2));
  EXPECT_TRUE(run_perf("src/ft/x.cpp",
                       "void f(Stream& s) {\n"
                       "  copy_d2h(s, d_y.cview(), y.view());\n"
                       "  double t = y(0, 0);\n"
                       "  copy_d2h(s, d_y.cview(), y.view());\n"
                       "}\n")
                  .empty())
      << "a host read between the fetches consumes the first payload";
}

// ---- lambda captures (the panel waiter idiom) --------------------------------
//
// A panel provider launches a d2h into the column view it was handed and
// returns a waiter that synchronizes and may then read that view. Creating
// the waiter copies the view (a pointer and a shape), which touches no
// buffer byte; only the waiter's body, walked inline, reads it.

const char* const kWaiter =
    "void f(Stream& s) {\n"
    "  panel(a, [&](index_t j, VectorView<double> y_col) {\n"
    "    copy_d2h_async(s, d_y.cview(), MatrixView<double>(y_col.data(), 4, 1, 4));\n"
    "    return [&s, y_col] {\n"
    "      s.synchronize();\n"
    "      if (y_col[0] != y_col[0]) throw 1;\n"
    "    };\n"
    "  });\n"
    "}\n";

TEST(AnalyzeCapture, CopyingAViewIntoTheWaiterTouchesNoBuffer) {
  EXPECT_TRUE(run("src/ft/x.cpp", kWaiter).empty());
  EXPECT_TRUE(run_perf("src/ft/x.cpp", kWaiter).empty())
      << "the read after the waiter's synchronize() is a fetch-join, not a coarse barrier";
}

TEST(AnalyzeCapture, AWaiterThatSkipsTheWaitStillRacesAtTheRead) {
  const auto f = run("src/ft/x.cpp", without(kWaiter, "s.synchronize();"));
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "transfer-race");
  EXPECT_EQ(f[0].line, 6) << "the body's read, not the capture, is the access";
}

TEST(AnalyzeCapture, CopyingAnOwningBufferReadsIt) {
  // Matrix<double> is not a view: a by-copy capture copies its elements,
  // a read of the live d2h destination at closure creation.
  const auto f = run("src/ft/x.cpp",
                     "void f(Stream& s) {\n"
                     "  Matrix<double> y(4, 1);\n"
                     "  copy_d2h_async(s, d_y.cview(), y.view());\n"
                     "  auto w = [&s, y] { s.synchronize(); };\n"
                     "}\n");
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "transfer-race");
  EXPECT_EQ(f[0].line, 4);
}

TEST(AnalyzeCapture, AnInitCaptureInitializerIsHostCode) {
  const auto f = run("src/ft/x.cpp",
                     "void f(Stream& s, VectorView<double> y) {\n"
                     "  copy_d2h_async(s, d_y.cview(), MatrixView<double>(y.data(), 4, 1, 4));\n"
                     "  auto w = [&s, first = y[0]] { s.synchronize(); };\n"
                     "}\n");
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "transfer-race");
  EXPECT_EQ(f[0].line, 3);
  EXPECT_TRUE(run("src/ft/x.cpp",
                  "void f(Stream& s, VectorView<double> y) {\n"
                  "  copy_d2h_async(s, d_y.cview(), MatrixView<double>(y.data(), 4, 1, 4));\n"
                  "  auto w = [&s, &y, this] { s.synchronize(); };\n"
                  "  int v[2] = {0, 1};\n"
                  "  v[1] = v[0];\n"
                  "}\n")
                  .empty())
      << "by-reference and this captures touch nothing; subscripts are not captures";
}

// ---- perf plane, seeded on the real sources ---------------------------------
//
// Re-introduce the exact over-synchronization this PR removed from the
// drivers (or widen what it narrowed) and assert the advisory lands at
// the seeded line. `replaced` keeps one statement per line, so the
// mutation's line is the line the seed names.

TEST(AnalyzePerfSeeded, ReAddingTheGehrdLoopBottomBarrierIsCoarse) {
  const std::string src = repo_file("src/hybrid/hybrid_gehrd.cpp");
  const auto f =
      run_perf("src/hybrid/hybrid_gehrd.cpp",
               replaced(src, "++st.panels;", "++st.panels;\n        s.synchronize();"));
  EXPECT_TRUE(has_perf(f, "coarse-synchronize", line_of(src, "++st.panels;") + 1))
      << "the pre-PR loop-bottom drain is re-flagged where it was removed";
}

TEST(AnalyzePerfSeeded, DoublingTheGebrdOperandsWaitIsRedundant) {
  const std::string src = repo_file("src/hybrid/hybrid_gebrd.cpp");
  const auto f =
      run_perf("src/hybrid/hybrid_gebrd.cpp",
               replaced(src, "operands_shipped.wait();",
                        "operands_shipped.wait();\n        operands_shipped.wait();"));
  EXPECT_TRUE(has_perf(f, "redundant-wait", line_of(src, "operands_shipped.wait();") + 1))
      << "the second wait's marker is already host-ordered by the first";
}

TEST(AnalyzePerfSeeded, DuplicatingTheGehrdTUploadIsADeadTransfer) {
  const std::string src = repo_file("src/hybrid/hybrid_gehrd.cpp");
  const std::string t_h2d =
      "copy_h2d_async(s, t_host.block(0, 0, ib, ib), d_t.block(0, 0, ib, ib));";
  const auto f = run_perf("src/hybrid/hybrid_gehrd.cpp",
                          replaced(src, t_h2d, t_h2d + "\n        " + t_h2d));
  EXPECT_TRUE(has_perf(f, "dead-transfer", line_of(src, t_h2d)))
      << "the first T upload is overwritten before any device op reads it";
}

TEST(AnalyzePerfSeeded, WideningALookaheadTaskFootprintIsCaught) {
  const std::string src = repo_file(kFixture);
  const std::string effects = "FTH_TASK_EFFECTS(FTH_WRITES(d_w_.view()))";
  const auto f = run_perf(kFixture, replaced(src, effects,
                                             "FTH_TASK_EFFECTS(FTH_READS(stage_host_.view()) "
                                             "FTH_WRITES(d_w_.view()))"));
  ASSERT_TRUE(has_perf(f, "over-wide-effects", line_of(src, effects)));
  for (const auto& x : f) {
    if (x.rule == "over-wide-effects") {
      EXPECT_FALSE(x.expected) << "the exemplar markers cover their own rules only";
    }
  }
}

TEST(AnalyzePerfSeeded, ThePristineFixtureCarriesExactlyTheTwoExemplars) {
  const std::string src = repo_file(kFixture);
  const auto f = run_perf(kFixture, src);
  ASSERT_EQ(perf_count(f), 2u);
  EXPECT_TRUE(has_perf(f, "redundant-wait", line_of(src, "sc.wait_event(fifo_already);")));
  EXPECT_TRUE(has_perf(f, "false-serialization", line_of(src, "sc.enqueue(\"look.scale_y\",")));
  for (const auto& x : f) {
    EXPECT_TRUE(x.expected) << format(x);
    EXPECT_FALSE(x.missing_edge.empty());
  }
}

TEST(AnalyzeGolden, CleanTreeHasZeroFindingsAndFullCoverage) {
  // One perf-enabled pass over the whole tree proves three goldens at
  // once: the correctness plane is empty, the perf plane reports ONLY
  // the committed `fth-perf: expect` exemplars, and the coverage stats
  // match the checked-in tests/check/analyze_golden.txt byte for byte.
  Stats stats;
  std::size_t files = 0;
  std::vector<Finding> findings;
  for (const char* dir : {"src/hybrid", "src/ft", "examples", "bench"}) {
    const fs::path top = fs::path(FTH_REPO_ROOT) / dir;
    if (!fs::exists(top)) continue;
    for (const auto& entry : fs::recursive_directory_iterator(top)) {
      if (!entry.is_regular_file()) continue;
      const std::string rel =
          entry.path().lexically_relative(fs::path(FTH_REPO_ROOT)).generic_string();
      if (!in_scope(rel)) continue;
      ++files;
      auto found = analyze_source(rel, slurp(entry.path()), &stats, Options{.perf = true},
                                  repo_fragments());
      findings.insert(findings.end(), found.begin(), found.end());
    }
  }
  std::size_t expected_exemplars = 0;
  for (const auto& finding : findings) {
    if (!finding.perf) {
      ADD_FAILURE() << "correctness: " << format(finding);
    } else if (finding.expected) {
      ++expected_exemplars;
    } else {
      ADD_FAILURE() << "unexpected advisory: " << format(finding);
    }
  }
  // The committed exemplar budget: the three FT encode() drains, the
  // two FT rollback drains, and the lookahead fixture's redundant-wait
  // + false-serialization pair. A new advisory is either a fix to make
  // or a marker (with rationale) to add — never silent drift.
  EXPECT_EQ(expected_exemplars, 7u);
  EXPECT_GE(files, 20u);
  // The pass must actually be *seeing* the discipline, not skipping it.
  // The exact whole-tree numbers (WITH summary splicing: every call
  // site of a helper with stream side-effects re-contributes the
  // callee's operations) live in tests/check/analyze_golden.txt, the
  // file `fth_analyze --stats-out` writes — regenerate it alongside any
  // driver/bench/example stream-traffic change:
  //   ./build/tools/fth_analyze --stats-out tests/check/analyze_golden.txt .
  // The analyze.repo ctest catches findings drift; this golden catches
  // *coverage* drift (a lexer or summary regression that silently stops
  // seeing half the tree).
  EXPECT_EQ(stats_lines(stats, files), repo_file("tests/check/analyze_golden.txt"));
  EXPECT_GE(stats.functions, 150u);
}

}  // namespace
}  // namespace fth::check::analyze
