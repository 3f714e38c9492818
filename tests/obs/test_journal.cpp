// fth::obs journal: the bounded window of the event log behind incident
// capsules. The contract under test: off by default with a free off path,
// bounded ring (oldest records overwritten), run-id slicing, JSONL
// rendering that round-trips through the repo's own JSON reader, and one
// record per event that every armed reader sees with one timestamp.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "fault/fault_plane.hpp"
#include "fault/injector.hpp"
#include "ft/ft_gehrd.hpp"
#include "la/generate.hpp"
#include "obs/dag.hpp"
#include "obs/journal.hpp"

namespace fth::obs {
namespace {

/// Every test leaves the journal off — it is process-global state.
struct JournalGuard {
  ~JournalGuard() { journal_stop(); }
};

TEST(Journal, OffByDefaultAndLogIsANoOp) {
  JournalGuard guard;
  journal_stop();
  EXPECT_FALSE(journal_enabled());
  journal_log(JournalSeverity::Info, "ft", "detect", 0, 1.0, 2);
  EXPECT_TRUE(journal_snapshot().empty());
}

TEST(Journal, RecordsRoundTripWithAllFields) {
  JournalGuard guard;
  journal_start(128);
  ASSERT_TRUE(journal_enabled());
  const std::uint64_t run = journal_new_run();
  journal_log(JournalSeverity::Warn, "pool", "loss_detected", 2, 3.5, 7);
  journal_log(JournalSeverity::Error, "fault", "strike", 1, 0.0, -1,
              "exponent-flip @ trailing-matrix");

  const std::vector<JournalEvent> events = journal_snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].run_id, run);
  EXPECT_STREQ(events[0].component, "pool");
  EXPECT_STREQ(events[0].event, "loss_detected");
  EXPECT_EQ(events[0].device, 2);
  EXPECT_DOUBLE_EQ(events[0].value, 3.5);
  EXPECT_EQ(events[0].boundary, 7);
  EXPECT_EQ(events[0].severity, JournalSeverity::Warn);
  EXPECT_STREQ(events[0].detail, "");
  EXPECT_STREQ(events[1].detail, "exponent-flip @ trailing-matrix");
  EXPECT_GE(events[1].t_us, events[0].t_us) << "records must be time-ordered";
}

TEST(Journal, RingIsBoundedOldestFirst) {
  JournalGuard guard;
  journal_start(64);
  for (int i = 0; i < 200; ++i)
    journal_log(JournalSeverity::Info, "ft", "detect", -1, static_cast<double>(i));
  const std::vector<JournalEvent> events = journal_snapshot();
  ASSERT_EQ(events.size(), 64u) << "capacity bounds the ring";
  EXPECT_DOUBLE_EQ(events.front().value, 136.0) << "oldest surviving record";
  EXPECT_DOUBLE_EQ(events.back().value, 199.0);
}

TEST(Journal, RunIdSlicesTheSharedRing) {
  JournalGuard guard;
  journal_start(128);
  const std::uint64_t first = journal_new_run();
  journal_log(JournalSeverity::Info, "ft", "rollback");
  const std::uint64_t second = journal_new_run();
  ASSERT_GT(second, first);
  EXPECT_EQ(journal_run(), second);
  journal_log(JournalSeverity::Info, "ft", "reexec");
  journal_log(JournalSeverity::Info, "ft", "detect");
  EXPECT_EQ(journal_snapshot(first).size(), 1u);
  EXPECT_EQ(journal_snapshot(second).size(), 2u);
  journal_set_run(first);
  EXPECT_EQ(journal_run(), first);
}

TEST(Journal, JsonRendersEveryFieldAndParses) {
  JournalGuard guard;
  journal_start(64);
  journal_new_run();
  journal_log(JournalSeverity::Error, "check", "TransferRace", 1, 9.0, 3,
              "host read of \"u2\" before event");
  const std::vector<JournalEvent> events = journal_snapshot();
  ASSERT_EQ(events.size(), 1u);
  const json::Value v = json::parse(journal_event_json(events[0]));
  EXPECT_EQ(v.at("severity").as_string(), "error");
  EXPECT_EQ(v.at("component").as_string(), "check");
  EXPECT_EQ(v.at("event").as_string(), "TransferRace");
  EXPECT_EQ(v.at("device").as_number(), 1.0);
  EXPECT_EQ(v.at("value").as_number(), 9.0);
  EXPECT_EQ(v.at("boundary").as_number(), 3.0);
  EXPECT_EQ(v.at("detail").as_string(), "host read of \"u2\" before event");
  EXPECT_GT(v.at("t_us").as_number(), 0.0);
  EXPECT_GT(v.at("run").as_number(), 0.0);

  // FT runs journal NaN gaps (a poisoned detection); JSON has no NaN, so
  // the value is written as null and the line still parses.
  journal_log(JournalSeverity::Warn, "ft", "detect", 0,
              std::numeric_limits<double>::quiet_NaN(), 4);
  const std::string jsonl = journal_to_jsonl(journal_snapshot());
  const json::Value nan_rec = json::parse(jsonl.substr(jsonl.rfind('\n') + 1));
  EXPECT_TRUE(nan_rec.at("value").is_null());
  EXPECT_EQ(nan_rec.at("boundary").as_number(), 4.0);
}

TEST(Journal, JsonlDumpWritesOneLinePerRecord) {
  JournalGuard guard;
  journal_start(64);
  journal_log(JournalSeverity::Info, "pool", "started");
  journal_log(JournalSeverity::Info, "pool", "finished");
  const std::string jsonl = journal_to_jsonl(journal_snapshot());
  ASSERT_FALSE(jsonl.empty());
  EXPECT_EQ(std::count(jsonl.begin(), jsonl.end(), '\n'), 1) << "2 records, 1 separator";

  const std::string path = ::testing::TempDir() + "fth_journal_test.jsonl";
  ASSERT_TRUE(journal_write(path));
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char line[512];
  ASSERT_NE(std::fgets(line, sizeof line, f), nullptr);
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_NO_THROW((void)json::parse(line)) << "each JSONL line is one JSON object";
}

/// Timestamps of the "ft" events each reader saw, by event name.
using EventTimes = std::map<std::string, std::vector<double>>;

TEST(Journal, EachFtEventIsOneRecordEveryReaderSees) {
  const index_t n = 64, nb = 16;
  hybrid::Device dev;
  Matrix<double> a = random_matrix(n, n, 3);
  std::vector<double> tau(static_cast<std::size_t>(n - 1));
  fault::FaultSpec spec;
  spec.area = fault::Area::LowerTrailing;
  fault::Injector inj(spec, 3);
  ft::FtReport rep;

  JournalGuard guard;
  const std::string path = ::testing::TempDir() + "fth_journal_one_record.json";
  journal_start(4096);
  trace_start(path);
  dag::start();
  const std::uint64_t run = journal_new_run();
  ft::ft_gehrd(dev, a.view(), VectorView<double>(tau.data(), n - 1), {.nb = nb}, &inj, &rep);
  const dag::Graph g = dag::stop();
  trace_stop();
  ASSERT_GE(rep.detections, 1);

  EventTimes journal, trace, marks;
  for (const JournalEvent& e : journal_snapshot(run))
    if (std::string(e.component) == "ft") journal[e.event].push_back(e.t_us);
  const json::Value root = json::parse_file(path);
  for (const json::Value& ev : root.at("traceEvents").as_array())
    if (ev.at("ph").as_string() == "i" && ev.at("cat").as_string() == "ft")
      trace[ev.at("name").as_string()].push_back(ev.at("ts").as_number());
  for (const dag::Node& nd : g.nodes)
    if (nd.kind == dag::NodeKind::Mark && nd.label.rfind("ft/", 0) == 0)
      marks[nd.label.substr(3)].push_back(nd.t0_us);
  std::remove(path.c_str());

  // Each detection, rollback and re-execution is logged once...
  EXPECT_EQ(journal["detect"].size(), static_cast<std::size_t>(rep.detections));
  EXPECT_EQ(journal["rollback"].size(), static_cast<std::size_t>(rep.rollbacks));
  EXPECT_EQ(journal["reexec"].size(), static_cast<std::size_t>(rep.rollbacks));
  // ...and every reader holds that one record: same names, same clock
  // reading (the trace file prints microseconds to three decimals).
  ASSERT_EQ(trace.size(), journal.size());
  ASSERT_EQ(marks.size(), journal.size());
  for (const auto& [name, times] : journal) {
    ASSERT_EQ(trace[name].size(), times.size()) << name;
    ASSERT_EQ(marks[name].size(), times.size()) << name;
    for (std::size_t i = 0; i < times.size(); ++i) {
      EXPECT_NEAR(trace[name][i], times[i], 5e-4) << name;
      EXPECT_EQ(marks[name][i], times[i]) << name;
    }
  }
}

TEST(Journal, AWorkerStrikeAndTheHostDetectionComeBackInTimeOrder) {
  const index_t n = 96, nb = 32;
  const Matrix<double> a0 = random_matrix(n, n, 301);
  std::vector<double> tau(static_cast<std::size_t>(n - 1));
  const auto reduce = [&](fault::FaultPlane* plane, ft::FtReport* rep) {
    hybrid::Device dev;
    Matrix<double> a(a0.cview());
    ft::FtOptions o;
    o.nb = nb;
    o.fault_plane = plane;
    ft::ft_gehrd(dev, a.view(), VectorView<double>(tau.data(), n - 1), o, nullptr, rep);
  };
  fault::FaultPlane counter(1);
  reduce(&counter, nullptr);
  fault::InFlightFault f;
  f.when = fault::When::StreamTask;
  f.surface = fault::Surface::TrailingMatrix;
  f.kind = fault::FaultKind::ExponentFlip;
  f.countdown = counter.trigger_counts().tasks / 2;
  f.min_impact = 1.0;
  fault::FaultPlane plane(0xD15EA5Eull);
  plane.arm(f);

  JournalGuard guard;
  journal_start(4096);
  const std::uint64_t run = journal_new_run();
  ft::FtReport rep;
  reduce(&plane, &rep);
  ASSERT_TRUE(plane.all_fired());
  ASSERT_GE(rep.detections, 1);

  const std::vector<JournalEvent> events = journal_snapshot(run);
  std::ptrdiff_t strike = -1, detect = -1;
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].run_id, run);
    if (i > 0) EXPECT_GE(events[i].t_us, events[i - 1].t_us) << "records must be time-ordered";
    const std::string what = std::string(events[i].component) + "/" + events[i].event;
    if (what == "fault/strike" && strike < 0) strike = static_cast<std::ptrdiff_t>(i);
    if (what == "ft/detect" && detect < 0) detect = static_cast<std::ptrdiff_t>(i);
  }
  ASSERT_GE(strike, 0) << "the worker's strike is journaled";
  ASSERT_GE(detect, 0) << "the host's detection is journaled";
  EXPECT_LT(strike, detect);
  EXPECT_STRNE(events[static_cast<std::size_t>(strike)].detail, "");
}

TEST(Journal, StopDisarmsAndDropsTheRing) {
  JournalGuard guard;
  journal_start(64);
  journal_log(JournalSeverity::Info, "ft", "detect");
  journal_stop();
  EXPECT_FALSE(journal_enabled());
  EXPECT_TRUE(journal_snapshot().empty());
  EXPECT_FALSE(journal_write(::testing::TempDir() + "fth_journal_off.jsonl"));
}

}  // namespace
}  // namespace fth::obs
