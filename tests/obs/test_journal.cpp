// fth::obs journal: the bounded structured event log behind incident
// capsules. The contract under test: off by default with a free off path,
// bounded ring (oldest records overwritten), run-id slicing, and JSONL
// rendering that round-trips through the repo's own JSON reader.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <limits>
#include <string>

#include "common/json.hpp"
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
              std::string("exponent-flip @ trailing-matrix"));

  const std::vector<JournalEvent> events = journal_snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].run_id, run);
  EXPECT_STREQ(events[0].component, "pool");
  EXPECT_STREQ(events[0].event, "loss_detected");
  EXPECT_EQ(events[0].device, 2);
  EXPECT_DOUBLE_EQ(events[0].value, 3.5);
  EXPECT_EQ(events[0].boundary, 7);
  EXPECT_EQ(events[0].severity, JournalSeverity::Warn);
  EXPECT_TRUE(events[0].detail.empty());
  EXPECT_EQ(events[1].detail, "exponent-flip @ trailing-matrix");
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
              std::string("host read of \"u2\" before event"));
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
