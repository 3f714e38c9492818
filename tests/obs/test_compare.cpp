// fth::obs bench-report comparison: glob matching, report flattening,
// threshold parsing, and the regression verdicts the CI gate relies on —
// in particular that a >10% slowdown against a baseline is a violation and
// a within-tolerance wobble is not.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "common/json.hpp"
#include "obs/compare.hpp"

namespace fth::obs {
namespace {

// ---- glob -------------------------------------------------------------------

TEST(CompareGlob, StarQuestionAndLiterals) {
  EXPECT_TRUE(glob_match("rows.*.seconds", "rows.0.seconds"));
  EXPECT_TRUE(glob_match("rows.*.seconds", "rows.12.seconds"));
  EXPECT_FALSE(glob_match("rows.*.seconds", "rows.0.gflops"));
  EXPECT_TRUE(glob_match("*", "anything.at.all"));
  EXPECT_TRUE(glob_match("*", ""));
  EXPECT_TRUE(glob_match("rows.?.n", "rows.3.n"));
  EXPECT_FALSE(glob_match("rows.?.n", "rows.12.n"));
  EXPECT_TRUE(glob_match("a*b*c", "a-xx-b-yy-c"));
  EXPECT_FALSE(glob_match("a*b*c", "a-xx-c"));
  EXPECT_TRUE(glob_match("metrics.counters.ft.*", "metrics.counters.ft.detections"));
  EXPECT_FALSE(glob_match("exact", "exactly"));
  EXPECT_FALSE(glob_match("exactly", "exact"));
}

// ---- flatten ----------------------------------------------------------------

TEST(CompareFlatten, DottedPathsNumbersOnly) {
  const json::Value v = json::parse(
      R"({"bench":"x","notes":{"nb":32},"rows":[{"n":128,"gflops":1.5},{"n":256,"gflops":2.5}],)"
      R"("flag":true,"nothing":null})");
  std::map<std::string, double> flat;
  flatten_numbers(v, "", flat);
  EXPECT_EQ(flat.size(), 5u);  // strings, bools and nulls are skipped
  EXPECT_EQ(flat.at("notes.nb"), 32.0);
  EXPECT_EQ(flat.at("rows.0.n"), 128.0);
  EXPECT_EQ(flat.at("rows.0.gflops"), 1.5);
  EXPECT_EQ(flat.at("rows.1.n"), 256.0);
  EXPECT_EQ(flat.at("rows.1.gflops"), 2.5);
  EXPECT_EQ(flat.count("bench"), 0u);
  EXPECT_EQ(flat.count("flag"), 0u);
}

// ---- threshold parsing ------------------------------------------------------

TEST(CompareThresholds, ParsesModesCommentsAndBlanks) {
  std::istringstream in(
      "# perf gate\n"
      "rows.*.gflops  max_decrease 0.10\n"
      "\n"
      "rows.*.seconds max_increase 0.10   # inline comment\n"
      "notes.*        ignore\n"
      "*.exact        abs 0.0\n"
      "*              rel 0.25\n");
  const auto rules = parse_thresholds(in);
  ASSERT_EQ(rules.size(), 5u);
  EXPECT_EQ(rules[0].pattern, "rows.*.gflops");
  EXPECT_EQ(rules[0].mode, ThresholdRule::Mode::MaxDecrease);
  EXPECT_DOUBLE_EQ(rules[0].tol, 0.10);
  EXPECT_EQ(rules[1].mode, ThresholdRule::Mode::MaxIncrease);
  EXPECT_EQ(rules[2].mode, ThresholdRule::Mode::Ignore);
  EXPECT_EQ(rules[3].mode, ThresholdRule::Mode::Abs);
  EXPECT_EQ(rules[4].mode, ThresholdRule::Mode::Rel);
}

TEST(CompareThresholds, RejectsMalformedLines) {
  std::istringstream bad_mode("rows.* sideways 0.1\n");
  EXPECT_THROW({ auto r = parse_thresholds(bad_mode); }, json::parse_error);
  std::istringstream no_tol("rows.* rel\n");
  EXPECT_THROW({ auto r = parse_thresholds(no_tol); }, json::parse_error);
}

// ---- comparison verdicts ----------------------------------------------------

std::vector<ThresholdRule> gate_rules() {
  std::istringstream in(
      "rows.*.seconds max_increase 0.10\n"
      "rows.*.gflops  max_decrease 0.10\n");
  return parse_thresholds(in);
}

TEST(CompareReports, TenPercentSlowdownViolates) {
  const json::Value base =
      json::parse(R"({"rows":[{"seconds":1.00,"gflops":20.0},{"seconds":2.00,"gflops":10.0}]})");
  // Row 0 slows down 15% and loses 15% throughput; row 1 is unchanged.
  const json::Value cand =
      json::parse(R"({"rows":[{"seconds":1.15,"gflops":17.0},{"seconds":2.00,"gflops":10.0}]})");
  const CompareResult res = compare_reports(base, cand, gate_rules());
  EXPECT_FALSE(res.ok());
  EXPECT_EQ(res.violations, 2);
  ASSERT_EQ(res.gated.size(), 4u);
  for (const auto& g : res.gated) {
    const bool should_violate = g.path.rfind("rows.0", 0) == 0;
    EXPECT_EQ(g.violated, should_violate) << g.path;
  }
}

TEST(CompareReports, WithinToleranceAndImprovementsPass) {
  const json::Value base = json::parse(R"({"rows":[{"seconds":1.00,"gflops":20.0}]})");
  // 8% slower is inside the 10% gate; faster/higher is always fine under
  // the one-sided modes.
  const json::Value ok = json::parse(R"({"rows":[{"seconds":1.08,"gflops":19.0}]})");
  EXPECT_TRUE(compare_reports(base, ok, gate_rules()).ok());
  const json::Value better = json::parse(R"({"rows":[{"seconds":0.50,"gflops":40.0}]})");
  EXPECT_TRUE(compare_reports(base, better, gate_rules()).ok());
}

TEST(CompareReports, MissingGatedMetricIsAViolation) {
  const json::Value base = json::parse(R"({"rows":[{"seconds":1.0},{"seconds":2.0}]})");
  const json::Value cand = json::parse(R"({"rows":[{"seconds":1.0}]})");
  const CompareResult res = compare_reports(base, cand, gate_rules());
  EXPECT_EQ(res.violations, 1);
  ASSERT_EQ(res.gated.size(), 2u);
  EXPECT_TRUE(res.gated[1].missing);
  EXPECT_TRUE(res.gated[1].violated);
}

TEST(CompareReports, FirstMatchWinsAndUnmatchedIgnored) {
  const json::Value base = json::parse(R"({"a":1.0,"b":1.0,"c":1.0})");
  const json::Value cand = json::parse(R"({"a":5.0,"b":5.0})");  // c missing too
  std::istringstream in(
      "a ignore\n"
      "a rel 0.0\n"  // shadowed by the ignore above: first match wins
      "b rel 0.5\n");
  const CompareResult res = compare_reports(base, cand, parse_thresholds(in));
  // a: ignored (despite the later strict rule); b: gated and violated;
  // c: matched by nothing, so its disappearance is not judged at all.
  ASSERT_EQ(res.gated.size(), 1u);
  EXPECT_EQ(res.gated[0].path, "b");
  EXPECT_TRUE(res.gated[0].violated);
  EXPECT_EQ(res.violations, 1);
}

TEST(CompareReports, RelAndAbsModes) {
  const json::Value base = json::parse(R"({"x":100.0,"y":0.001})");
  const json::Value cand = json::parse(R"({"x":104.0,"y":0.003})");
  {
    std::istringstream in("x rel 0.05\ny abs 0.005\n");
    EXPECT_TRUE(compare_reports(base, cand, parse_thresholds(in)).ok());
  }
  {
    std::istringstream in("x rel 0.01\ny abs 0.001\n");
    const CompareResult res = compare_reports(base, cand, parse_thresholds(in));
    EXPECT_EQ(res.violations, 2);
  }
}

}  // namespace
}  // namespace fth::obs
