// Common utilities: options parsing, RNG statistics/determinism, timers,
// FLOP accounting, and the error macros.
#include <gtest/gtest.h>

#include <cmath>
#include <thread>

#include "common/error.hpp"
#include "common/flops.hpp"
#include "common/options.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"

namespace fth {
namespace {

// ---- Options ----------------------------------------------------------------

Options make_options(std::vector<std::string> args) {
  static std::vector<std::string> storage;
  storage = std::move(args);
  static std::vector<char*> argv;
  argv.clear();
  for (auto& s : storage) argv.push_back(s.data());
  return Options(static_cast<int>(argv.size()), argv.data());
}

TEST(Options, KeyValueForms) {
  auto opt = make_options({"prog", "pos1", "--n", "42", "--name=foo", "--x", "1.5", "--flag"});
  EXPECT_EQ(opt.get_long("n", 0), 42);
  EXPECT_EQ(opt.get("name", ""), "foo");
  EXPECT_TRUE(opt.has("flag"));
  EXPECT_FALSE(opt.has("missing"));
  EXPECT_DOUBLE_EQ(opt.get_double("x", 0.0), 1.5);
  // A bare word before any option is positional; a word after `--flag`
  // would be consumed as the flag's value (documented greedy behaviour).
  ASSERT_EQ(opt.positional().size(), 1u);
  EXPECT_EQ(opt.positional()[0], "pos1");
  EXPECT_EQ(opt.program(), "prog");
}

TEST(Options, Defaults) {
  auto opt = make_options({"prog"});
  EXPECT_EQ(opt.get_long("n", 7), 7);
  EXPECT_EQ(opt.get("s", "dflt"), "dflt");
  EXPECT_DOUBLE_EQ(opt.get_double("d", 2.5), 2.5);
}

TEST(Options, SizeLists) {
  auto opt = make_options({"prog", "--sizes", "128,256,512"});
  auto v = opt.get_sizes("sizes", {1});
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v[0], 128);
  EXPECT_EQ(v[2], 512);
  auto fallback = opt.get_sizes("other", {7, 9});
  ASSERT_EQ(fallback.size(), 2u);
  EXPECT_EQ(fallback[1], 9);
}

TEST(Options, FlagFollowedByFlag) {
  auto opt = make_options({"prog", "--paper", "--nb", "16"});
  EXPECT_TRUE(opt.has("paper"));
  EXPECT_EQ(opt.get("paper", "none"), "none");  // no value attached
  EXPECT_EQ(opt.get_long("nb", 0), 16);
}

// ---- Rng ---------------------------------------------------------------------

TEST(Rng, DeterministicPerSeed) {
  Rng a(42), b(42), c(43);
  for (int i = 0; i < 100; ++i) {
    const auto va = a.next();
    EXPECT_EQ(va, b.next());
    (void)c.next();
  }
  Rng a2(42), c2(43);
  EXPECT_NE(a2.next(), c2.next());
}

TEST(Rng, UniformRangeAndMoments) {
  Rng rng(7);
  double sum = 0.0, mn = 1.0, mx = 0.0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
    mn = std::min(mn, u);
    mx = std::max(mx, u);
  }
  EXPECT_NEAR(sum / kN, 0.5, 0.01);
  EXPECT_LT(mn, 0.01);
  EXPECT_GT(mx, 0.99);
}

TEST(Rng, BelowIsUnbiasedAndInRange) {
  Rng rng(9);
  int counts[10] = {};
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) {
    const auto v = rng.below(10);
    ASSERT_LT(v, 10u);
    ++counts[v];
  }
  for (int b = 0; b < 10; ++b) {
    EXPECT_NEAR(static_cast<double>(counts[b]) / kN, 0.1, 0.01) << "bucket " << b;
  }
  EXPECT_EQ(rng.below(0), 0u);
  EXPECT_EQ(rng.below(1), 0u);
}

TEST(Rng, NormalMoments) {
  Rng rng(11);
  double sum = 0.0, sq = 0.0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) {
    const double x = rng.normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / kN, 0.0, 0.02);
  EXPECT_NEAR(sq / kN, 1.0, 0.03);
}

// ---- Timer -------------------------------------------------------------------

TEST(Timer, MeasuresElapsedTime) {
  WallTimer t;
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  const double s = t.seconds();
  EXPECT_GE(s, 0.025);
  EXPECT_LT(s, 2.0);
  t.reset();
  EXPECT_LT(t.seconds(), 0.02);
}

// ---- Flops -------------------------------------------------------------------

TEST(Flops, ScopeEnablesAndRestores) {
  flops::enable(false);
  flops::reset();
  flops::add(100);  // disabled: ignored
  EXPECT_EQ(flops::count(), 0u);
  {
    flops::Scope scope;
    flops::add(100);
    EXPECT_EQ(scope.delta(), 100u);
    {
      flops::Scope inner;
      flops::add(50);
      EXPECT_EQ(inner.delta(), 50u);
    }
    EXPECT_TRUE(flops::enabled());  // inner scope restored outer's "on"
    EXPECT_EQ(scope.delta(), 150u);
  }
  EXPECT_FALSE(flops::enabled());
}

TEST(Flops, Models) {
  EXPECT_EQ(flops::gemm(10, 20, 30), 2ull * 10 * 20 * 30);
  EXPECT_EQ(flops::gemv(10, 20), 2ull * 10 * 20);
  EXPECT_NEAR(flops::gehrd(100), 10.0 / 3.0 * 1e6, 1.0);
}

// ---- Error macros -------------------------------------------------------------

TEST(Errors, CheckThrowsWithContext) {
  try {
    FTH_CHECK(1 == 2, "custom message");
    FAIL() << "expected throw";
  } catch (const precondition_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("custom message"), std::string::npos);
  }
  EXPECT_NO_THROW(FTH_CHECK(true, ""));
}

TEST(Errors, AssertThrowsInternal) {
  EXPECT_THROW(FTH_ASSERT(false, "bug"), internal_error);
  EXPECT_NO_THROW(FTH_ASSERT(true, ""));
}

TEST(Errors, EnvOr) {
  EXPECT_EQ(env_or("FTH_SURELY_UNSET_VARIABLE_12345", "dflt"), "dflt");
}

}  // namespace
}  // namespace fth
