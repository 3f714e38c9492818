// One boundary strike of every kind on every region of the three FT
// drivers: areas 1–3 and the finished H entries, each struck with an
// additive delta, a quiet NaN and an infinity at Moment::Middle, three
// seeds per cell. Wherever the strike lands — trailing data, a finished
// line, or the Householder storage Q protects — the run must end
// Recovered and match its fault-free run within the campaign tolerance.
// The comparison is NaN-safe: max_abs_diff returns NaN for a NaN output.
// A unit strike on the Householder storage of an input scaled by 2^60 must
// be corrected too.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <tuple>
#include <vector>

#include "common/error.hpp"
#include "fault/injector.hpp"
#include "ft/ft_gebrd.hpp"
#include "ft/ft_gehrd.hpp"
#include "ft/ft_sytrd.hpp"
#include "la/generate.hpp"
#include "la/norms.hpp"
#include "test_utils.hpp"

namespace fth::ft {
namespace {

using fault::Area;
using fault::FaultKind;
using test::vec;

enum class Algo { Gehrd, Sytrd, Gebrd };

constexpr index_t kN = 128;
constexpr index_t kNb = 16;

struct Reduction {
  Matrix<double> a{0, 0};
  FtReport rep;
};

/// One FT reduction of `a0`; throws what the driver throws, with `out.rep`
/// already filled.
void reduce(hybrid::Device& dev, Algo algo, const Matrix<double>& a0, fault::Injector* inj,
            Reduction& out) {
  out.a = Matrix<double>(a0.cview());
  std::vector<double> d(kN), e(kN - 1), tau(kN - 1), taup(kN - 1);
  switch (algo) {
    case Algo::Gehrd:
      ft_gehrd(dev, out.a.view(), vec(tau), {.nb = kNb}, inj, &out.rep);
      break;
    case Algo::Sytrd: {
      FtSytrdOptions opt;
      opt.nb = kNb;
      ft_sytrd(dev, out.a.view(), vec(d), vec(e), vec(tau), opt, inj, &out.rep);
      break;
    }
    case Algo::Gebrd: {
      FtGebrdOptions opt;
      opt.nb = kNb;
      std::vector<double> tauq(kN);
      ft_gebrd(dev, out.a.view(), vec(d), vec(e), vec(tauq), vec(taup), opt, inj, &out.rep);
      break;
    }
  }
}

Matrix<double> input(Algo algo, std::uint64_t seed) {
  return algo == Algo::Sytrd ? random_symmetric_matrix(kN, seed)
                             : random_matrix(kN, kN, seed);
}

using Cell = std::tuple<Algo, Area, FaultKind>;

class Cells : public ::testing::TestWithParam<Cell> {};

TEST_P(Cells, RecoversAndMatchesTheFaultFreeRun) {
  const auto [algo, area, kind] = GetParam();
  hybrid::Device dev;
  for (const std::uint64_t seed : {1, 2, 3}) {
    const Matrix<double> a0 = input(algo, 300 + seed);
    Reduction clean;
    reduce(dev, algo, a0, nullptr, clean);

    fault::FaultSpec spec;
    spec.area = area;
    spec.moment = fault::Moment::Middle;
    spec.kind = kind;
    fault::Injector inj(spec, seed);
    Reduction faulty;
    try {
      reduce(dev, algo, a0, &inj, faulty);
    } catch (const recovery_error& e) {
      ADD_FAILURE() << "seed " << seed << ": " << e.what();
      continue;
    }
    ASSERT_EQ(inj.history().size(), 1u) << "seed " << seed;
    const fault::InjectionRecord& hit = inj.history().front();
    const std::string where = "seed " + std::to_string(seed) + " at (" +
                              std::to_string(hit.row) + ", " + std::to_string(hit.col) + ")";
    EXPECT_EQ(faulty.rep.outcome.status, RecoveryStatus::Recovered) << where;
    const double err = max_abs_diff(faulty.a.cview(), clean.a.cview());
    EXPECT_LE(err, 1e-8 * std::max(1.0, norm_max(a0.cview()))) << where;
  }
}

const char* name(Algo algo) {
  const char* const names[] = {"gehrd", "sytrd", "gebrd"};
  return names[static_cast<int>(algo)];
}

std::string cell_name(const ::testing::TestParamInfo<Cell>& info) {
  const auto [algo, area, kind] = info.param;
  const char* const areas[] = {"any", "area1", "area2", "area3", "finishedH"};
  const char* const k = kind == FaultKind::AddDelta   ? "delta"
                        : kind == FaultKind::QuietNaN ? "nan"
                                                      : "inf";
  return std::string(name(algo)) + "_" + areas[static_cast<int>(area)] + "_" + k;
}

std::string algo_name(const ::testing::TestParamInfo<Algo>& info) { return name(info.param); }

INSTANTIATE_TEST_SUITE_P(
    FtStrike, Cells,
    ::testing::Combine(::testing::Values(Algo::Gehrd, Algo::Sytrd, Algo::Gebrd),
                       ::testing::Values(Area::UpperTrailing, Area::LowerTrailing, Area::QPanel,
                                         Area::FinishedH),
                       ::testing::Values(FaultKind::AddDelta, FaultKind::QuietNaN,
                                         FaultKind::Infinity)),
    cell_name);

class Rectangle : public ::testing::TestWithParam<Algo> {};

// Two equal deltas at the corners of a rectangle in the Householder
// storage pair up two ways: beyond the Q codes, so the run aborts through
// the ladder with a structured outcome instead of guessing.
TEST_P(Rectangle, EqualStrikesOnHouseholderStorageAbortAsAmbiguous) {
  const Algo algo = GetParam();
  hybrid::Device dev;
  const Matrix<double> a0 = input(algo, 77);
  std::vector<fault::FaultSpec> specs(2);
  const index_t rows[] = {40, 90};
  const index_t cols[] = {5, 20};
  for (int k = 0; k < 2; ++k) {
    specs[k].moment = fault::Moment::Middle;
    specs[k].row = rows[k];
    specs[k].col = cols[k];
    specs[k].magnitude = 2.0;
    specs[k].relative = false;
  }
  fault::Injector inj(specs);
  Reduction run;
  EXPECT_THROW(reduce(dev, algo, a0, &inj, run), recovery_error);
  EXPECT_EQ(inj.history().size(), 2u);
  EXPECT_EQ(run.rep.outcome.status, RecoveryStatus::Unrecoverable);
  EXPECT_EQ(run.rep.outcome.reason, AbortReason::AmbiguousPattern);
  EXPECT_NE(run.rep.outcome.detail.find("Q verification"), std::string::npos)
      << run.rep.outcome.detail;
}

INSTANTIATE_TEST_SUITE_P(FtStrike, Rectangle,
                         ::testing::Values(Algo::Gehrd, Algo::Sytrd, Algo::Gebrd), algo_name);

class ScaledInput : public ::testing::TestWithParam<Algo> {};

// Householder storage does not scale with the input (larfg leaves every
// stored |vᵢ| ≤ 1), so an absolute +1.0 strike on it is a large error on
// any input. On A scaled by 2^60 the Q verification must still find and
// correct it; each element is compared relative to its own magnitude, as
// the Householder entries and the reduced entries differ by 2^60.
TEST_P(ScaledInput, UnitStrikeOnHouseholderStorageIsCorrected) {
  const Algo algo = GetParam();
  hybrid::Device dev;
  for (const std::uint64_t seed : {1, 2, 3}) {
    Matrix<double> a0 = input(algo, 400 + seed);
    for (index_t c = 0; c < kN; ++c)
      for (index_t r = 0; r < kN; ++r) a0(r, c) = std::ldexp(a0(r, c), 60);
    Reduction clean;
    reduce(dev, algo, a0, nullptr, clean);

    fault::FaultSpec spec;
    spec.area = Area::QPanel;
    spec.moment = fault::Moment::Middle;
    spec.magnitude = 1.0;
    spec.relative = false;
    fault::Injector inj(spec, seed);
    Reduction faulty;
    reduce(dev, algo, a0, &inj, faulty);
    ASSERT_EQ(inj.history().size(), 1u) << "seed " << seed;
    EXPECT_EQ(faulty.rep.outcome.status, RecoveryStatus::Recovered) << "seed " << seed;
    EXPECT_GE(faulty.rep.q_corrections, 1) << "seed " << seed;
    for (index_t c = 0; c < kN; ++c) {
      for (index_t r = 0; r < kN; ++r) {
        const double want = clean.a(r, c);
        ASSERT_LE(std::abs(faulty.a(r, c) - want), 1e-8 * std::max(1.0, std::abs(want)))
            << "seed " << seed << " at (" << r << ", " << c << ")";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(FtStrike, ScaledInput,
                         ::testing::Values(Algo::Gehrd, Algo::Sytrd, Algo::Gebrd), algo_name);

}  // namespace
}  // namespace fth::ft
