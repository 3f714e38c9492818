// Fault-tolerant symmetric tridiagonal reduction (the paper's future-work
// extension) and its hybrid baseline.
#include <gtest/gtest.h>

#include <cmath>

#include "fault/injector.hpp"
#include "ft/ft_sytrd.hpp"
#include "hybrid/hybrid_sytrd.hpp"
#include "la/generate.hpp"
#include "la/norms.hpp"
#include "lapack/orghr.hpp"
#include "lapack/sytrd.hpp"
#include "lapack/verify.hpp"
#include "test_utils.hpp"

namespace fth::ft {
namespace {

using test::cvec;
using test::vec;

struct Out {
  Matrix<double> a{0, 0};
  std::vector<double> d, e, tau;
  FtReport rep;
  hybrid::HybridGehrdStats st;
};

Out run_ft(hybrid::Device& dev, const Matrix<double>& a0, const FtSytrdOptions& opt,
           fault::Injector* inj = nullptr) {
  const index_t n = a0.rows();
  Out o{Matrix<double>(a0.cview()), std::vector<double>(static_cast<std::size_t>(n)),
        std::vector<double>(static_cast<std::size_t>(n - 1)),
        std::vector<double>(static_cast<std::size_t>(n - 1)),
        {},
        {}};
  ft_sytrd(dev, o.a.view(), vec(o.d), vec(o.e), vec(o.tau), opt, inj, &o.rep, &o.st);
  return o;
}

void verify(const Matrix<double>& a0, const Out& o, double tol_res = 1e-13) {
  Matrix<double> t = lapack::tridiagonal_from(cvec(o.d), cvec(o.e));
  Matrix<double> q = lapack::orghr(o.a.cview(), cvec(o.tau));
  EXPECT_LT(lapack::hessenberg_residual(a0.cview(), q.cview(), t.cview()), tol_res);
  EXPECT_LT(lapack::orthogonality_residual(q.cview()), 1e-12);
}

TEST(HybridSytrd, MatchesHostReduction) {
  hybrid::Device dev;
  for (index_t n : {50, 96, 158}) {
    Matrix<double> a0 = random_symmetric_matrix(n, 5 + static_cast<std::uint64_t>(n));
    Matrix<double> host(a0.cview());
    std::vector<double> dh(static_cast<std::size_t>(n)), eh(static_cast<std::size_t>(n - 1)),
        th(static_cast<std::size_t>(n - 1));
    lapack::sytrd(host.view(), vec(dh), vec(eh), vec(th), {.nb = 16, .nx = 16});

    Matrix<double> hyb(a0.cview());
    std::vector<double> d(static_cast<std::size_t>(n)), e(static_cast<std::size_t>(n - 1)),
        tau(static_cast<std::size_t>(n - 1));
    hybrid::HybridGehrdStats st;
    hybrid::hybrid_sytrd(dev, hyb.view(), vec(d), vec(e), vec(tau), {.nb = 16, .nx = 16},
                         &st);
    EXPECT_LT(max_abs_diff(hyb.cview(), host.cview()), 1e-10);
    for (std::size_t k = 0; k < d.size(); ++k) ASSERT_NEAR(d[k], dh[k], 1e-10);
    EXPECT_GT(st.panels, 0);
    EXPECT_GT(st.h2d_bytes, 0u);
  }
}

class FtSytrdClean : public ::testing::TestWithParam<std::tuple<index_t, index_t>> {};

TEST_P(FtSytrdClean, FaultFreeRunIsCorrectAndQuiet) {
  const auto [n, nb] = GetParam();
  hybrid::Device dev;
  Matrix<double> a0 = random_symmetric_matrix(n, 7 + static_cast<std::uint64_t>(n));
  Out o = run_ft(dev, a0, {.nb = nb});
  EXPECT_EQ(o.rep.detections, 0) << "false positive at n=" << n << " nb=" << nb;
  EXPECT_EQ(o.rep.rollbacks, 0);
  EXPECT_EQ(o.rep.q_corrections, 0);
  EXPECT_LT(o.rep.max_fault_free_gap, o.rep.threshold);
  verify(a0, o, 1e-15);
}

INSTANTIATE_TEST_SUITE_P(SizesAndBlocks, FtSytrdClean,
                         ::testing::Combine(::testing::Values<index_t>(16, 64, 96, 158),
                                            ::testing::Values<index_t>(8, 16, 32)));

TEST(FtSytrd, MatchesPlainReductionBitwiseClose) {
  const index_t n = 96;
  hybrid::Device dev;
  Matrix<double> a0 = random_symmetric_matrix(n, 8);
  Matrix<double> host(a0.cview());
  std::vector<double> dh(static_cast<std::size_t>(n)), eh(static_cast<std::size_t>(n - 1)),
      th(static_cast<std::size_t>(n - 1));
  lapack::sytrd(host.view(), vec(dh), vec(eh), vec(th), {.nb = 16, .nx = 16});
  Out o = run_ft(dev, a0, {.nb = 16});
  for (std::size_t k = 0; k < dh.size(); ++k) ASSERT_NEAR(o.d[k], dh[k], 1e-10);
  for (std::size_t k = 0; k < eh.size(); ++k) ASSERT_NEAR(std::abs(o.e[k]), std::abs(eh[k]), 1e-10);
}

class FtSytrdFault : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(FtSytrdFault, InjectedFaultRecovered) {
  const auto [area_i, moment_i] = GetParam();
  const index_t n = 158, nb = 32;
  hybrid::Device dev;
  Matrix<double> a0 = random_symmetric_matrix(n, 31);

  Out clean = run_ft(dev, a0, {.nb = nb});

  fault::FaultSpec spec;
  spec.area = static_cast<fault::Area>(area_i);
  spec.moment = static_cast<fault::Moment>(moment_i);
  fault::Injector inj(spec, 11 + static_cast<std::uint64_t>(3 * area_i + moment_i));
  Out o = run_ft(dev, a0, {.nb = nb}, &inj);

  ASSERT_EQ(inj.history().size(), 1u);
  // Some handling mechanism must have fired.
  EXPECT_GE(o.rep.detections + o.rep.q_corrections + o.rep.final_sweep_corrections, 1)
      << "area " << area_i << " moment " << moment_i;
  // Result matches the fault-free run.
  for (std::size_t k = 0; k < clean.d.size(); ++k)
    ASSERT_NEAR(o.d[k], clean.d[k], 1e-8) << "d[" << k << "]";
  verify(a0, o);
}

// Area 1 folds onto the Householder storage in symmetric lower layout (a
// reduced row's trailing entries are logical zeros), so it behaves like
// area 3 — both are included to document that.
INSTANTIATE_TEST_SUITE_P(AreasByMoments, FtSytrdFault,
                         ::testing::Combine(::testing::Values(1, 2, 3),
                                            ::testing::Values(0, 1, 2)));

TEST(FtSytrd, TrailingFaultDetectedOnline) {
  const index_t n = 128, nb = 32;
  hybrid::Device dev;
  Matrix<double> a0 = random_symmetric_matrix(n, 32);
  Out clean = run_ft(dev, a0, {.nb = nb});

  fault::FaultSpec spec;
  spec.row = 100;
  spec.col = 90;  // lower-triangle trailing element
  spec.boundary = 1;
  fault::Injector inj(spec);
  Out o = run_ft(dev, a0, {.nb = nb}, &inj);
  EXPECT_GE(o.rep.detections, 1);
  EXPECT_GE(o.rep.rollbacks, 1);
  EXPECT_EQ(o.rep.data_corrections, 1);
  for (std::size_t k = 0; k < clean.d.size(); ++k) ASSERT_NEAR(o.d[k], clean.d[k], 1e-9);
}

TEST(FtSytrd, DiagonalFaultLocatedByRatio) {
  // A diagonal error flags a single row; the two-code ratio must identify
  // the column as the row itself.
  const index_t n = 128, nb = 32;
  hybrid::Device dev;
  Matrix<double> a0 = random_symmetric_matrix(n, 33);
  Out clean = run_ft(dev, a0, {.nb = nb});

  fault::FaultSpec spec;
  spec.row = 80;
  spec.col = 80;
  spec.boundary = 1;
  fault::Injector inj(spec);
  Out o = run_ft(dev, a0, {.nb = nb}, &inj);
  EXPECT_GE(o.rep.detections, 1);
  ASSERT_FALSE(o.rep.events.empty());
  ASSERT_EQ(o.rep.events[0].errors.size(), 1u);
  EXPECT_EQ(o.rep.events[0].errors[0].row, 80);
  EXPECT_EQ(o.rep.events[0].errors[0].col, 80);
  for (std::size_t k = 0; k < clean.d.size(); ++k) ASSERT_NEAR(o.d[k], clean.d[k], 1e-9);
}

TEST(FtSytrd, TwoFaultsDistinctRowsRecovered) {
  const index_t n = 128, nb = 32;
  hybrid::Device dev;
  Matrix<double> a0 = random_symmetric_matrix(n, 34);
  Out clean = run_ft(dev, a0, {.nb = nb});

  std::vector<fault::FaultSpec> specs(2);
  specs[0].row = 90;
  specs[0].col = 70;
  specs[0].boundary = 1;
  specs[0].magnitude = 50.0;
  specs[1].row = 110;
  specs[1].col = 120;  // folds to (120, 110)
  specs[1].boundary = 1;
  specs[1].magnitude = 200.0;
  fault::Injector inj(specs);
  Out o = run_ft(dev, a0, {.nb = nb}, &inj);
  EXPECT_GE(o.rep.detections, 1);
  EXPECT_EQ(o.rep.data_corrections, 2);
  for (std::size_t k = 0; k < clean.d.size(); ++k) ASSERT_NEAR(o.d[k], clean.d[k], 1e-9);
}

TEST(FtSytrd, EqualMagnitudeFaultsStillLocated) {
  // The two-code (ratio) locator does not need distinct magnitudes — a
  // strength over pure pairing. Two equal faults in distinct rows/cols.
  const index_t n = 128, nb = 32;
  hybrid::Device dev;
  Matrix<double> a0 = random_symmetric_matrix(n, 35);
  Out clean = run_ft(dev, a0, {.nb = nb});

  std::vector<fault::FaultSpec> specs(2);
  specs[0].row = 90;
  specs[0].col = 70;
  specs[0].boundary = 2;
  specs[1].row = 120;
  specs[1].col = 100;
  specs[1].boundary = 2;
  fault::Injector inj(specs);
  Out o = run_ft(dev, a0, {.nb = nb}, &inj);
  EXPECT_EQ(o.rep.data_corrections, 2);
  for (std::size_t k = 0; k < clean.d.size(); ++k) ASSERT_NEAR(o.d[k], clean.d[k], 1e-9);
}

TEST(FtSytrd, DetectEveryAmortizesChecks) {
  const index_t n = 158, nb = 16;
  hybrid::Device dev;
  Matrix<double> a0 = random_symmetric_matrix(n, 36);
  FtSytrdOptions opt;
  opt.nb = nb;
  opt.detect_every = 4;
  Out o = run_ft(dev, a0, opt);
  EXPECT_EQ(o.rep.detections, 0);
  verify(a0, o, 1e-15);
}

TEST(FtSytrd, ReportPopulated) {
  const index_t n = 96, nb = 32;
  hybrid::Device dev;
  Matrix<double> a0 = random_symmetric_matrix(n, 37);
  Out o = run_ft(dev, a0, {.nb = nb});
  EXPECT_GT(o.rep.encode_seconds, 0.0);
  EXPECT_GT(o.rep.detect_seconds, 0.0);
  EXPECT_GT(o.rep.threshold, 0.0);
  EXPECT_EQ(o.st.panels, ft_total_boundaries(n, nb));
}

TEST(FtSytrd, NanOrInfInputIsRejectedBeforeEncoding) {
  hybrid::Device dev;
  for (const double bad : test::kNonfinite) {
    Matrix<double> a = random_symmetric_matrix(96, 62);
    a(40, 30) = bad;
    a(30, 40) = bad;
    std::vector<double> d(96), e(95), tau(95);
    FtReport rep;
    rep.detections = 7;
    test::expect_rejected_without_ft_counters([&] {
      ft_sytrd(dev, a.view(), vec(d), vec(e), vec(tau), {.nb = 16}, nullptr, &rep);
    });
    EXPECT_EQ(rep.detections, 7) << bad << ": the report stays untouched";
  }
}

TEST(FtSytrd, TinySizes) {
  hybrid::Device dev;
  for (index_t n : {1, 2, 3, 4}) {
    Matrix<double> a0 = random_symmetric_matrix(n, 38);
    std::vector<double> d(static_cast<std::size_t>(n));
    std::vector<double> e(static_cast<std::size_t>(std::max<index_t>(n - 1, 0)));
    std::vector<double> tau(e.size());
    Matrix<double> a(a0.cview());
    EXPECT_NO_THROW(ft_sytrd(dev, a.view(), vec(d), vec(e), vec(tau), {.nb = 4}));
    EXPECT_NEAR(d[0], a0(0, 0), 1e-12);
  }
}

}  // namespace
}  // namespace fth::ft
