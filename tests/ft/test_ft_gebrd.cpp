// Fault-tolerant bidiagonal reduction and its hybrid baseline.
#include <gtest/gtest.h>

#include <cmath>

#include "fault/injector.hpp"
#include "ft/ft_gebrd.hpp"
#include "hybrid/hybrid_gebrd.hpp"
#include "la/blas3.hpp"
#include "la/generate.hpp"
#include "la/norms.hpp"
#include "lapack/gebrd.hpp"
#include "lapack/verify.hpp"
#include "test_utils.hpp"

namespace fth::ft {
namespace {

using test::cvec;
using test::vec;

struct Out {
  Matrix<double> a{0, 0};
  std::vector<double> d, e, tauq, taup;
  FtReport rep;
  hybrid::HybridGehrdStats st;
};

Out run_ft(hybrid::Device& dev, const Matrix<double>& a0, const FtGebrdOptions& opt,
           fault::Injector* inj = nullptr) {
  const index_t n = a0.rows();
  Out o{Matrix<double>(a0.cview()), std::vector<double>(static_cast<std::size_t>(n)),
        std::vector<double>(static_cast<std::size_t>(n - 1)),
        std::vector<double>(static_cast<std::size_t>(n)),
        std::vector<double>(static_cast<std::size_t>(n - 1)),
        {},
        {}};
  ft_gebrd(dev, o.a.view(), vec(o.d), vec(o.e), vec(o.tauq), vec(o.taup), opt, inj, &o.rep,
           &o.st);
  return o;
}

double reconstruction_residual(const Matrix<double>& a0, const Out& o) {
  const index_t n = a0.rows();
  Matrix<double> b = lapack::bidiagonal_from(cvec(o.d), cvec(o.e));
  Matrix<double> q = lapack::orgbr_q(o.a.cview(), cvec(o.tauq));
  Matrix<double> p = lapack::orgbr_p(o.a.cview(), cvec(o.taup));
  Matrix<double> qb(n, n), rec(n, n);
  blas::gemm(Trans::No, Trans::No, 1.0, q.cview(), b.cview(), 0.0, qb.view());
  blas::gemm(Trans::No, Trans::Yes, 1.0, qb.cview(), p.cview(), 0.0, rec.view());
  return max_abs_diff(rec.cview(), a0.cview()) / std::max(1.0, norm_max(a0.cview()));
}

TEST(HybridGebrd, MatchesHostReduction) {
  hybrid::Device dev;
  for (index_t n : {60, 100, 158}) {
    Matrix<double> a0 = random_matrix(n, n, 5 + static_cast<std::uint64_t>(n));
    Matrix<double> host(a0.cview());
    std::vector<double> dh(static_cast<std::size_t>(n)), eh(static_cast<std::size_t>(n - 1)),
        tqh(static_cast<std::size_t>(n)), tph(static_cast<std::size_t>(n - 1));
    lapack::gebrd(host.view(), vec(dh), vec(eh), vec(tqh), vec(tph), {.nb = 16, .nx = 16});

    Matrix<double> hyb(a0.cview());
    std::vector<double> d(static_cast<std::size_t>(n)), e(static_cast<std::size_t>(n - 1)),
        tq(static_cast<std::size_t>(n)), tp(static_cast<std::size_t>(n - 1));
    hybrid::HybridGehrdStats st;
    hybrid::hybrid_gebrd(dev, hyb.view(), vec(d), vec(e), vec(tq), vec(tp),
                         {.nb = 16, .nx = 16}, &st);
    EXPECT_LT(max_abs_diff(hyb.cview(), host.cview()), 1e-10) << "n=" << n;
    EXPECT_GT(st.panels, 0);
  }
}

TEST(HybridGebrd, RepeatedRunsDeterministic) {
  // Regression for the U2-transfer race: the host pivot restore must not
  // overlap the async operand upload.
  hybrid::Device dev;
  const index_t n = 100;
  Matrix<double> a0 = random_matrix(n, n, 6);
  Matrix<double> first(0, 0);
  for (int rep = 0; rep < 5; ++rep) {
    Matrix<double> a(a0.cview());
    std::vector<double> d(static_cast<std::size_t>(n)), e(static_cast<std::size_t>(n - 1)),
        tq(static_cast<std::size_t>(n)), tp(static_cast<std::size_t>(n - 1));
    hybrid::hybrid_gebrd(dev, a.view(), vec(d), vec(e), vec(tq), vec(tp),
                         {.nb = 16, .nx = 16});
    if (rep == 0) {
      first = Matrix<double>(a.cview());
    } else {
      ASSERT_EQ(max_abs_diff(a.cview(), first.cview()), 0.0) << "run " << rep;
    }
  }
}

class FtGebrdClean : public ::testing::TestWithParam<std::tuple<index_t, index_t>> {};

TEST_P(FtGebrdClean, FaultFreeRunIsCorrectAndQuiet) {
  const auto [n, nb] = GetParam();
  hybrid::Device dev;
  Matrix<double> a0 = random_matrix(n, n, 7 + static_cast<std::uint64_t>(n));
  Out o = run_ft(dev, a0, {.nb = nb});
  EXPECT_EQ(o.rep.detections, 0) << "false positive at n=" << n << " nb=" << nb;
  EXPECT_EQ(o.rep.rollbacks, 0);
  EXPECT_EQ(o.rep.q_corrections, 0);
  EXPECT_LT(o.rep.max_fault_free_gap, o.rep.threshold);
  EXPECT_LT(reconstruction_residual(a0, o), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(SizesAndBlocks, FtGebrdClean,
                         ::testing::Combine(::testing::Values<index_t>(16, 64, 100, 158),
                                            ::testing::Values<index_t>(8, 16, 32)));

class FtGebrdFault : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(FtGebrdFault, InjectedFaultRecovered) {
  const auto [area_i, moment_i] = GetParam();
  const index_t n = 158, nb = 32;
  hybrid::Device dev;
  Matrix<double> a0 = random_matrix(n, n, 31);
  Out clean = run_ft(dev, a0, {.nb = nb});

  fault::FaultSpec spec;
  spec.area = static_cast<fault::Area>(area_i);
  spec.moment = static_cast<fault::Moment>(moment_i);
  fault::Injector inj(spec, 17 + static_cast<std::uint64_t>(3 * area_i + moment_i));
  Out o = run_ft(dev, a0, {.nb = nb}, &inj);

  ASSERT_EQ(inj.history().size(), 1u);
  EXPECT_GE(o.rep.detections + o.rep.q_corrections + o.rep.final_sweep_corrections, 1)
      << "area " << area_i << " moment " << moment_i;
  for (std::size_t k = 0; k < clean.d.size(); ++k)
    ASSERT_NEAR(o.d[k], clean.d[k], 1e-8) << "d[" << k << "]";
  EXPECT_LT(reconstruction_residual(a0, o), 1e-11);
}

// Area semantics for the bidiagonal reduction: area 1 (finished rows ×
// trailing columns) is P's Householder storage, area 3 is Q's, area 4 the
// finished band; area 2 is the live trailing matrix.
INSTANTIATE_TEST_SUITE_P(AreasByMoments, FtGebrdFault,
                         ::testing::Combine(::testing::Values(1, 2, 3, 4),
                                            ::testing::Values(0, 1, 2)));

TEST(FtGebrd, TrailingFaultLocatedExactly) {
  const index_t n = 128, nb = 32;
  hybrid::Device dev;
  Matrix<double> a0 = random_matrix(n, n, 33);
  Out clean = run_ft(dev, a0, {.nb = nb});

  fault::FaultSpec spec;
  spec.row = 70;
  spec.col = 100;
  spec.boundary = 1;
  fault::Injector inj(spec);
  Out o = run_ft(dev, a0, {.nb = nb}, &inj);
  EXPECT_GE(o.rep.detections, 1);
  ASSERT_FALSE(o.rep.events.empty());
  ASSERT_EQ(o.rep.events[0].errors.size(), 1u);
  EXPECT_EQ(o.rep.events[0].errors[0].row, 70);
  EXPECT_EQ(o.rep.events[0].errors[0].col, 100);
  for (std::size_t k = 0; k < clean.d.size(); ++k) ASSERT_NEAR(o.d[k], clean.d[k], 1e-9);
}

TEST(FtGebrd, TwoTrailingFaultsDistinctMagnitudes) {
  const index_t n = 128, nb = 32;
  hybrid::Device dev;
  Matrix<double> a0 = random_matrix(n, n, 34);
  Out clean = run_ft(dev, a0, {.nb = nb});

  std::vector<fault::FaultSpec> specs(2);
  specs[0].row = 60;
  specs[0].col = 80;
  specs[0].boundary = 1;
  specs[0].magnitude = 40.0;
  specs[1].row = 90;
  specs[1].col = 110;
  specs[1].boundary = 1;
  specs[1].magnitude = 150.0;
  fault::Injector inj(specs);
  Out o = run_ft(dev, a0, {.nb = nb}, &inj);
  EXPECT_EQ(o.rep.data_corrections, 2);
  for (std::size_t k = 0; k < clean.d.size(); ++k) ASSERT_NEAR(o.d[k], clean.d[k], 1e-9);
}

TEST(FtGebrd, DetectEveryAmortizes) {
  const index_t n = 130, nb = 16;
  hybrid::Device dev;
  Matrix<double> a0 = random_matrix(n, n, 35);
  FtGebrdOptions opt;
  opt.nb = nb;
  opt.detect_every = 4;
  Out o = run_ft(dev, a0, opt);
  EXPECT_EQ(o.rep.detections, 0);
  EXPECT_LT(reconstruction_residual(a0, o), 1e-12);
}

TEST(FtGebrd, TinySizes) {
  hybrid::Device dev;
  for (index_t n : {1, 2, 3, 5}) {
    Matrix<double> a0 = random_matrix(n, n, 36);
    std::vector<double> d(static_cast<std::size_t>(n));
    std::vector<double> e(static_cast<std::size_t>(std::max<index_t>(n - 1, 0)));
    std::vector<double> tq(static_cast<std::size_t>(n));
    std::vector<double> tp(e.size());
    Matrix<double> a(a0.cview());
    EXPECT_NO_THROW(
        ft_gebrd(dev, a.view(), vec(d), vec(e), vec(tq), vec(tp), {.nb = 4}));
  }
}

TEST(FtGebrd, ReportPopulated) {
  const index_t n = 96, nb = 32;
  hybrid::Device dev;
  Matrix<double> a0 = random_matrix(n, n, 37);
  Out o = run_ft(dev, a0, {.nb = nb});
  EXPECT_GT(o.rep.encode_seconds, 0.0);
  EXPECT_GT(o.rep.detect_seconds, 0.0);
  EXPECT_GT(o.rep.threshold, 0.0);
  EXPECT_EQ(o.st.panels, ft_total_boundaries(n, nb));
  EXPECT_GT(o.st.h2d_bytes, 0u);
}

}  // namespace
}  // namespace fth::ft
