// End-to-end fault-tolerant Hessenberg reduction (Algorithm 3).
#include <gtest/gtest.h>

#include <cmath>

#include "fault/injector.hpp"
#include "ft/ft_gehrd.hpp"
#include "la/generate.hpp"
#include "la/norms.hpp"
#include "lapack/gehrd.hpp"
#include "lapack/verify.hpp"
#include "test_utils.hpp"

namespace fth::ft {
namespace {

VectorView<double> tau_view(std::vector<double>& tau) {
  return VectorView<double>(tau.data(), static_cast<index_t>(tau.size()));
}
VectorView<const double> tau_cview(const std::vector<double>& tau) {
  return VectorView<const double>(tau.data(), static_cast<index_t>(tau.size()));
}

TEST(FtGehrd, NanOrInfInputIsRejectedBeforeEncoding) {
  // Encoded into the codes, a non-finite input would read as damage that
  // no rollback removes: the run would book a detection and a rollback
  // and abort at boundary 1.
  hybrid::Device dev;
  for (const double bad : test::kNonfinite) {
    Matrix<double> a = random_matrix(96, 96, 61);
    a(40, 30) = bad;
    std::vector<double> tau(95);
    FtReport rep;
    rep.detections = 7;
    test::expect_rejected_without_ft_counters(
        [&] { ft_gehrd(dev, a.view(), tau_view(tau), {.nb = 16}, nullptr, &rep); });
    EXPECT_EQ(rep.detections, 7) << bad << ": the report stays untouched";
  }
}

TEST(FtGehrd, TotalBoundariesCountsPanels) {
  // Blocked panels stop at the nx = nb crossover, n − i ≤ nb + 1.
  EXPECT_EQ(ft_total_boundaries(158, 32), 4);  // 4·32 = 128; 30 columns on the host
  EXPECT_EQ(ft_total_boundaries(65, 32), 1);
  EXPECT_EQ(ft_total_boundaries(33, 32), 0);
  EXPECT_EQ(ft_total_boundaries(10, 32), 0);
  EXPECT_EQ(ft_total_boundaries(2, 32), 0);
  EXPECT_EQ(ft_total_boundaries(1, 32), 0);
}

class FtCleanParam : public ::testing::TestWithParam<std::tuple<index_t, index_t>> {};

TEST_P(FtCleanParam, FaultFreeRunMatchesHostReduction) {
  const auto [n, nb] = GetParam();
  hybrid::Device dev;
  Matrix<double> a = random_matrix(n, n, 11 * static_cast<std::uint64_t>(n) + 3);
  Matrix<double> orig(a.cview());
  Matrix<double> host(a.cview());

  std::vector<double> tau_h(static_cast<std::size_t>(n - 1));
  lapack::gehrd(host.view(), tau_view(tau_h), {.nb = nb, .nx = nb});

  std::vector<double> tau(static_cast<std::size_t>(n - 1));
  FtReport rep;
  ft_gehrd(dev, a.view(), tau_view(tau), {.nb = nb}, nullptr, &rep);

  EXPECT_EQ(rep.detections, 0) << "false positive on clean data";
  EXPECT_EQ(rep.rollbacks, 0);
  EXPECT_EQ(rep.q_corrections, 0);
  EXPECT_LT(rep.max_fault_free_gap, rep.threshold)
      << "threshold margin exhausted at n=" << n;
  // Same mathematical algorithm as the host reduction.
  EXPECT_LT(max_abs_diff(a.cview(), host.cview()), 1e-10);
  auto v = lapack::verify_reduction(orig.cview(), a.cview(), tau_cview(tau));
  EXPECT_TRUE(v.hessenberg);
  EXPECT_LT(v.residual, 1e-15);
  EXPECT_LT(v.orthogonality, 1e-14);
}

INSTANTIATE_TEST_SUITE_P(SizesAndBlocks, FtCleanParam,
                         ::testing::Combine(::testing::Values<index_t>(16, 40, 96, 158, 230),
                                            ::testing::Values<index_t>(8, 16, 32)));

TEST(FtGehrd, TinySizes) {
  hybrid::Device dev;
  for (index_t n : {0, 1, 2, 3, 4}) {
    Matrix<double> a = random_matrix(n, n, 5);
    Matrix<double> orig(a.cview());
    std::vector<double> tau(static_cast<std::size_t>(std::max<index_t>(n - 1, 0)));
    EXPECT_NO_THROW(ft_gehrd(dev, a.view(), tau_view(tau), {.nb = 4}));
    if (n >= 3) {
      auto v = lapack::verify_reduction(orig.cview(), a.cview(), tau_cview(tau));
      EXPECT_LT(v.residual, 1e-14);
    }
  }
}

// The Table II / Fig. 6 grid: every area × every moment must recover.
class FtFaultParam : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(FtFaultParam, InjectedFaultRecovered) {
  const auto [area_i, moment_i] = GetParam();
  const auto area = static_cast<fault::Area>(area_i);
  const auto moment = static_cast<fault::Moment>(moment_i);
  const index_t n = 158, nb = 32;

  hybrid::Device dev;
  Matrix<double> a = random_matrix(n, n, 21);
  Matrix<double> orig(a.cview());
  Matrix<double> clean(a.cview());
  std::vector<double> tau_c(static_cast<std::size_t>(n - 1));
  ft_gehrd(dev, clean.view(), tau_view(tau_c), {.nb = nb});

  fault::FaultSpec spec;
  spec.area = area;
  spec.moment = moment;
  fault::Injector inj(spec, 7 + static_cast<std::uint64_t>(area_i * 3 + moment_i));

  std::vector<double> tau(static_cast<std::size_t>(n - 1));
  FtReport rep;
  ft_gehrd(dev, a.view(), tau_view(tau), {.nb = nb}, &inj, &rep);

  ASSERT_EQ(inj.history().size(), 1u);
  // The result matches the fault-free run to recovery roundoff.
  EXPECT_LT(max_abs_diff(a.cview(), clean.cview()), 1e-9)
      << "area " << area_i << " moment " << moment_i << " at ("
      << inj.history()[0].row << "," << inj.history()[0].col << ")";
  auto v = lapack::verify_reduction(orig.cview(), a.cview(), tau_cview(tau));
  EXPECT_TRUE(v.hessenberg);
  EXPECT_LT(v.residual, 1e-13);       // Table II: stability preserved
  EXPECT_LT(v.orthogonality, 1e-12);  // Table III: orthogonality preserved

  // Mechanism sanity: trailing-area faults are caught on-line; Q faults by
  // the end-of-run Q verification; finished-H faults by the final sweep.
  switch (area) {
    case fault::Area::UpperTrailing:
    case fault::Area::LowerTrailing:
      if (moment == fault::Moment::End) {
        // Injected at the final boundary: no further iteration runs, so the
        // on-line check never sees it — the final sweep corrects it instead.
        EXPECT_GE(rep.detections + rep.final_sweep_corrections, 1);
      } else {
        EXPECT_GE(rep.detections, 1);
        EXPECT_GE(rep.rollbacks, 1);
      }
      break;
    case fault::Area::QPanel:
      EXPECT_EQ(rep.detections, 0);
      EXPECT_EQ(rep.q_corrections, 1);
      break;
    case fault::Area::FinishedH:
      EXPECT_GE(rep.final_sweep_corrections + rep.detections, 1);
      break;
    default:
      break;
  }
}

INSTANTIATE_TEST_SUITE_P(AreasByMoments, FtFaultParam,
                         ::testing::Combine(::testing::Values(1, 2, 3, 4),
                                            ::testing::Values(0, 1, 2)));

TEST(FtGehrd, TwoSimultaneousErrorsDistinctMagnitudes) {
  const index_t n = 128, nb = 32;
  hybrid::Device dev;
  Matrix<double> a = random_matrix(n, n, 31);
  Matrix<double> clean(a.cview());
  std::vector<double> tau_c(static_cast<std::size_t>(n - 1));
  ft_gehrd(dev, clean.view(), tau_view(tau_c), {.nb = nb});

  std::vector<fault::FaultSpec> specs(2);
  specs[0].area = fault::Area::LowerTrailing;
  specs[0].boundary = 2;
  specs[0].magnitude = 50.0;
  specs[1].area = fault::Area::LowerTrailing;
  specs[1].boundary = 2;
  specs[1].magnitude = 200.0;
  fault::Injector inj(specs, 9);

  std::vector<double> tau(static_cast<std::size_t>(n - 1));
  FtReport rep;
  ft_gehrd(dev, a.view(), tau_view(tau), {.nb = nb}, &inj, &rep);
  EXPECT_GE(rep.detections, 1);
  // Both errors corrected in one recovery episode (same boundary).
  EXPECT_LT(max_abs_diff(a.cview(), clean.cview()), 1e-9);
}

TEST(FtGehrd, ErrorsInConsecutiveIterations) {
  // "Once the algorithm has corrected the simultaneous errors, it continues
  // as normal and is ready to detect and correct subsequent soft errors."
  const index_t n = 160, nb = 32;
  hybrid::Device dev;
  Matrix<double> a = random_matrix(n, n, 32);
  Matrix<double> clean(a.cview());
  std::vector<double> tau_c(static_cast<std::size_t>(n - 1));
  ft_gehrd(dev, clean.view(), tau_view(tau_c), {.nb = nb});

  std::vector<fault::FaultSpec> specs(2);
  specs[0].area = fault::Area::LowerTrailing;
  specs[0].boundary = 1;
  specs[1].area = fault::Area::UpperTrailing;
  specs[1].boundary = 3;
  fault::Injector inj(specs, 10);

  std::vector<double> tau(static_cast<std::size_t>(n - 1));
  FtReport rep;
  ft_gehrd(dev, a.view(), tau_view(tau), {.nb = nb}, &inj, &rep);
  EXPECT_GE(rep.detections, 2);
  EXPECT_EQ(rep.events.size(), static_cast<std::size_t>(rep.rollbacks));
  EXPECT_LT(max_abs_diff(a.cview(), clean.cview()), 1e-9);
}

TEST(FtGehrd, ChecksumElementFaultRepaired) {
  // A fault can hit the redundancy itself: the checksum column lives at
  // device column n, which the injector cannot address, so corrupt a
  // checksum-row entry through an explicit-coordinate data fault instead:
  // nothing to do — instead verify via the final sweep path using a fault
  // in the last trailing column (never re-checked per-iteration after the
  // final boundary).
  const index_t n = 96, nb = 32;
  hybrid::Device dev;
  Matrix<double> a = random_matrix(n, n, 33);
  Matrix<double> clean(a.cview());
  std::vector<double> tau_c(static_cast<std::size_t>(n - 1));
  ft_gehrd(dev, clean.view(), tau_view(tau_c), {.nb = nb});

  fault::FaultSpec spec;
  spec.row = 40;
  spec.col = n - 1;  // a trailing column no blocked panel reaches
  spec.boundary = ft_total_boundaries(n, nb);
  fault::Injector inj(spec);

  std::vector<double> tau(static_cast<std::size_t>(n - 1));
  FtReport rep;
  ft_gehrd(dev, a.view(), tau_view(tau), {.nb = nb}, &inj, &rep);
  EXPECT_GE(rep.final_sweep_corrections, 1);
  EXPECT_LT(max_abs_diff(a.cview(), clean.cview()), 1e-9);
}

TEST(FtGehrd, SmallMagnitudeFaultBelowThresholdIsBenign) {
  // A disturbance below the detection threshold escapes detection — and by
  // construction it is also too small to matter (this documents the
  // designed behaviour rather than an aspiration).
  const index_t n = 96, nb = 32;
  hybrid::Device dev;
  Matrix<double> a = random_matrix(n, n, 34);
  Matrix<double> clean(a.cview());
  std::vector<double> tau_c(static_cast<std::size_t>(n - 1));
  ft_gehrd(dev, clean.view(), tau_view(tau_c), {.nb = nb});

  fault::FaultSpec spec;
  spec.area = fault::Area::LowerTrailing;
  spec.boundary = 1;
  spec.relative = false;
  spec.magnitude = 1e-14;
  fault::Injector inj(spec);

  std::vector<double> tau(static_cast<std::size_t>(n - 1));
  FtReport rep;
  FtOptions opt;
  opt.nb = nb;
  opt.final_sweep = false;  // the sweep would flag it at locate tolerance
  ft_gehrd(dev, a.view(), tau_view(tau), opt, &inj, &rep);
  EXPECT_EQ(rep.detections, 0);
  EXPECT_LT(max_abs_diff(a.cview(), clean.cview()), 1e-10);
}

TEST(FtGehrd, MagnitudeSweepDetectionBoundary) {
  // Faults orders of magnitude above the threshold must always be caught.
  const index_t n = 96, nb = 32;
  hybrid::Device dev;
  for (double mag : {1e-6, 1e-2, 1.0, 1e4}) {
    Matrix<double> a = random_matrix(n, n, 35);
    fault::FaultSpec spec;
    spec.area = fault::Area::LowerTrailing;
    spec.boundary = 1;
    spec.relative = false;
    spec.magnitude = mag;
    fault::Injector inj(spec, 60);
    std::vector<double> tau(static_cast<std::size_t>(n - 1));
    FtReport rep;
    ft_gehrd(dev, a.view(), tau_view(tau), {.nb = nb}, &inj, &rep);
    EXPECT_GE(rep.detections + rep.final_sweep_corrections, 1)
        << "fault of magnitude " << mag << " escaped";
  }
}

TEST(FtGehrd, ReportTimersPopulated) {
  const index_t n = 128, nb = 32;
  hybrid::Device dev;
  Matrix<double> a = random_matrix(n, n, 36);
  std::vector<double> tau(static_cast<std::size_t>(n - 1));
  FtReport rep;
  hybrid::HybridGehrdStats st;
  ft_gehrd(dev, a.view(), tau_view(tau), {.nb = nb}, nullptr, &rep, &st);
  EXPECT_GT(rep.encode_seconds, 0.0);
  EXPECT_GT(rep.detect_seconds, 0.0);
  EXPECT_GT(rep.q_seconds, 0.0);
  EXPECT_GT(rep.threshold, 0.0);
  EXPECT_EQ(rep.recovery_seconds, 0.0);  // no faults
  EXPECT_GT(st.total_seconds, 0.0);
  EXPECT_EQ(st.panels, ft_total_boundaries(n, nb));
  EXPECT_GT(st.h2d_bytes, 0u);
  EXPECT_GT(st.d2h_bytes, 0u);
}

TEST(FtGehrd, ProtectQDisabledSkipsQWork) {
  const index_t n = 96, nb = 32;
  hybrid::Device dev;
  Matrix<double> a = random_matrix(n, n, 37);
  std::vector<double> tau(static_cast<std::size_t>(n - 1));
  FtReport rep;
  FtOptions opt;
  opt.nb = nb;
  opt.protect_q = false;
  ft_gehrd(dev, a.view(), tau_view(tau), opt, nullptr, &rep);
  EXPECT_EQ(rep.q_seconds, 0.0);
  EXPECT_EQ(rep.q_corrections, 0);
}

TEST(FtGehrd, GradedMatrixThresholdStillClean) {
  // Entries spanning several orders of magnitude stress the scaled
  // threshold: no false positives allowed.
  const index_t n = 128, nb = 32;
  hybrid::Device dev;
  Matrix<double> a = random_graded_matrix(n, 38, 6.0);
  std::vector<double> tau(static_cast<std::size_t>(n - 1));
  FtReport rep;
  ft_gehrd(dev, a.view(), tau_view(tau), {.nb = nb}, nullptr, &rep);
  EXPECT_EQ(rep.detections, 0);
  EXPECT_EQ(rep.q_corrections, 0) << "the Q tolerance must not fire on graded data either";
  EXPECT_LT(rep.max_fault_free_gap, rep.threshold);
}

}  // namespace
}  // namespace fth::ft
