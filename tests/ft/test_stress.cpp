// Stress tests: sustained fault pressure across the whole factorization —
// the paper's "highly volatile environments" claim ("it can detect and
// correct more than one consecutive error") pushed to one fault at EVERY
// iteration boundary, for all three fault-tolerant factorizations.
#include <gtest/gtest.h>

#include "fault/campaign.hpp"
#include "fault/injector.hpp"
#include "ft/ft_gebrd.hpp"
#include "ft/ft_gehrd.hpp"
#include "ft/ft_sytrd.hpp"
#include "la/generate.hpp"
#include "la/norms.hpp"
#include "test_utils.hpp"

namespace fth::ft {
namespace {

using test::vec;

std::vector<fault::FaultSpec> one_fault_per_boundary(index_t boundaries,
                                                     fault::Area area) {
  std::vector<fault::FaultSpec> specs;
  for (index_t b = 1; b < boundaries; ++b) {  // last boundary has no trailing area 2
    fault::FaultSpec s;
    s.area = area;
    s.boundary = b;
    s.magnitude = 50.0 + 13.0 * static_cast<double>(b);  // distinct magnitudes
    specs.push_back(s);
  }
  return specs;
}

TEST(Stress, GehrdFaultAtEveryBoundary) {
  const index_t n = 160, nb = 32;
  hybrid::Device dev;
  Matrix<double> a0 = random_matrix(n, n, 1);
  Matrix<double> clean(a0.cview());
  std::vector<double> tau_c(static_cast<std::size_t>(n - 1));
  ft_gehrd(dev, clean.view(), vec(tau_c), {.nb = nb});

  const index_t boundaries = ft_total_boundaries(n, nb);
  fault::Injector inj(one_fault_per_boundary(boundaries, fault::Area::LowerTrailing), 5);
  Matrix<double> a(a0.cview());
  std::vector<double> tau(static_cast<std::size_t>(n - 1));
  FtReport rep;
  ft_gehrd(dev, a.view(), vec(tau), {.nb = nb}, &inj, &rep);

  EXPECT_EQ(static_cast<index_t>(inj.history().size()), boundaries - 1);
  EXPECT_GE(rep.detections, boundaries - 1);
  EXPECT_LT(max_abs_diff(a.cview(), clean.cview()), 1e-8);
}

TEST(Stress, SytrdFaultAtEveryBoundary) {
  const index_t n = 160, nb = 32;
  hybrid::Device dev;
  Matrix<double> a0 = random_symmetric_matrix(n, 2);
  std::vector<double> dc(static_cast<std::size_t>(n)), ec(static_cast<std::size_t>(n - 1)),
      tc(static_cast<std::size_t>(n - 1));
  Matrix<double> clean(a0.cview());
  ft_sytrd(dev, clean.view(), vec(dc), vec(ec), vec(tc), {.nb = nb});

  const index_t boundaries = ft_total_boundaries(n, nb);
  fault::Injector inj(one_fault_per_boundary(boundaries, fault::Area::LowerTrailing), 6);
  Matrix<double> a(a0.cview());
  std::vector<double> d(static_cast<std::size_t>(n)), e(static_cast<std::size_t>(n - 1)),
      tau(static_cast<std::size_t>(n - 1));
  FtReport rep;
  ft_sytrd(dev, a.view(), vec(d), vec(e), vec(tau), {.nb = nb}, &inj, &rep);
  EXPECT_GE(rep.detections, boundaries - 1);
  for (std::size_t k = 0; k < dc.size(); ++k) ASSERT_NEAR(d[k], dc[k], 1e-8);
}

TEST(Stress, GebrdFaultAtEveryBoundary) {
  const index_t n = 160, nb = 32;
  hybrid::Device dev;
  Matrix<double> a0 = random_matrix(n, n, 3);
  std::vector<double> dc(static_cast<std::size_t>(n)), ec(static_cast<std::size_t>(n - 1)),
      tqc(static_cast<std::size_t>(n)), tpc(static_cast<std::size_t>(n - 1));
  Matrix<double> clean(a0.cview());
  ft_gebrd(dev, clean.view(), vec(dc), vec(ec), vec(tqc), vec(tpc), {.nb = nb});

  const index_t boundaries = ft_total_boundaries(n, nb);
  fault::Injector inj(one_fault_per_boundary(boundaries, fault::Area::LowerTrailing), 7);
  Matrix<double> a(a0.cview());
  std::vector<double> d(static_cast<std::size_t>(n)), e(static_cast<std::size_t>(n - 1)),
      tq(static_cast<std::size_t>(n)), tp(static_cast<std::size_t>(n - 1));
  FtReport rep;
  ft_gebrd(dev, a.view(), vec(d), vec(e), vec(tq), vec(tp), {.nb = nb}, &inj, &rep);
  EXPECT_GE(rep.detections, boundaries - 1);
  for (std::size_t k = 0; k < dc.size(); ++k) ASSERT_NEAR(d[k], dc[k], 1e-8);
}

TEST(Stress, GehrdRecoveryEventsAreSelfConsistent) {
  const index_t n = 128, nb = 16;
  hybrid::Device dev;
  Matrix<double> a0 = random_matrix(n, n, 4);
  const index_t boundaries = ft_total_boundaries(n, nb);
  fault::Injector inj(one_fault_per_boundary(boundaries, fault::Area::LowerTrailing), 8);
  Matrix<double> a(a0.cview());
  std::vector<double> tau(static_cast<std::size_t>(n - 1));
  FtReport rep;
  ft_gehrd(dev, a.view(), vec(tau), {.nb = nb}, &inj, &rep);
  // Every event carries a positive gap and at least one action.
  for (const auto& ev : rep.events) {
    EXPECT_GT(ev.gap, rep.threshold);
    EXPECT_GE(ev.data_corrections + ev.checksum_corrections +
                  static_cast<int>(ev.checkpoint_only),
              1);
  }
  EXPECT_EQ(rep.rollbacks, static_cast<int>(rep.events.size()));
}

// ---- Campaigns across all three algorithms ----------------------------------

class CampaignAlgo : public ::testing::TestWithParam<int> {};

TEST_P(CampaignAlgo, SingleFaultCampaignRecovers) {
  fault::CampaignConfig cfg;
  cfg.algorithm = static_cast<fault::Algorithm>(GetParam());
  cfg.n = 96;
  cfg.nb = 16;
  cfg.trials = 4;
  cfg.faults_per_trial = 1;
  cfg.area = fault::Area::LowerTrailing;
  const fault::CampaignResult res = fault::run_campaign(cfg);
  EXPECT_EQ(res.recovered_count, 4) << fault::to_string(cfg.algorithm);
  EXPECT_EQ(res.correct_count, 4) << fault::to_string(cfg.algorithm);
  for (const auto& t : res.trials) EXPECT_GE(t.detections, 1);
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, CampaignAlgo, ::testing::Values(0, 1, 2));

}  // namespace
}  // namespace fth::ft
