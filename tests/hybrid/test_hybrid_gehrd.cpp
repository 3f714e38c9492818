// Hybrid (host+device) reduction vs the host reference, stats, and hooks.
#include <gtest/gtest.h>

#include "la/generate.hpp"
#include "la/norms.hpp"
#include "lapack/gehrd.hpp"
#include "lapack/verify.hpp"
#include "hybrid/dev_blas.hpp"
#include "hybrid/hybrid_gehrd.hpp"
#include "test_utils.hpp"

namespace fth::hybrid {
namespace {

VectorView<double> tau_view(std::vector<double>& tau) {
  return VectorView<double>(tau.data(), static_cast<index_t>(tau.size()));
}
VectorView<const double> tau_cview(const std::vector<double>& tau) {
  return VectorView<const double>(tau.data(), static_cast<index_t>(tau.size()));
}

class HybridParam : public ::testing::TestWithParam<std::tuple<index_t, index_t>> {};

TEST_P(HybridParam, MatchesHostReduction) {
  const auto [n, nb] = GetParam();
  Device dev;
  Matrix<double> a = random_matrix(n, n, 2 * static_cast<std::uint64_t>(n) + 5);
  Matrix<double> orig(a.cview());
  Matrix<double> host(a.cview());

  std::vector<double> tau_h(static_cast<std::size_t>(n - 1));
  lapack::gehrd(host.view(), tau_view(tau_h), {.nb = nb, .nx = nb});

  std::vector<double> tau(static_cast<std::size_t>(n - 1));
  hybrid_gehrd(dev, a.view(), tau_view(tau), {.nb = nb, .nx = nb});

  // Same algorithm, same panel math: agreement to reassociation roundoff.
  EXPECT_LT(max_abs_diff(a.cview(), host.cview()), 1e-11);
  auto v = lapack::verify_reduction(orig.cview(), a.cview(), tau_cview(tau));
  EXPECT_TRUE(v.hessenberg);
  EXPECT_LT(v.residual, 1e-15);
  EXPECT_LT(v.orthogonality, 1e-14);
}

INSTANTIATE_TEST_SUITE_P(SizesAndBlocks, HybridParam,
                         ::testing::Combine(::testing::Values<index_t>(40, 96, 158, 250),
                                            ::testing::Values<index_t>(8, 16, 32)));

TEST(HybridGehrd, SmallMatrixFallsBackToHost) {
  Device dev;
  const index_t n = 20;
  Matrix<double> a = random_matrix(n, n, 1);
  Matrix<double> orig(a.cview());
  std::vector<double> tau(static_cast<std::size_t>(n - 1));
  HybridGehrdStats st;
  hybrid_gehrd(dev, a.view(), tau_view(tau), {.nb = 32, .nx = 128}, &st);
  EXPECT_EQ(st.panels, 0);  // too small for the hybrid path
  auto v = lapack::verify_reduction(orig.cview(), a.cview(), tau_cview(tau));
  EXPECT_LT(v.residual, 1e-14);
}

TEST(HybridGehrd, StatsPopulated) {
  Device dev;
  const index_t n = 200;
  Matrix<double> a = random_matrix(n, n, 2);
  std::vector<double> tau(static_cast<std::size_t>(n - 1));
  HybridGehrdStats st;
  hybrid_gehrd(dev, a.view(), tau_view(tau), {.nb = 32, .nx = 32}, &st);
  EXPECT_GT(st.panels, 0);
  EXPECT_GT(st.total_seconds, 0.0);
  EXPECT_GT(st.panel_seconds, 0.0);
  EXPECT_GT(st.update_seconds, 0.0);
  // At minimum the initial matrix upload.
  EXPECT_GE(st.h2d_bytes, static_cast<std::uint64_t>(n) * n * sizeof(double));
  EXPECT_GT(st.d2h_bytes, 0u);
}

TEST(HybridGehrd, HookCalledAtEveryBoundary) {
  Device dev;
  const index_t n = 200, nb = 32;
  Matrix<double> a = random_matrix(n, n, 3);
  std::vector<double> tau(static_cast<std::size_t>(n - 1));
  std::vector<index_t> boundaries;
  std::vector<index_t> next_panels;
  hybrid_gehrd(dev, a.view(), tau_view(tau), {.nb = nb, .nx = nb},
               nullptr, [&](const IterationHookContext& ctx) {
                 boundaries.push_back(ctx.boundary);
                 next_panels.push_back(ctx.next_panel);
                 EXPECT_EQ(ctx.nb, nb);
                 EXPECT_EQ(ctx.host_a.rows(), n);
                 EXPECT_EQ(ctx.dev_a.rows(), n);
               });
  ASSERT_FALSE(boundaries.empty());
  for (std::size_t b = 0; b < boundaries.size(); ++b) {
    EXPECT_EQ(boundaries[b], static_cast<index_t>(b + 1));
    EXPECT_EQ(next_panels[b], static_cast<index_t>((b + 1) * nb));
  }
}

TEST(HybridGehrd, HookCanCorruptDeviceData) {
  // The Fig. 2 mechanism: a hook-injected device-side error must propagate
  // into the result (the baseline is NOT fault tolerant).
  Device dev;
  const index_t n = 158, nb = 32;
  Matrix<double> a = random_matrix(n, n, 4);
  Matrix<double> clean(a.cview());
  std::vector<double> tau(static_cast<std::size_t>(n - 1));
  std::vector<double> tau_c(static_cast<std::size_t>(n - 1));
  hybrid_gehrd(dev, clean.view(), tau_view(tau_c), {.nb = nb, .nx = nb});

  hybrid_gehrd(dev, a.view(), tau_view(tau), {.nb = nb, .nx = nb}, nullptr,
               [&](const IterationHookContext& ctx) {
                 if (ctx.boundary == 1) ctx.dev_a(62, 126) += 100.0;  // area 2
               });
  EXPECT_GT(max_abs_diff(a.cview(), clean.cview()), 1.0);
}

TEST(DevBlas, AsyncKernelsMatchHostBlas) {
  Device dev;
  Stream& s = dev.stream();
  const index_t m = 30, n = 20, k = 25;
  Matrix<double> ha = random_matrix(m, k, 5);
  Matrix<double> hb = random_matrix(k, n, 6);
  Matrix<double> hc = random_matrix(m, n, 7);
  DeviceMatrix<double> da(dev, m, k), db(dev, k, n), dc(dev, m, n);
  copy_h2d_async(s, ha.cview(), da.view());
  copy_h2d_async(s, hb.cview(), db.view());
  copy_h2d_async(s, hc.cview(), dc.view());
  gemm_async(s, Trans::No, Trans::No, 1.5, da.view(),
             db.view(), 0.5, dc.view());
  Matrix<double> back(m, n);
  copy_d2h(s, dc.view(), back.view());

  Matrix<double> expected = test::ref_gemm(Trans::No, Trans::No, 1.5, ha.cview(), hb.cview(),
                                           0.5, hc.cview());
  test::expect_matrix_near(back.cview(), expected.cview(), 1e-11, "device gemm");
}

}  // namespace
}  // namespace fth::hybrid
