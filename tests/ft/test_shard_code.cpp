// Coded shard layout + redundancy group in isolation (ISSUE 7 S3): the
// reconstruction math must recover a dropped shard exactly (to fp
// reassociation) at several n/Ddata geometries, and a second loss in the
// same group must be a provable escalation, never silent garbage.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <vector>

#include "ft/shard_code.hpp"
#include "la/generate.hpp"
#include "la/norms.hpp"
#include "test_utils.hpp"

namespace fth::ft {
namespace {

// ---- layout geometry --------------------------------------------------------

TEST(ShardLayout, RoundRobinGeometryIsABijectionOverColumns) {
  for (const int dd : {1, 2, 3, 5}) {
    for (const index_t n : {index_t{7}, index_t{12}, index_t{33}}) {
      const ShardLayout lay = make_shard_layout(n, dd);
      EXPECT_EQ(lay.rows(), n + 1);
      EXPECT_EQ(lay.w_max, (n + dd - 1) / dd);
      index_t covered = 0;
      for (int s = 0; s < dd; ++s) covered += lay.owned_cols(s);
      EXPECT_EQ(covered, n) << "dd=" << dd << " n=" << n;
      for (index_t c = 0; c < n; ++c) {
        const int s = lay.slot_of(c);
        const index_t l = lay.local_of(c);
        EXPECT_EQ(lay.global_of(s, l), c);
        EXPECT_LT(l, lay.owned_cols(s));
      }
    }
  }
}

TEST(ShardLayout, DomainStartCoversEveryTrailingColumnOnEverySlot) {
  const ShardLayout lay = make_shard_layout(33, 3);
  for (index_t c = 0; c <= 33; ++c) {
    const index_t d0 = lay.domain_start(c);
    // No trailing column may live below the lockstep domain…
    for (index_t cc = c; cc < lay.n; ++cc) EXPECT_GE(lay.local_of(cc), d0) << c;
    // …and the domain is tight: some slot owns a trailing column at d0.
    if (c < lay.n) {
      bool tight = false;
      for (int s = 0; s < lay.data_shards; ++s)
        if (lay.global_of(s, d0) >= c && lay.global_of(s, d0) < lay.n) tight = true;
      EXPECT_TRUE(tight) << c;
    }
  }
}

// ---- scatter / code row / gather -------------------------------------------

TEST(ShardCode, ScatterFillsTheCodeRowAndGatherRoundTrips) {
  const index_t n = 29;
  const Matrix<double> a = random_matrix(n, n, 7);
  const ShardLayout lay = make_shard_layout(n, 3);
  std::vector<Matrix<double>> shards;
  scatter_shards(a.cview(), lay, shards);
  ASSERT_EQ(shards.size(), 3u);
  // Each code entry is 0.0 + a(0, c) + a(1, c) + … bit for bit (padding
  // columns stay 0), so a clean shard's gap is exactly zero.
  for (int d = 0; d < lay.data_shards; ++d) {
    const Matrix<double>& sh = shards[static_cast<std::size_t>(d)];
    for (index_t l = 0; l < lay.w_max; ++l) {
      double sum = 0.0;
      if (l < lay.owned_cols(d))
        for (index_t r = 0; r < n; ++r) sum += a(r, lay.global_of(d, l));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(sh(n, l)), std::bit_cast<std::uint64_t>(sum))
          << "slot " << d << " column " << l;
    }
    EXPECT_EQ(code_row_gap(sh.cview()), 0.0);
  }

  Matrix<double> back(n, n);
  gather_shards(lay, shards, back.view(), 0);
  test::expect_matrix_near(back.cview(), a.cview(), 0.0, "gather(scatter(a))");
}

TEST(ShardCode, CodeRowGapSeesASingleCorruptElement)  {
  const index_t n = 16;
  const Matrix<double> a = random_matrix(n, n, 3);
  const ShardLayout lay = make_shard_layout(n, 2);
  std::vector<Matrix<double>> shards;
  scatter_shards(a.cview(), lay, shards);
  shards[1](4, 2) += 0.5;
  EXPECT_LT(code_row_gap(shards[0].cview()), 1e-13);
  EXPECT_GT(code_row_gap(shards[1].cview()), 0.4);
  // Restricting the scan to columns before the corruption stays clean.
  EXPECT_LT(code_row_gap(shards[1].cview(), 2), 1e-13);

  // A non-finite element or code entry makes the gap infinite.
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(), inf, -inf}) {
    scatter_shards(a.cview(), lay, shards);
    shards[0](5, 3) = bad;
    EXPECT_EQ(code_row_gap(shards[0].cview()), inf) << bad;
    shards[1](n, 2) = bad;
    EXPECT_EQ(code_row_gap(shards[1].cview()), inf) << bad;
  }
}

// ---- reconstruction ---------------------------------------------------------

TEST(ShardCode, ReconstructsADroppedShardAtSeveralGeometries) {
  for (const int dd : {2, 3, 4}) {
    for (const index_t n : {index_t{24}, index_t{65}}) {
      const Matrix<double> a = random_matrix(n, n, 11 * dd + n);
      const ShardLayout lay = make_shard_layout(n, dd);
      std::vector<Matrix<double>> shards;
      scatter_shards(a.cview(), lay, shards);
      Matrix<double> parity;
      encode_parity(lay, shards, parity);

      for (int lost = 0; lost < dd; ++lost) {
        const Matrix<double> truth(shards[static_cast<std::size_t>(lost)].cview());
        // The lost shard's bytes are garbage — reconstruction must not read them.
        for (index_t j = 0; j < lay.w_max; ++j)
          for (index_t i = 0; i < lay.rows(); ++i)
            shards[static_cast<std::size_t>(lost)](i, j) = 1e30;
        Matrix<double> rec;
        reconstruct_shard(lay, shards, parity.cview(), lost, rec);
        test::expect_matrix_near(rec.cview(), truth.cview(), 1e-12,
                                 "parity - sum(survivors)");
        EXPECT_LT(code_row_gap(rec.cview()), 1e-11);
        copy(truth.cview(), shards[static_cast<std::size_t>(lost)].view());
      }
    }
  }
}

TEST(ShardCode, ReconstructionCommutesWithALinearLockstepUpdate) {
  // The driver's no-rollback guarantee rests on linearity: updating every
  // member (parity included) in lockstep keeps parity = Σ shards exactly,
  // so a post-update reconstruction yields the post-update lost shard.
  const index_t n = 20;
  const int dd = 2;
  const Matrix<double> a = random_matrix(n, n, 5);
  const ShardLayout lay = make_shard_layout(n, dd);
  std::vector<Matrix<double>> shards;
  scatter_shards(a.cview(), lay, shards);
  Matrix<double> parity;
  encode_parity(lay, shards, parity);

  // E := E - v·(wᵀ·E) on rows 0..n (code row rides along), every member.
  const Matrix<double> v = random_matrix(n + 1, 1, 17);
  const Matrix<double> w = random_matrix(n + 1, 1, 19);
  auto apply = [&](Matrix<double>& e) {
    for (index_t j = 0; j < e.cols(); ++j) {
      double dot = 0.0;
      for (index_t i = 0; i < e.rows(); ++i) dot += w(i, 0) * e(i, j);
      for (index_t i = 0; i < e.rows(); ++i) e(i, j) -= v(i, 0) * dot;
    }
  };
  for (auto& sh : shards) apply(sh);
  apply(parity);

  const Matrix<double> truth(shards[1].cview());
  for (index_t j = 0; j < lay.w_max; ++j)
    for (index_t i = 0; i < lay.rows(); ++i) shards[1](i, j) = -7e33;
  Matrix<double> rec;
  reconstruct_shard(lay, shards, parity.cview(), 1, rec);
  test::expect_matrix_near(rec.cview(), truth.cview(), 1e-10, "post-update reconstruction");
}

// ---- redundancy-group accounting -------------------------------------------

TEST(RedundancyGroup, SecondLossExceedsTheCorrectionRadius) {
  RedundancyGroup g(3);
  EXPECT_FALSE(g.degraded());
  EXPECT_TRUE(g.declare_lost(1));  // first loss: reconstructible
  EXPECT_TRUE(g.degraded());
  EXPECT_EQ(g.losses(), 1);
  EXPECT_FALSE(g.declare_lost(2));  // second loss: escalate
  EXPECT_EQ(g.losses(), 2);
}

TEST(RedundancyGroup, RedetectingTheSameLossDoesNotInflateTheLedger) {
  RedundancyGroup g(2);
  EXPECT_TRUE(g.declare_lost(0));
  // The slot is already charged: its reconstruction spent the parity, so a
  // re-detection (the remapped replacement dying) cannot reconstruct again —
  // but it is still one loss in the ledger, not two.
  EXPECT_FALSE(g.declare_lost(0));
  EXPECT_EQ(g.losses(), 1);
  EXPECT_FALSE(g.declare_lost(g.parity_slot()));
  EXPECT_EQ(g.losses(), 2);
}

TEST(RedundancyGroup, ParityLossAloneDegradesWithoutEscalation) {
  RedundancyGroup g(4);
  EXPECT_EQ(g.parity_slot(), 4);
  EXPECT_TRUE(g.declare_lost(g.parity_slot()));
  EXPECT_TRUE(g.degraded());
}

}  // namespace
}  // namespace fth::ft
