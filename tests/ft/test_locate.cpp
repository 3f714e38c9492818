// Error location: single/multiple errors, checksum-element errors, and the
// rectangle-ambiguity failure mode the paper excludes — for the row/column
// codes (Locate) and ft_sytrd's plain-plus-weighted row codes
// (LocateWeighted).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "ft/checksum.hpp"
#include "ft/locate.hpp"
#include "la/generate.hpp"

namespace fth::ft {
namespace {

/// Build discrepancy machinery from an extended matrix with injected data
/// errors: fresh sums see the errors, maintained checksums do not.
struct Scenario {
  Matrix<double> ext{0, 0};
  Matrix<double> host{0, 0};

  explicit Scenario(index_t n, std::uint64_t seed = 1)
      : ext(encode_extended(random_matrix(n, n, seed).cview())), host(n, n) {}

  LocateResult run(double tol = 1e-9) {
    const index_t n = host.rows();
    FreshSums fs = finished_sums(host.cview(), 0);
    add_trailing_sums(ext.cview(), 0, fs);
    std::vector<double> row_code(static_cast<std::size_t>(n));
    std::vector<double> col_code(static_cast<std::size_t>(n));
    for (index_t k = 0; k < n; ++k) {
      row_code[static_cast<std::size_t>(k)] = ext(k, n);
      col_code[static_cast<std::size_t>(k)] = ext(n, k);
    }
    return locate(compare_checksums(fs, row_code, col_code, tol), fs, tol);
  }
};

TEST(Locate, NothingWhenClean) {
  Scenario s(10);
  const LocateResult r = s.run();
  EXPECT_TRUE(r.data_errors.empty());
  EXPECT_TRUE(r.chk_col_errors.empty());
  EXPECT_TRUE(r.chk_row_errors.empty());
}

TEST(Locate, SingleDataError) {
  Scenario s(12);
  s.ext(4, 9) += 3.75;
  const LocateResult r = s.run();
  ASSERT_EQ(r.data_errors.size(), 1u);
  EXPECT_EQ(r.data_errors[0].row, 4);
  EXPECT_EQ(r.data_errors[0].col, 9);
  EXPECT_NEAR(r.data_errors[0].delta, 3.75, 1e-10);
  // Applying the correction restores the element.
  s.ext(4, 9) -= r.data_errors[0].delta;
  EXPECT_TRUE(s.run().data_errors.empty());
}

TEST(Locate, TwoErrorsDistinctMagnitudes) {
  Scenario s(16);
  s.ext(2, 5) += 1.0;
  s.ext(9, 13) += 4.0;
  const LocateResult r = s.run();
  ASSERT_EQ(r.data_errors.size(), 2u);
  // Sorted by row by construction of the discrepancy scan.
  EXPECT_EQ(r.data_errors[0].row, 2);
  EXPECT_EQ(r.data_errors[0].col, 5);
  EXPECT_NEAR(r.data_errors[0].delta, 1.0, 1e-10);
  EXPECT_EQ(r.data_errors[1].row, 9);
  EXPECT_EQ(r.data_errors[1].col, 13);
  EXPECT_NEAR(r.data_errors[1].delta, 4.0, 1e-10);
}

TEST(Locate, ThreeErrorsNonRectangle) {
  Scenario s(20);
  s.ext(1, 2) += 1.0;
  s.ext(5, 7) += 2.0;
  s.ext(11, 15) += -3.0;
  const LocateResult r = s.run();
  ASSERT_EQ(r.data_errors.size(), 3u);
  for (const auto& e : r.data_errors) {
    s.ext(e.row, e.col) -= e.delta;
  }
  EXPECT_TRUE(s.run().data_errors.empty());
}

TEST(Locate, RectangleWithEqualMagnitudesIsAmbiguous) {
  // Two errors with identical deltas at (r1,c1) and (r2,c2): the pairing
  // {(r1,c1),(r2,c2)} vs {(r1,c2),(r2,c1)} cannot be resolved — exactly the
  // paper's "positions form a rectangle" exclusion.
  Scenario s(14);
  s.ext(3, 4) += 2.0;
  s.ext(8, 11) += 2.0;
  EXPECT_THROW(s.run(), recovery_error);
}

TEST(Locate, SameRowTwoErrorsRecoveredFromColumnDeltas) {
  // One mismatched row, two mismatched columns. The shared row's delta is
  // the sum of the column deltas, and each column delta is itself the exact
  // per-element correction — line-confined patterns stay within the code
  // distance of the orthogonal code.
  Scenario s(14);
  s.ext(6, 3) += 1.0;
  s.ext(6, 10) += 2.0;
  const LocateResult r = s.run();
  ASSERT_EQ(r.data_errors.size(), 2u);
  for (const auto& e : r.data_errors) s.ext(e.row, e.col) -= e.delta;
  EXPECT_TRUE(s.run().data_errors.empty());
}

TEST(Locate, SameColumnTwoErrorsRecoveredFromRowDeltas) {
  Scenario s(14);
  s.ext(2, 8) += 1.0;
  s.ext(9, 8) += 2.0;
  const LocateResult r = s.run();
  ASSERT_EQ(r.data_errors.size(), 2u);
  for (const auto& e : r.data_errors) s.ext(e.row, e.col) -= e.delta;
  EXPECT_TRUE(s.run().data_errors.empty());
}

TEST(Locate, SameColumnThreeErrorsRecovered) {
  // Rectangle faults stay excluded, but k errors confined to one line are
  // now corrected element-wise.
  Scenario s(16);
  s.ext(1, 5) += 1.5;
  s.ext(7, 5) += -2.0;
  s.ext(12, 5) += 4.25;
  const LocateResult r = s.run();
  ASSERT_EQ(r.data_errors.size(), 3u);
  for (const auto& e : r.data_errors) s.ext(e.row, e.col) -= e.delta;
  EXPECT_TRUE(s.run().data_errors.empty());
}

TEST(Locate, ChecksumColumnErrorIdentified) {
  Scenario s(12);
  s.ext(5, 12) += 9.0;  // corrupt a checksum-column element itself
  const LocateResult r = s.run();
  EXPECT_TRUE(r.data_errors.empty());
  ASSERT_EQ(r.chk_col_errors.size(), 1u);
  EXPECT_EQ(r.chk_col_errors[0].index, 5);
  // The reported fresh value repairs the checksum.
  s.ext(5, 12) = r.chk_col_errors[0].fresh;
  EXPECT_TRUE(s.run().chk_col_errors.empty());
}

TEST(Locate, ChecksumRowErrorIdentified) {
  Scenario s(12);
  s.ext(12, 7) += -4.0;
  const LocateResult r = s.run();
  EXPECT_TRUE(r.data_errors.empty());
  ASSERT_EQ(r.chk_row_errors.size(), 1u);
  EXPECT_EQ(r.chk_row_errors[0].index, 7);
}

TEST(Locate, MismatchedCountsThrowWhenSumsDisagree) {
  // Three rows vs one column is only a line-confined pattern if the row
  // deltas add up to the column's delta; an inconsistent total means the
  // pattern cannot be explained by errors in one column and must be
  // rejected.
  Discrepancy d;
  d.rows = {1, 2, 3};
  d.row_delta = {1.0, 2.0, 3.0};
  d.cols = {4};
  d.col_delta = {10.0};  // ≠ 1+2+3
  FreshSums fs;
  fs.row.assign(10, 0.0);
  fs.col.assign(10, 0.0);
  EXPECT_THROW(locate(d, fs, 1e-9), recovery_error);
}

TEST(Locate, MismatchedCountsRecoveredWhenSumsAgree) {
  Discrepancy d;
  d.rows = {1, 2, 3};
  d.row_delta = {1.0, 2.0, 3.0};
  d.cols = {4};
  d.col_delta = {6.0};
  FreshSums fs;
  fs.row.assign(10, 0.0);
  fs.col.assign(10, 0.0);
  const LocateResult r = locate(d, fs, 1e-9);
  ASSERT_EQ(r.data_errors.size(), 3u);
  EXPECT_EQ(r.data_errors[0].row, 1);
  EXPECT_EQ(r.data_errors[0].col, 4);
  EXPECT_NEAR(r.data_errors[0].delta, 1.0, 1e-12);
  EXPECT_EQ(r.data_errors[2].row, 3);
  EXPECT_NEAR(r.data_errors[2].delta, 3.0, 1e-12);
}

TEST(Locate, TooManyErrorsRejected) {
  Discrepancy d;
  for (index_t k = 0; k < 9; ++k) {
    d.rows.push_back(k);
    d.row_delta.push_back(static_cast<double>(k + 1));
    d.cols.push_back(k + 20);
    d.col_delta.push_back(static_cast<double>(k + 1));
  }
  FreshSums fs;
  fs.row.assign(40, 0.0);
  fs.col.assign(40, 0.0);
  EXPECT_THROW(locate(d, fs, 1e-9), recovery_error);
}

TEST(Locate, PermutedMagnitudeMatching) {
  // Deltas deliberately ordered so that row order ≠ column order: the
  // matcher must pair by magnitude, not by position.
  Scenario s(18);
  s.ext(2, 14) += 5.0;   // row 2 ↔ col 14
  s.ext(10, 3) += -1.0;  // row 10 ↔ col 3
  const LocateResult r = s.run();
  ASSERT_EQ(r.data_errors.size(), 2u);
  EXPECT_EQ(r.data_errors[0].row, 2);
  EXPECT_EQ(r.data_errors[0].col, 14);
  EXPECT_EQ(r.data_errors[1].row, 10);
  EXPECT_EQ(r.data_errors[1].col, 3);
}

// ---- ft_sytrd's weighted matcher ---------------------------------------------

/// A symmetric matrix held in full with its two maintained row codes, plain
/// (A·e) and weighted (A·ω, ω_c = c + 1). A strike on stored element
/// (p, q) changes both logical entries, as the lower-triangle storage does.
struct SymScenario {
  Matrix<double> a{0, 0};
  LineSums sums;

  explicit SymScenario(index_t n, std::uint64_t seed = 3)
      : a(random_symmetric_matrix(n, seed)) {
    sums.row_code = plain();
    sums.col_code = weighted();
  }

  [[nodiscard]] std::vector<double> row_sums(bool weighted_code) const {
    std::vector<double> out(static_cast<std::size_t>(a.rows()), 0.0);
    for (index_t c = 0; c < a.cols(); ++c)
      for (index_t r = 0; r < a.rows(); ++r)
        out[static_cast<std::size_t>(r)] +=
            a(r, c) * (weighted_code ? static_cast<double>(c + 1) : 1.0);
    return out;
  }
  [[nodiscard]] std::vector<double> plain() const { return row_sums(false); }
  [[nodiscard]] std::vector<double> weighted() const { return row_sums(true); }

  void strike(index_t p, index_t q, double delta) {
    a(p, q) += delta;
    if (p != q) a(q, p) += delta;
  }
  void poison(index_t p, index_t q) {
    a(p, q) = std::numeric_limits<double>::quiet_NaN();
    a(q, p) = a(p, q);
  }

  LocateResult run(double tol = 1e-9) {
    sums.fresh = {plain(), weighted()};
    return locate_weighted(sums, tol);
  }
};

TEST(LocateWeighted, NothingWhenClean) {
  SymScenario s(12);
  const LocateResult r = s.run();
  EXPECT_TRUE(r.data_errors.empty());
  EXPECT_TRUE(r.chk_col_errors.empty());
  EXPECT_TRUE(r.chk_row_errors.empty());
  EXPECT_TRUE(r.reconstructions.empty());
}

TEST(LocateWeighted, OffDiagonalErrorLocatedInTheLowerTriangle) {
  SymScenario s(16);
  s.strike(11, 4, 2.5);
  const LocateResult r = s.run();
  ASSERT_EQ(r.data_errors.size(), 1u) << "the partner row is consumed";
  EXPECT_EQ(r.data_errors[0].row, 11);
  EXPECT_EQ(r.data_errors[0].col, 4);
  EXPECT_NEAR(r.data_errors[0].delta, 2.5, 1e-12);
  EXPECT_TRUE(r.chk_col_errors.empty());
  EXPECT_TRUE(r.chk_row_errors.empty());
}

TEST(LocateWeighted, DiagonalErrorLocated) {
  SymScenario s(16);
  s.strike(7, 7, -1.25);
  const LocateResult r = s.run();
  ASSERT_EQ(r.data_errors.size(), 1u);
  EXPECT_EQ(r.data_errors[0].row, 7);
  EXPECT_EQ(r.data_errors[0].col, 7);
  EXPECT_NEAR(r.data_errors[0].delta, -1.25, 1e-12);
}

TEST(LocateWeighted, PlainCodeOnlyCorruptionRewritesThePlainEntry) {
  SymScenario s(16);
  s.sums.row_code[6] += 3.0;
  const LocateResult r = s.run();
  EXPECT_TRUE(r.data_errors.empty());
  EXPECT_TRUE(r.chk_row_errors.empty());
  ASSERT_EQ(r.chk_col_errors.size(), 1u) << "the plain code rides in the row slot";
  EXPECT_EQ(r.chk_col_errors[0].index, 6);
  EXPECT_EQ(r.chk_col_errors[0].fresh, s.plain()[6]);
}

TEST(LocateWeighted, WeightedCodeOnlyCorruptionRewritesTheWeightedEntry) {
  SymScenario s(16);
  s.sums.col_code[9] -= 40.0;
  const LocateResult r = s.run();
  EXPECT_TRUE(r.data_errors.empty());
  EXPECT_TRUE(r.chk_col_errors.empty());
  ASSERT_EQ(r.chk_row_errors.size(), 1u) << "the weighted code rides in the column slot";
  EXPECT_EQ(r.chk_row_errors[0].index, 9);
  EXPECT_EQ(r.chk_row_errors[0].fresh, s.weighted()[9]);
}

TEST(LocateWeighted, TwoErrorsInDistinctRowsLocated) {
  SymScenario s(20);
  s.strike(10, 2, 1.0);
  s.strike(15, 6, 4.0);
  const LocateResult r = s.run();
  ASSERT_EQ(r.data_errors.size(), 2u);
  EXPECT_EQ(r.data_errors[0].row, 10);
  EXPECT_EQ(r.data_errors[0].col, 2);
  EXPECT_NEAR(r.data_errors[0].delta, 1.0, 1e-12);
  EXPECT_EQ(r.data_errors[1].row, 15);
  EXPECT_EQ(r.data_errors[1].col, 6);
  EXPECT_NEAR(r.data_errors[1].delta, 4.0, 1e-12);
}

TEST(LocateWeighted, EqualMagnitudePairLocated) {
  // Equal deltas: each partner row must be consumed by its own row, not
  // by the other error's.
  SymScenario s(20);
  s.strike(13, 3, 2.0);
  s.strike(17, 5, 2.0);
  const LocateResult r = s.run();
  ASSERT_EQ(r.data_errors.size(), 2u);
  EXPECT_EQ(r.data_errors[0].row, 13);
  EXPECT_EQ(r.data_errors[0].col, 3);
  EXPECT_EQ(r.data_errors[1].row, 17);
  EXPECT_EQ(r.data_errors[1].col, 5);
}

TEST(LocateWeighted, RatioThatNamesNoColumnThrows) {
  // Two errors in row 8: its Δw/Δe averages their columns' weights.
  SymScenario s(16);
  s.strike(8, 2, 1.0);
  s.strike(8, 5, 1.0);
  EXPECT_THROW(s.run(), recovery_error);
}

TEST(LocateWeighted, MoreThanSixteenFlagsThrow) {
  SymScenario s(32);
  for (index_t k = 0; k < 9; ++k) s.strike(20 + k, k, 1.0 + static_cast<double>(k));
  EXPECT_THROW(s.run(), recovery_error);
}

TEST(LocateWeighted, OneNonFiniteElementGivesOneRebuildTarget) {
  SymScenario s(16);
  s.poison(12, 5);
  const LocateResult r = s.run();
  EXPECT_TRUE(r.data_errors.empty());
  ASSERT_EQ(r.reconstructions.size(), 1u);
  EXPECT_EQ(r.reconstructions[0].row, 12);
  EXPECT_EQ(r.reconstructions[0].col, 5);
  EXPECT_TRUE(r.reconstructions[0].use_row_code) << "rebuilt from the plain code";

  SymScenario d(16);
  d.poison(4, 4);
  const LocateResult rd = d.run();
  ASSERT_EQ(rd.reconstructions.size(), 1u);
  EXPECT_EQ(rd.reconstructions[0].row, 4);
  EXPECT_EQ(rd.reconstructions[0].col, 4);
}

TEST(LocateWeighted, NonFiniteCodeEntryIsRewrittenFromAFiniteFreshSum) {
  SymScenario s(16);
  s.sums.row_code[3] = std::numeric_limits<double>::infinity();
  s.sums.col_code[10] = std::numeric_limits<double>::quiet_NaN();
  const LocateResult r = s.run();
  EXPECT_TRUE(r.data_errors.empty());
  ASSERT_EQ(r.chk_col_errors.size(), 1u);
  EXPECT_EQ(r.chk_col_errors[0].index, 3);
  ASSERT_EQ(r.chk_row_errors.size(), 1u);
  EXPECT_EQ(r.chk_row_errors[0].index, 10);
}

TEST(LocateWeighted, ThreeNonFiniteRowsThrow) {
  SymScenario s(16);
  s.poison(9, 3);
  s.poison(12, 12);
  EXPECT_THROW(s.run(), recovery_error);
}

}  // namespace
}  // namespace fth::ft
