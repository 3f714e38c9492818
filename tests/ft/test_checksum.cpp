// Checksum encoding, fresh-sum computation, and Theorem 1 as an executable
// property: the extended right/left block updates preserve both checksums.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "ft/checksum.hpp"
#include "la/blas3.hpp"
#include "la/generate.hpp"
#include "la/norms.hpp"
#include "common/rng.hpp"

namespace fth::ft {
namespace {

/// Fresh sums with finished columns 0..i−1 from `host`, the rest from `ext`.
FreshSums fresh_sums(const Matrix<double>& host, const Matrix<double>& ext, index_t i) {
  FreshSums fs = finished_sums(host.cview(), i);
  add_trailing_sums(ext.cview(), i, fs);
  return fs;
}

/// compare_checksums against the extended matrix's checksum column and row.
Discrepancy compare_ext(const FreshSums& fs, const Matrix<double>& ext, double tol) {
  const index_t n = ext.rows() - 1;
  std::vector<double> row_code(static_cast<std::size_t>(n));
  std::vector<double> col_code(static_cast<std::size_t>(n));
  for (index_t k = 0; k < n; ++k) {
    row_code[static_cast<std::size_t>(k)] = ext(k, n);
    col_code[static_cast<std::size_t>(k)] = ext(n, k);
  }
  return compare_checksums(fs, row_code, col_code, tol);
}

TEST(Encode, ChecksumsAreRowAndColumnSums) {
  Matrix<double> a = random_matrix(9, 9, 1);
  Matrix<double> ext = encode_extended(a.cview());
  ASSERT_EQ(ext.rows(), 10);
  ASSERT_EQ(ext.cols(), 10);
  for (index_t i = 0; i < 9; ++i) {
    double rs = 0.0;
    for (index_t j = 0; j < 9; ++j) {
      EXPECT_EQ(ext(i, j), a(i, j));
      rs += a(i, j);
    }
    EXPECT_NEAR(ext(i, 9), rs, 1e-14);
  }
  double total = 0.0;
  for (index_t j = 0; j < 9; ++j) {
    double cs = 0.0;
    for (index_t i = 0; i < 9; ++i) cs += a(i, j);
    EXPECT_NEAR(ext(9, j), cs, 1e-14);
    total += cs;
  }
  EXPECT_NEAR(ext(9, 9), total, 1e-12);
}

TEST(Encode, DetectionGapSmallWhenClean) {
  Matrix<double> a = random_matrix(64, 64, 2);
  Matrix<double> ext = encode_extended(a.cview());
  EXPECT_LT(detection_gap(ext.cview()), default_threshold(norm_fro(a.cview()), 64));
}

TEST(Encode, DetectionGapSeesCorruptedChecksum) {
  Matrix<double> a = random_matrix(32, 32, 3);
  Matrix<double> ext = encode_extended(a.cview());
  ext(5, 32) += 7.0;  // corrupt the checksum column
  EXPECT_NEAR(detection_gap(ext.cview()), 7.0, 1e-10);
}

TEST(FreshSums, SplitAcrossMemoriesMatchesDefinition) {
  // host_a holds finished columns (< i) in factored form; ext holds live
  // trailing columns. Construct both from a known logical matrix.
  const index_t n = 12, i = 5;
  Matrix<double> logical = random_matrix(n, n, 4);
  // Zero below the subdiagonal of finished columns (the logical content).
  for (index_t c = 0; c < i; ++c)
    for (index_t r = c + 2; r < n; ++r) logical(r, c) = 0.0;

  Matrix<double> host_a(logical.cview());
  // Host below-subdiagonal of finished columns stores Householder garbage
  // that must be IGNORED by the fresh sums.
  for (index_t c = 0; c < i; ++c)
    for (index_t r = c + 2; r < n; ++r) host_a(r, c) = 99.0;

  Matrix<double> ext(n + 1, n + 1);
  for (index_t c = 0; c < n; ++c)
    for (index_t r = 0; r < n; ++r) ext(r, c) = logical(r, c);
  // Finished columns on the "device" hold stale pre-iteration data that
  // must also be ignored.
  for (index_t c = 0; c < i; ++c)
    for (index_t r = 0; r < n; ++r) ext(r, c) = -77.0;

  const FreshSums fs = fresh_sums(host_a, ext, i);
  for (index_t r = 0; r < n; ++r) {
    double expect = 0.0;
    for (index_t c = 0; c < n; ++c) expect += logical(r, c);
    EXPECT_NEAR(fs.row[static_cast<std::size_t>(r)], expect, 1e-13) << "row " << r;
  }
  for (index_t c = 0; c < n; ++c) {
    double expect = 0.0;
    for (index_t r = 0; r < n; ++r) expect += logical(r, c);
    EXPECT_NEAR(fs.col[static_cast<std::size_t>(c)], expect, 1e-13) << "col " << c;
  }
}

TEST(Compare, FlagsExactlyTheCorruptedLines) {
  Matrix<double> a = random_matrix(16, 16, 5);
  Matrix<double> ext = encode_extended(a.cview());
  ext(3, 7) += 2.5;  // data corruption
  const FreshSums fs = fresh_sums(a, ext, 0);
  // Wait: fresh sums read ext's trailing columns, which include the error,
  // while the maintained checksums do not ⇒ row 3 and column 7 mismatch.
  const Discrepancy d = compare_ext(fs, ext, 1e-9);
  ASSERT_EQ(d.rows.size(), 1u);
  ASSERT_EQ(d.cols.size(), 1u);
  EXPECT_EQ(d.rows[0], 3);
  EXPECT_EQ(d.cols[0], 7);
  EXPECT_NEAR(d.row_delta[0], 2.5, 1e-10);
  EXPECT_NEAR(d.col_delta[0], 2.5, 1e-10);
}

TEST(Compare, FlagsAndCountsNonFiniteDeltas) {
  // abs(NaN) > tol is false: the builder must flag a NaN delta anyway, on
  // either side of the subtraction, and count it.
  Matrix<double> a = random_matrix(16, 16, 8);
  Matrix<double> ext = encode_extended(a.cview());
  ext(2, 16) = std::numeric_limits<double>::quiet_NaN();  // maintained row code
  ext(9, 4) = std::numeric_limits<double>::infinity();    // data: row 9 and column 4
  const Discrepancy d = compare_ext(fresh_sums(a, ext, 0), ext, 1e-9);
  ASSERT_EQ(d.rows.size(), 2u);
  EXPECT_EQ(d.rows[0], 2);
  EXPECT_EQ(d.rows[1], 9);
  ASSERT_EQ(d.cols.size(), 1u);
  EXPECT_EQ(d.cols[0], 4);
  EXPECT_EQ(d.nonfinite, 3);
  EXPECT_TRUE(std::isnan(d.row_delta[0]));
}

TEST(Compare, CleanWhenUncorrupted) {
  Matrix<double> a = random_matrix(20, 20, 6);
  Matrix<double> ext = encode_extended(a.cview());
  const FreshSums fs = fresh_sums(a, ext, 0);
  EXPECT_TRUE(compare_ext(fs, ext, 1e-10).clean());
}

// ---- Theorem 1 as an executable property -----------------------------------
//
// Build a random extended matrix, a random unit-lower-trapezoidal V with a
// proper T (from larft-style construction — here simply a random upper
// triangular T works for checksum *consistency*, which is a linear-algebra
// identity independent of T's meaning), apply the extended right and left
// updates exactly as the driver does, and check both checksum identities
// still hold on the trailing region.

class Theorem1 : public ::testing::TestWithParam<std::tuple<index_t, index_t, index_t>> {};

TEST_P(Theorem1, ChecksumsSurviveExtendedUpdates) {
  const auto [n, i, ib] = GetParam();
  ASSERT_LT(i + ib, n);
  Rng rng(99);

  // Finished columns (< i) are logically zero below the subdiagonal — the
  // reason the left update (rows ≥ i+1) never needs to touch them. The
  // synthetic matrix must respect that invariant for the checksum algebra
  // to close, exactly as in the real factorization.
  Matrix<double> base = random_matrix(n, n, 7);
  for (index_t c = 0; c < i; ++c)
    for (index_t r = i + 1; r < n; ++r) base(r, c) = 0.0;
  Matrix<double> ext = encode_extended(base.cview());
  const index_t vrows = n - i - 1;

  // Random V (unit lower trapezoid) + random upper triangular T.
  Matrix<double> vce(vrows + 1, ib);  // last row = column checksums of V
  for (index_t j = 0; j < ib; ++j) {
    vce(j, j) = 1.0;
    for (index_t r = j + 1; r < vrows; ++r) vce(r, j) = rng.uniform(-1.0, 1.0);
    double cs = 0.0;
    for (index_t r = 0; r < vrows; ++r) cs += vce(r, j);
    vce(vrows, j) = cs;
  }
  Matrix<double> t(ib, ib);
  for (index_t j = 0; j < ib; ++j)
    for (index_t r = 0; r <= j; ++r) t(r, j) = rng.uniform(-1.0, 1.0);

  // Yce = E(0:n+1, i+1:n)·V·T — all rows including the checksum row, so the
  // update is checksum-consistent by construction (as in the driver).
  Matrix<double> yv(n + 1, ib);
  blas::gemm(Trans::No, Trans::No, 1.0,
             MatrixView<const double>(ext.block(0, i + 1, n + 1, vrows)),
             MatrixView<const double>(vce.block(0, 0, vrows, ib)), 0.0, yv.view());
  Matrix<double> yce(n + 1, ib);
  blas::gemm(Trans::No, Trans::No, 1.0, yv.cview(), t.cview(), 0.0, yce.view());

  // Extended right update over EVERY column the transform touches
  // (i+1..n−1 plus the checksum column); column i is never right-updated
  // because V carries no row for it. Yce has n+1 rows, so the checksum row
  // is maintained by the same GEMM — exactly Theorem 1's construction.
  const index_t rwidth = n - i;  // columns i+1..n−1 and the checksum column
  blas::gemm(Trans::No, Trans::Yes, -1.0, yce.cview(),
             MatrixView<const double>(vce.block(0, 0, vrows + 1, ib)), 1.0,
             ext.block(0, i + 1, n + 1, rwidth));

  // Extended left update over columns i..n (data + checksum column), with
  // Vce maintaining the checksum row: W = Tᵀ·Vᵀ·E; E −= Vce·W.
  const index_t lwidth = n + 1 - i;
  Matrix<double> w(ib, lwidth);
  blas::gemm(Trans::Yes, Trans::No, 1.0, MatrixView<const double>(vce.block(0, 0, vrows, ib)),
             MatrixView<const double>(ext.block(i + 1, i, vrows, lwidth)), 0.0, w.view());
  blas::trmm(Side::Left, Uplo::Upper, Trans::Yes, Diag::NonUnit, 1.0, t.cview(), w.view());
  blas::gemm(Trans::No, Trans::No, -1.0, MatrixView<const double>(vce.block(0, 0, vrows + 1, ib)),
             w.cview(), 1.0, ext.block(i + 1, i, vrows + 1, lwidth));

  // THE PROPERTY (Theorem 1): both checksum vectors remain valid for the
  // transformed matrix.
  const double tol = 1e-9 * static_cast<double>(n);
  for (index_t r = 0; r < n; ++r) {
    double rs = 0.0;
    for (index_t c = 0; c < n; ++c) rs += ext(r, c);
    ASSERT_NEAR(ext(r, n), rs, tol) << "checksum column broken at row " << r;
  }
  for (index_t c = i; c < n; ++c) {
    double cs = 0.0;
    for (index_t r = 0; r < n; ++r) cs += ext(r, c);
    ASSERT_NEAR(ext(n, c), cs, tol) << "checksum row broken at column " << c;
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, Theorem1,
                         ::testing::Values(std::make_tuple<index_t, index_t, index_t>(20, 0, 4),
                                           std::make_tuple<index_t, index_t, index_t>(20, 5, 4),
                                           std::make_tuple<index_t, index_t, index_t>(33, 8, 8),
                                           std::make_tuple<index_t, index_t, index_t>(16, 10, 1),
                                           std::make_tuple<index_t, index_t, index_t>(40, 16, 8)));

TEST(Nonfinite, CountsNaNAndInfOnly) {
  using lim = std::numeric_limits<double>;
  const double counted[] = {lim::quiet_NaN(), lim::signaling_NaN(), -lim::quiet_NaN(),
                            std::bit_cast<double>(0x7ff0000000000001ULL),  // NaN, low payload
                            lim::infinity(), -lim::infinity()};
  const double not_counted[] = {lim::max(), -lim::max(), 0.0, -0.0, lim::denorm_min(),
                                -lim::denorm_min(), lim::min() - lim::denorm_min(), 1.0};
  Matrix<double> x(4, 4);
  for (index_t k = 0; k < 6; ++k) x(k % 4, k / 4) = counted[k];
  for (index_t k = 0; k < 8; ++k) x(k % 4, k / 4 + 2) = not_counted[k];
  EXPECT_EQ(count_nonfinite(x.cview()), 6);
  for (const double v : not_counted) {
    Matrix<double> one(1, 1);
    one(0, 0) = v;
    EXPECT_EQ(count_nonfinite(one.cview()), 0) << v;
  }
  EXPECT_EQ(count_nonfinite(MatrixView<const double>(x.block(0, 0, 4, 0))), 0);
}

TEST(Nonfinite, MatchesIsfiniteLoopOnStridedViews) {
  const auto reference = [](MatrixView<const double> v) {
    index_t nf = 0;
    for (index_t c = 0; c < v.cols(); ++c)
      for (index_t r = 0; r < v.rows(); ++r)
        if (!std::isfinite(v(r, c))) ++nf;
    return nf;
  };
  const double specials[] = {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity(),
                             std::numeric_limits<double>::max(), -0.0,
                             std::numeric_limits<double>::denorm_min()};
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    const index_t n = 20 + static_cast<index_t>(rng.below(40));
    Matrix<double> ext = random_matrix(n + 1, n + 1, seed);
    for (int k = 0; k < 25; ++k) {
      ext(static_cast<index_t>(rng.below(static_cast<std::uint64_t>(n + 1))),
          static_cast<index_t>(rng.below(static_cast<std::uint64_t>(n + 1)))) =
          specials[rng.below(6)];
    }
    const index_t r0 = static_cast<index_t>(rng.below(static_cast<std::uint64_t>(n)));
    const index_t c0 = static_cast<index_t>(rng.below(static_cast<std::uint64_t>(n)));
    const auto view = MatrixView<const double>(ext.block(r0, c0, n + 1 - r0, n + 1 - c0));
    EXPECT_EQ(count_nonfinite(view), reference(view)) << "seed " << seed;
    // ft_gehrd's live region: trailing columns over every row, then the
    // checksum-row entries left of them.
    const index_t first_col = c0;
    const auto e = ext.cview();
    EXPECT_EQ(count_nonfinite(e.block(0, first_col, n + 1, n + 1 - first_col)) +
                  count_nonfinite(e.block(n, 0, 1, first_col)),
              reference(e.block(0, first_col, n + 1, n + 1 - first_col)) +
                  reference(e.block(n, 0, 1, first_col)))
        << "seed " << seed;
  }
}

TEST(Threshold, ScalesWithSizeAndNorm) {
  EXPECT_GT(default_threshold(10.0, 100), default_threshold(10.0, 10));
  EXPECT_GT(default_threshold(100.0, 50), default_threshold(1.0, 50));
  EXPECT_GT(default_threshold(0.0, 50), 0.0);  // floor at norm 1
}

TEST(FiniteInputNorms, RejectsNanAndInfAndPassesAnOverflowingNorm) {
  Matrix<double> a = random_matrix(9, 9, 17);
  const FroMax<double> plain = norm_fro_max(a.cview());
  const FroMax<double> checked = finite_input_norms(a.cview(), "test");
  EXPECT_EQ(checked.fro, plain.fro);
  EXPECT_EQ(checked.max, plain.max);
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    for (const index_t at : {index_t{0}, index_t{40}, index_t{80}}) {
      Matrix<double> b(a.cview());
      b.data()[at] = bad;
      EXPECT_THROW((void)finite_input_norms(b.cview(), "test"), precondition_error) << bad;
    }
  }
  // Two entries near the largest double: ‖A‖_F overflows, every entry is
  // finite, and the input passes.
  a(0, 0) = 1.5e308;
  a(8, 8) = -1.5e308;
  const FroMax<double> big = finite_input_norms(a.cview(), "test");
  EXPECT_TRUE(std::isinf(big.fro));
  EXPECT_EQ(big.max, 1.5e308);
}

}  // namespace
}  // namespace fth::ft
