// Level-3 BLAS kernels vs reference computations (all transpose cases,
// blocking-boundary sizes, alpha/beta special cases).
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>

#include "common/error.hpp"
#include "la/blas3.hpp"
#include "la/generate.hpp"
#include "la/norms.hpp"
#include "test_utils.hpp"

namespace fth {
namespace {

class GemmParam
    : public ::testing::TestWithParam<std::tuple<index_t, index_t, index_t, int, int>> {};

TEST_P(GemmParam, MatchesReference) {
  const auto [m, n, k, tac, tbc] = GetParam();
  const Trans ta = tac == 0 ? Trans::No : Trans::Yes;
  const Trans tb = tbc == 0 ? Trans::No : Trans::Yes;
  Matrix<double> a = ta == Trans::No ? random_matrix(m, k, 1) : random_matrix(k, m, 1);
  Matrix<double> b = tb == Trans::No ? random_matrix(k, n, 2) : random_matrix(n, k, 2);
  Matrix<double> c = random_matrix(m, n, 3);
  Matrix<double> expected = test::ref_gemm(ta, tb, 1.7, a.cview(), b.cview(), -0.3, c.cview());
  blas::gemm(ta, tb, 1.7, a.cview(), b.cview(), -0.3, c.view());
  const double tol = 1e-12 * static_cast<double>(k + 1);
  test::expect_matrix_near(c.cview(), expected.cview(), tol, "gemm");
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmParam,
    ::testing::Combine(::testing::Values<index_t>(1, 5, 33, 130),  // spans micro/macro tiles
                       ::testing::Values<index_t>(1, 9, 64), ::testing::Values<index_t>(1, 17, 70),
                       ::testing::Values(0, 1), ::testing::Values(0, 1)));

TEST(Gemm, LargeCrossesAllBlockingBoundaries) {
  // Bigger than MC×KC×NC tile boundaries in at least one dimension each.
  const index_t m = 150, n = 90, k = 300;
  Matrix<double> a = random_matrix(m, k, 4);
  Matrix<double> b = random_matrix(k, n, 5);
  Matrix<double> c(m, n);
  Matrix<double> expected = test::ref_gemm(Trans::No, Trans::No, 1.0, a.cview(), b.cview(),
                                           0.0, c.cview());
  blas::gemm(Trans::No, Trans::No, 1.0, a.cview(), b.cview(), 0.0, c.view());
  test::expect_matrix_near(c.cview(), expected.cview(), 1e-11, "big gemm");
}

// gemm packs into buffers sized to the call. These shapes cross kNC
// (n = 1029: a partial last B panel and a partial kNR tile) and are
// ft_gehrd's real products at n = 128 and n = 512 (checksum row and column
// included): the first trailing update, (n+1) × (n−31) × 32, and a Y-top
// product, (i+1) × 32 × (n−i−1), each in all four transpose pairs with
// beta ∈ {0, 1}. m = 37 and 33 leave the A block, n = 97 and 481 the B
// panel, short of a whole micro-tile, so ASan builds catch a buffer sized
// without the round-up; checker builds, which poison the buffers before
// packing, turn a slot of the product that packing skipped into NaN.
using Shape = std::tuple<index_t, index_t, index_t>;
class GemmCallSized : public ::testing::TestWithParam<std::tuple<Shape, int, int, int>> {};

TEST_P(GemmCallSized, MatchesReference) {
  const auto [shape, tac, tbc, beta_one] = GetParam();
  const auto [m, n, k] = shape;
  const Trans ta = tac == 0 ? Trans::No : Trans::Yes;
  const Trans tb = tbc == 0 ? Trans::No : Trans::Yes;
  const double beta = beta_one != 0 ? 1.0 : 0.0;
  Matrix<double> a = ta == Trans::No ? random_matrix(m, k, 21) : random_matrix(k, m, 21);
  Matrix<double> b = tb == Trans::No ? random_matrix(k, n, 22) : random_matrix(n, k, 22);
  Matrix<double> c = random_matrix(m, n, 23);
  Matrix<double> expected = test::ref_gemm(ta, tb, -1.0, a.cview(), b.cview(), beta, c.cview());
  blas::gemm(ta, tb, -1.0, a.cview(), b.cview(), beta, c.view());
  test::expect_matrix_near(c.cview(), expected.cview(), 1e-12 * static_cast<double>(k + 1),
                           "call-sized gemm");
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmCallSized,
    ::testing::Combine(::testing::Values(Shape{37, 1029, 33}, Shape{129, 97, 32},
                                         Shape{513, 481, 32}, Shape{33, 32, 95},
                                         Shape{257, 32, 255}),
                       ::testing::Values(0, 1), ::testing::Values(0, 1), ::testing::Values(0, 1)));

// gemm's rounding contract, bit for bit: C is first scaled by beta. Below
// 32³ multiply-adds the naive loop adds op(A)(i, l)·(alpha·op(B)(l, j)) in
// increasing l, skipping a zero alpha·op(B)(l, j). Above it each kKC block
// of k is one std::fma chain per element, in increasing k from +0, folded
// into C as std::fma(alpha, acc, c). Release builds run the AVX2
// micro-kernel and Debug and sanitizer builds (no -march=native) its
// std::fma loop, so the suites pin both to this one answer.
Matrix<double> replay_gemm(Trans ta, Trans tb, double alpha, MatrixView<const double> a,
                           MatrixView<const double> b, double beta,
                           MatrixView<const double> c0) {
  const index_t m = c0.rows();
  const index_t n = c0.cols();
  const index_t k = ta == Trans::No ? a.cols() : a.rows();
  auto opa = [&](index_t i, index_t l) { return ta == Trans::No ? a(i, l) : a(l, i); };
  auto opb = [&](index_t l, index_t j) { return tb == Trans::No ? b(l, j) : b(j, l); };
  Matrix<double> c(c0);
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < m; ++i)
      if (beta == 0.0)
        c(i, j) = 0.0;
      else if (beta != 1.0)
        c(i, j) *= beta;
  if (alpha == 0.0 || k == 0) return c;
  if (static_cast<double>(m * n * k) < 32.0 * 32.0 * 32.0) {
    for (index_t j = 0; j < n; ++j)
      for (index_t l = 0; l < k; ++l) {
        const double blj = alpha * opb(l, j);
        if (blj == 0.0) continue;
        for (index_t i = 0; i < m; ++i) c(i, j) += opa(i, l) * blj;
      }
    return c;
  }
  for (index_t k0 = 0; k0 < k; k0 += blas::detail::kKC)
    for (index_t j = 0; j < n; ++j)
      for (index_t i = 0; i < m; ++i) {
        double acc = 0.0;
        for (index_t l = k0; l < std::min(k0 + blas::detail::kKC, k); ++l)
          acc = std::fma(opa(i, l), opb(l, j), acc);
        c(i, j) = std::fma(alpha, acc, c(i, j));
      }
  return c;
}

/// A (rows + 3) × cols matrix whose rows 1..rows serve as an operand with
/// ld > rows: entries graded over 2^±40, with ±0.0 and subnormals sprinkled
/// in, and one NaN and one −Inf (each spreads along one line of C).
Matrix<double> seasoned(index_t rows, index_t cols, std::uint64_t seed) {
  Matrix<double> s = random_matrix(rows + 3, cols, seed);
  for (index_t j = 0; j < cols; ++j)
    for (index_t i = 1; i <= rows; ++i) {
      double& x = s(i, j);
      x = std::ldexp(x, static_cast<int>((i * 31 + j * 17) % 81) - 40);
      if ((i + 2 * j) % 11 == 0) x = (i % 2 == 0) ? 0.0 : -0.0;
      if ((3 * i + j) % 13 == 0) x *= 1e-310;
    }
  s(1 + rows / 2, cols / 3) = std::numeric_limits<double>::quiet_NaN();
  s(rows, cols - 1) = -std::numeric_limits<double>::infinity();
  return s;
}

/// Equal bits, or both NaN: which NaN operand an operation propagates is
/// the hardware's choice, not part of the order.
::testing::AssertionResult same_bits(MatrixView<const double> x, MatrixView<const double> y) {
  for (index_t j = 0; j < x.cols(); ++j)
    for (index_t i = 0; i < x.rows(); ++i) {
      const double u = x(i, j);
      const double v = y(i, j);
      if (std::isnan(u) && std::isnan(v)) continue;
      if (std::bit_cast<std::uint64_t>(u) != std::bit_cast<std::uint64_t>(v))
        return ::testing::AssertionFailure()
               << "(" << i << ", " << j << "): " << u << " vs " << v;
    }
  return ::testing::AssertionSuccess();
}

class GemmOrder
    : public ::testing::TestWithParam<std::tuple<Shape, int, int, std::pair<double, double>>> {};

TEST_P(GemmOrder, IsTheReplayedOrderBitForBit) {
  const auto [shape, tac, tbc, scalars] = GetParam();
  const auto [m, n, k] = shape;
  const auto [alpha, beta] = scalars;
  const Trans ta = tac == 0 ? Trans::No : Trans::Yes;
  const Trans tb = tbc == 0 ? Trans::No : Trans::Yes;
  Matrix<double> sa = ta == Trans::No ? seasoned(m, k, 31) : seasoned(k, m, 31);
  Matrix<double> sb = tb == Trans::No ? seasoned(k, n, 32) : seasoned(n, k, 32);
  Matrix<double> sc = seasoned(m, n, 33);
  const MatrixView<const double> a = sa.block(1, 0, sa.rows() - 3, sa.cols());
  const MatrixView<const double> b = sb.block(1, 0, sb.rows() - 3, sb.cols());
  MatrixView<double> c = sc.block(1, 0, m, n);
  const Matrix<double> want = replay_gemm(ta, tb, alpha, a, b, beta, c);
  blas::gemm(ta, tb, alpha, a, b, beta, c);
  EXPECT_TRUE(same_bits(c, want.cview()));
}

// m and n off the 4 × 8 tile, k across one and two kKC = 256 blocks, one
// shape across kMC = 128 and kNC = 1024, and one on the naive path.
INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmOrder,
    ::testing::Combine(::testing::Values(Shape{5, 7, 40}, Shape{33, 19, 61},
                                         Shape{37, 29, 300}, Shape{64, 16, 513},
                                         Shape{130, 1030, 33}),
                       ::testing::Values(0, 1), ::testing::Values(0, 1),
                       ::testing::Values(std::pair{1.7, -0.3}, std::pair{-1.0, 1.0},
                                         std::pair{0.5, 0.0})));

TEST(Gemm, SubmatrixViewsWithLd) {
  Matrix<double> big_a = random_matrix(40, 40, 6);
  Matrix<double> big_b = random_matrix(40, 40, 7);
  Matrix<double> big_c = random_matrix(40, 40, 8);
  auto a = big_a.block(3, 5, 20, 12);
  auto b = big_b.block(1, 2, 12, 18);
  auto c = big_c.block(7, 9, 20, 18);
  Matrix<double> expected = test::ref_gemm(Trans::No, Trans::No, 1.0,
                                           MatrixView<const double>(a),
                                           MatrixView<const double>(b), 1.0,
                                           MatrixView<const double>(c));
  blas::gemm(Trans::No, Trans::No, 1.0, MatrixView<const double>(a),
             MatrixView<const double>(b), 1.0, c);
  test::expect_matrix_near(MatrixView<const double>(c), expected.cview(), 1e-12, "view gemm");
}

TEST(Gemm, AlphaZeroScalesOnly) {
  Matrix<double> a = random_matrix(8, 8, 9);
  Matrix<double> b = random_matrix(8, 8, 10);
  Matrix<double> c = random_matrix(8, 8, 11);
  Matrix<double> c0(c.cview());
  blas::gemm(Trans::No, Trans::No, 0.0, a.cview(), b.cview(), 2.0, c.view());
  for (index_t j = 0; j < 8; ++j)
    for (index_t i = 0; i < 8; ++i) ASSERT_NEAR(c(i, j), 2.0 * c0(i, j), 1e-14);
}

TEST(Gemm, BetaZeroOverwritesNaN) {
  Matrix<double> a = random_matrix(50, 50, 12);
  Matrix<double> b = random_matrix(50, 50, 13);
  Matrix<double> c(50, 50);
  c.fill(std::nan(""));
  blas::gemm(Trans::No, Trans::No, 1.0, a.cview(), b.cview(), 0.0, c.view());
  EXPECT_FALSE(std::isnan(norm_fro(c.cview())));
}

TEST(Gemm, DimensionMismatchThrows) {
  Matrix<double> a(3, 4), b(5, 6), c(3, 6);
  EXPECT_THROW(blas::gemm(Trans::No, Trans::No, 1.0, a.cview(), b.cview(), 0.0, c.view()),
               precondition_error);
}

TEST(Gemm, EmptyDimensionsAreNoops) {
  Matrix<double> a(0, 0), b(0, 0), c(0, 0);
  EXPECT_NO_THROW(
      blas::gemm(Trans::No, Trans::No, 1.0, a.cview(), b.cview(), 0.0, c.view()));
  Matrix<double> a2(3, 0), b2(0, 4), c2 = random_matrix(3, 4, 14);
  Matrix<double> c0(c2.cview());
  // k == 0: C := beta·C only.
  blas::gemm(Trans::No, Trans::No, 1.0, a2.cview(), b2.cview(), 1.0, c2.view());
  test::expect_matrix_near(c2.cview(), c0.cview(), 0.0, "k=0 gemm");
}

class TrmmParam : public ::testing::TestWithParam<std::tuple<int, int, int, int>> {};

TEST_P(TrmmParam, MatchesDenseProduct) {
  const auto [sc, uc, tc, dc] = GetParam();
  const Side side = sc == 0 ? Side::Left : Side::Right;
  const Uplo uplo = uc == 0 ? Uplo::Upper : Uplo::Lower;
  const Trans trans = tc == 0 ? Trans::No : Trans::Yes;
  const Diag diag = dc == 0 ? Diag::NonUnit : Diag::Unit;

  const index_t m = 13, n = 9;
  const index_t na = side == Side::Left ? m : n;
  Matrix<double> a = random_matrix(na, na, 15);
  for (index_t i = 0; i < na; ++i) a(i, i) += 2.0;
  Matrix<double> b = random_matrix(m, n, 16);
  Matrix<double> b0(b.cview());

  // Dense triangle.
  Matrix<double> tri(na, na);
  for (index_t j = 0; j < na; ++j)
    for (index_t i = 0; i < na; ++i) {
      const bool in_tri = uplo == Uplo::Lower ? i >= j : i <= j;
      if (in_tri) tri(i, j) = (i == j && diag == Diag::Unit) ? 1.0 : a(i, j);
    }

  Matrix<double> expected(m, n);
  if (side == Side::Left) {
    expected = test::ref_gemm(trans, Trans::No, 1.5, tri.cview(), b0.cview(), 0.0,
                              expected.cview());
  } else {
    expected = test::ref_gemm(Trans::No, trans, 1.5, b0.cview(), tri.cview(), 0.0,
                              expected.cview());
  }
  blas::trmm(side, uplo, trans, diag, 1.5, a.cview(), b.view());
  test::expect_matrix_near(b.cview(), expected.cview(), 1e-11, "trmm");
}

INSTANTIATE_TEST_SUITE_P(AllCases, TrmmParam,
                         ::testing::Combine(::testing::Values(0, 1), ::testing::Values(0, 1),
                                            ::testing::Values(0, 1), ::testing::Values(0, 1)));

TEST(Trmm, UnitDiagIgnoresStoredDiagonalAndAbove) {
  // The Hessenberg code relies on trmm/Unit never reading the diagonal or
  // the upper part of V (which alias H data in LAPACK storage).
  Matrix<double> a(4, 4);
  a.fill(std::nan(""));
  for (index_t j = 0; j < 4; ++j)
    for (index_t i = j + 1; i < 4; ++i) a(i, j) = 0.5;
  Matrix<double> b = random_matrix(2, 4, 17);
  Matrix<double> b0(b.cview());
  // Right / Lower / Transpose / Unit — exactly the dgehrd panel-fix call.
  EXPECT_NO_THROW(blas::trmm(Side::Right, Uplo::Lower, Trans::Yes, Diag::Unit, 1.0, a.cview(),
                             b.view()));
  EXPECT_FALSE(std::isnan(norm_fro(b.cview())));
}

}  // namespace
}  // namespace fth
