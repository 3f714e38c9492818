// Level-2 BLAS kernels vs reference computations.
#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "la/blas2.hpp"
#include "la/generate.hpp"
#include "test_utils.hpp"

namespace fth {
namespace {

using test::cvec;
using test::vec;

std::vector<double> ref_gemv(Trans t, double alpha, MatrixView<const double> a,
                             const std::vector<double>& x, double beta,
                             const std::vector<double>& y) {
  const index_t m = a.rows();
  const index_t n = a.cols();
  const index_t out_len = t == Trans::No ? m : n;
  std::vector<double> out(static_cast<std::size_t>(out_len));
  for (index_t i = 0; i < out_len; ++i) {
    double acc = 0.0;
    const index_t k = t == Trans::No ? n : m;
    for (index_t l = 0; l < k; ++l) {
      const double av = t == Trans::No ? a(i, l) : a(l, i);
      acc += av * x[static_cast<std::size_t>(l)];
    }
    out[static_cast<std::size_t>(i)] = alpha * acc + beta * y[static_cast<std::size_t>(i)];
  }
  return out;
}

class GemvParam : public ::testing::TestWithParam<std::tuple<index_t, index_t, int>> {};

TEST_P(GemvParam, MatchesReference) {
  const auto [m, n, tcase] = GetParam();
  const Trans t = tcase == 0 ? Trans::No : Trans::Yes;
  Matrix<double> a = random_matrix(m, n, 7 * static_cast<std::uint64_t>(m + 3 * n + tcase));
  const index_t xl = t == Trans::No ? n : m;
  const index_t yl = t == Trans::No ? m : n;
  std::vector<double> x(static_cast<std::size_t>(xl));
  std::vector<double> y(static_cast<std::size_t>(yl));
  Rng rng(5);
  for (auto& v : x) v = rng.uniform(-1.0, 1.0);
  for (auto& v : y) v = rng.uniform(-1.0, 1.0);

  auto expected = ref_gemv(t, 1.3, a.cview(), x, -0.7, y);
  blas::gemv(t, 1.3, a.cview(), cvec(x), -0.7, vec(y));
  for (std::size_t i = 0; i < y.size(); ++i)
    ASSERT_NEAR(y[i], expected[i], 1e-12 * (1.0 + std::abs(expected[i])));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemvParam,
    ::testing::Combine(::testing::Values<index_t>(1, 3, 17, 64, 130),
                       ::testing::Values<index_t>(1, 5, 33, 64), ::testing::Values(0, 1)));

TEST(Gemv, BetaZeroOverwritesNaN) {
  // beta == 0 must not propagate pre-existing NaN in y (BLAS semantics).
  Matrix<double> a = random_matrix(4, 4, 1);
  std::vector<double> x(4, 1.0);
  std::vector<double> y(4, std::nan(""));
  blas::gemv(Trans::No, 1.0, a.cview(), cvec(x), 0.0, vec(y));
  for (double v : y) EXPECT_FALSE(std::isnan(v));
}

TEST(Gemv, DimensionMismatchThrows) {
  Matrix<double> a(3, 4);
  std::vector<double> x(3), y(3);
  EXPECT_THROW(blas::gemv(Trans::No, 1.0, a.cview(), cvec(x), 0.0, vec(y)),
               precondition_error);
}

TEST(Ger, MatchesReference) {
  Matrix<double> a = random_matrix(9, 7, 2);
  Matrix<double> a0(a.cview());
  std::vector<double> x(9), y(7);
  Rng rng(3);
  for (auto& v : x) v = rng.uniform(-1.0, 1.0);
  for (auto& v : y) v = rng.uniform(-1.0, 1.0);
  blas::ger(2.0, cvec(x), cvec(y), a.view());
  for (index_t j = 0; j < 7; ++j)
    for (index_t i = 0; i < 9; ++i)
      ASSERT_NEAR(a(i, j),
                  a0(i, j) + 2.0 * x[static_cast<std::size_t>(i)] * y[static_cast<std::size_t>(j)],
                  1e-14);
}

class TriParam : public ::testing::TestWithParam<std::tuple<int, int, int, index_t>> {};

TEST_P(TriParam, TrmvMatchesDenseProduct) {
  const auto [u, t, d, n] = GetParam();
  const Uplo uplo = u == 0 ? Uplo::Upper : Uplo::Lower;
  const Trans trans = t == 0 ? Trans::No : Trans::Yes;
  const Diag diag = d == 0 ? Diag::NonUnit : Diag::Unit;

  Matrix<double> a = random_matrix(n, n, 11 + static_cast<std::uint64_t>(n));

  // Dense version of the referenced triangle.
  Matrix<double> tri(n, n);
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = 0; i < n; ++i) {
      const bool in_tri = uplo == Uplo::Lower ? i >= j : i <= j;
      if (!in_tri) continue;
      tri(i, j) = (i == j && diag == Diag::Unit) ? 1.0 : a(i, j);
    }
  }

  std::vector<double> x(static_cast<std::size_t>(n));
  Rng rng(17);
  for (auto& v : x) v = rng.uniform(-1.0, 1.0);

  auto y = x;
  blas::trmv(uplo, trans, diag, a.cview(), vec(y));
  std::vector<double> zeros(static_cast<std::size_t>(n), 0.0);
  auto expected = ref_gemv(trans, 1.0, tri.cview(), x, 0.0, zeros);
  for (std::size_t i = 0; i < y.size(); ++i) ASSERT_NEAR(y[i], expected[i], 1e-11);
}

INSTANTIATE_TEST_SUITE_P(Shapes, TriParam,
                         ::testing::Combine(::testing::Values(0, 1), ::testing::Values(0, 1),
                                            ::testing::Values(0, 1),
                                            ::testing::Values<index_t>(1, 2, 9, 40)));

}  // namespace
}  // namespace fth
