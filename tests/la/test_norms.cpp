// Norms and matrix comparison helpers.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <tuple>

#include "la/generate.hpp"
#include "la/norms.hpp"

namespace fth {
namespace {

TEST(Norms, HandComputedExample) {
  Matrix<double> a(2, 3);
  a(0, 0) = 1;  a(0, 1) = -2; a(0, 2) = 3;
  a(1, 0) = -4; a(1, 1) = 5;  a(1, 2) = -6;
  EXPECT_EQ(norm_one(a.cview()), 9.0);   // max column abs sum: |3|+|−6|
  EXPECT_EQ(norm_max(a.cview()), 6.0);
  EXPECT_NEAR(norm_fro(a.cview()), std::sqrt(1.0 + 4 + 9 + 16 + 25 + 36), 1e-14);
}

TEST(Norms, EmptyAndZeroMatrices) {
  Matrix<double> e(0, 0);
  EXPECT_EQ(norm_one(e.cview()), 0.0);
  EXPECT_EQ(norm_fro(e.cview()), 0.0);
  Matrix<double> z(4, 4);
  EXPECT_EQ(norm_fro(z.cview()), 0.0);
}

TEST(Norms, FrobeniusOverflowSafe) {
  Matrix<double> a(2, 2);
  a.fill(1e200);
  EXPECT_NEAR(norm_fro(a.cview()) / 1e200, 2.0, 1e-12);
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// norm_fro_max(a) must return norm_fro(a) and norm_max(a) bit for bit.
void expect_fro_max(MatrixView<const double> a, const char* what) {
  const FroMax<double> both = norm_fro_max(a);
  EXPECT_EQ(bits(both.fro), bits(norm_fro(a))) << what;
  EXPECT_EQ(bits(both.max), bits(norm_max(a))) << what;
}

TEST(Norms, FroMaxMatchesBothNormsBitForBit) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    expect_fro_max(random_matrix(17, 9, seed).cview(), "random");
    expect_fro_max(random_normal_matrix(33, 33, seed).cview(), "random normal");
    expect_fro_max(random_graded_matrix(40, seed, 300.0).cview(), "graded 1e±150");
  }

  Matrix<double> z(6, 5);
  expect_fro_max(z.cview(), "all zero");
  EXPECT_EQ(bits(norm_fro_max(z.cview()).max), bits(0.0));
  for (index_t j = 0; j < 5; ++j)
    for (index_t i = 0; i < 6; ++i) z(i, j) = (i + j) % 2 == 0 ? -0.0 : 0.0;
  expect_fro_max(z.cview(), "±0.0");
  EXPECT_EQ(bits(norm_fro_max(z.cview()).max), bits(0.0)) << "the max of ±0 is +0";

  const double tiny = std::numeric_limits<double>::denorm_min();
  Matrix<double> sub(4, 4);
  for (index_t j = 0; j < 4; ++j)
    for (index_t i = 0; i < 4; ++i)
      sub(i, j) = (static_cast<double>((i + 3 * j) % 5) - 2.5) * 1000.0 * tiny;
  expect_fro_max(sub.cview(), "subnormal only");

  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::tuple<index_t, index_t, double> plants[] = {
      {0, 0, nan}, {0, 0, inf}, {3, 2, -inf}, {7, 4, -nan}};
  for (const auto& [i, j, x] : plants) {
    Matrix<double> a = random_matrix(8, 5, 9);
    a(i, j) = x;
    expect_fro_max(a.cview(), "one non-finite");
    a(2, 1) = std::isnan(x) ? inf : nan;  // both kinds, in either order
    expect_fro_max(a.cview(), "NaN and Inf");
  }
  Matrix<double> all_nan(3, 3);
  all_nan.fill(nan);
  expect_fro_max(all_nan.cview(), "all NaN");

  Matrix<double> big = random_graded_matrix(30, 5, 40.0);
  expect_fro_max(MatrixView<const double>(big.block(3, 4, 17, 11)), "strided view");
  expect_fro_max(MatrixView<const double>(big.block(29, 0, 1, 30)), "row view");
}

TEST(Diff, MaxAbsDiffAndCount) {
  Matrix<double> a = random_matrix(10, 10, 4);
  Matrix<double> b(a.cview());
  EXPECT_EQ(max_abs_diff(a.cview(), b.cview()), 0.0);
  EXPECT_EQ(count_diff(a.cview(), b.cview(), 0.0), 0);
  b(3, 7) += 0.5;
  b(9, 0) -= 2.0;
  EXPECT_NEAR(max_abs_diff(a.cview(), b.cview()), 2.0, 1e-15);
  EXPECT_EQ(count_diff(a.cview(), b.cview(), 0.1), 2);
  EXPECT_EQ(count_diff(a.cview(), b.cview(), 1.0), 1);
}

TEST(Norms, MaxAbsDiffSeesNaNOnEitherSide) {
  // std::max(best, NaN) keeps best: a NaN difference must win instead, or
  // a `<= tol` correctness check passes a NaN output.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const bool left : {true, false}) {
    for (const index_t at : {0, 57, 99}) {
      Matrix<double> a = random_matrix(10, 10, 7);
      Matrix<double> b(a.cview());
      b(9, 9) += 3.0;
      (left ? a : b)(at % 10, at / 10) = nan;
      EXPECT_TRUE(std::isnan(max_abs_diff(a.cview(), b.cview()))) << left << " " << at;
    }
  }
  Matrix<double> a = random_matrix(4, 4, 8);
  Matrix<double> b(a.cview());
  b(1, 2) = inf;
  EXPECT_EQ(max_abs_diff(a.cview(), b.cview()), inf) << "an Inf difference already wins";
}

TEST(Norms, TriangleInequalityProperty) {
  Matrix<double> a = random_matrix(20, 20, 5);
  Matrix<double> b = random_matrix(20, 20, 6);
  Matrix<double> s(20, 20);
  for (index_t j = 0; j < 20; ++j)
    for (index_t i = 0; i < 20; ++i) s(i, j) = a(i, j) + b(i, j);
  EXPECT_LE(norm_one(s.cview()), norm_one(a.cview()) + norm_one(b.cview()) + 1e-12);
  EXPECT_LE(norm_fro(s.cview()), norm_fro(a.cview()) + norm_fro(b.cview()) + 1e-12);
}

}  // namespace
}  // namespace fth
