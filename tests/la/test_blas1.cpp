// Level-1 BLAS kernels vs reference computations, including stride cases.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "common/error.hpp"
#include "common/flops.hpp"
#include "common/rng.hpp"
#include "la/blas1.hpp"
#include "test_utils.hpp"

namespace fth {
namespace {

using test::cvec;
using test::vec;

std::vector<double> random_vec(index_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = rng.uniform(-1.0, 1.0);
  return v;
}

TEST(Blas1, DotMatchesReference) {
  auto x = random_vec(101, 1);
  auto y = random_vec(101, 2);
  double ref = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) ref += x[i] * y[i];
  EXPECT_NEAR(blas::dot(cvec(x), cvec(y)), ref, 1e-13);
}

TEST(Blas1, DotEmpty) {
  std::vector<double> e;
  EXPECT_EQ(blas::dot(cvec(e), cvec(e)), 0.0);
}

TEST(Blas1, DotLengthMismatchThrows) {
  auto x = random_vec(4, 1);
  auto y = random_vec(5, 2);
  EXPECT_THROW(blas::dot(cvec(x), cvec(y)), precondition_error);
}

TEST(Blas1, AxpyAndScal) {
  auto x = random_vec(64, 3);
  auto y = random_vec(64, 4);
  auto y0 = y;
  blas::axpy(2.5, cvec(x), vec(y));
  for (std::size_t i = 0; i < y.size(); ++i) EXPECT_NEAR(y[i], y0[i] + 2.5 * x[i], 1e-14);
  blas::scal(-0.5, vec(y));
  for (std::size_t i = 0; i < y.size(); ++i)
    EXPECT_NEAR(y[i], -0.5 * (y0[i] + 2.5 * x[i]), 1e-14);
}

TEST(Blas1, AxpyAlphaZeroIsNoop) {
  auto x = random_vec(8, 5);
  auto y = random_vec(8, 6);
  auto y0 = y;
  blas::axpy(0.0, cvec(x), vec(y));
  EXPECT_EQ(y, y0);
}

TEST(Blas1, StridedViews) {
  std::vector<double> buf(12, 0.0);
  for (int i = 0; i < 12; ++i) buf[static_cast<std::size_t>(i)] = i;
  VectorView<double> even(buf.data(), 6, 2);  // 0 2 4 6 8 10
  VectorView<double> odd(buf.data() + 1, 6, 2);
  EXPECT_NEAR(blas::dot(VectorView<const double>(even), VectorView<const double>(odd)),
              0 * 1 + 2 * 3 + 4 * 5 + 6 * 7 + 8 * 9 + 10 * 11, 1e-12);
  blas::axpy(1.0, VectorView<const double>(even), odd);
  EXPECT_EQ(buf[1], 1.0 + 0.0);
  EXPECT_EQ(buf[11], 11.0 + 10.0);
}

TEST(Blas1, Nrm2MatchesHypot) {
  auto x = random_vec(257, 7);
  double ref = 0.0;
  for (double v : x) ref += v * v;
  ref = std::sqrt(ref);
  EXPECT_NEAR(blas::nrm2(cvec(x)), ref, 1e-12);
}

TEST(Blas1, Nrm2AvoidsOverflowAndUnderflow) {
  std::vector<double> big = {1e300, 1e300, 1e300};
  EXPECT_NEAR(blas::nrm2(cvec(big)) / 1e300, std::sqrt(3.0), 1e-12);
  std::vector<double> small = {1e-300, 1e-300, 1e-300, 1e-300};
  EXPECT_NEAR(blas::nrm2(cvec(small)) / 1e-300, 2.0, 1e-12);
  std::vector<double> zeros(5, 0.0);
  EXPECT_EQ(blas::nrm2(cvec(zeros)), 0.0);
}

TEST(Blas1, Sum) {
  std::vector<double> x = {1.0, -5.0, 3.0, -2.0};
  EXPECT_EQ(blas::sum(cvec(x)), -3.0);
  std::vector<double> e;
  EXPECT_EQ(blas::sum(cvec(e)), 0.0);
}

TEST(Blas1, Copy) {
  auto x = random_vec(33, 8);
  auto y = random_vec(33, 9);
  blas::copy(cvec(x), vec(y));
  EXPECT_EQ(y, x);
}

TEST(Blas1, FlopCounting) {
  auto x = random_vec(100, 10);
  auto y = random_vec(100, 11);
  flops::reset();
  {
    flops::Scope scope;
    blas::dot(cvec(x), cvec(y));
    EXPECT_EQ(scope.delta(), 199u);  // 2n − 1
    blas::axpy(1.0, cvec(x), vec(y));
    EXPECT_EQ(scope.delta(), 199u + 200u);
  }
  // Counting disabled outside the scope.
  const auto before = flops::count();
  blas::dot(cvec(x), cvec(y));
  EXPECT_EQ(flops::count(), before);
}

// Property sweep: dot linearity across lengths.
class Blas1Param : public ::testing::TestWithParam<index_t> {};

TEST_P(Blas1Param, DotLinearity) {
  const index_t n = GetParam();
  auto x = random_vec(n, 20 + static_cast<std::uint64_t>(n));
  auto y = random_vec(n, 21 + static_cast<std::uint64_t>(n));
  auto z = random_vec(n, 22 + static_cast<std::uint64_t>(n));
  auto ypz = y;
  for (std::size_t i = 0; i < ypz.size(); ++i) ypz[i] += z[i];
  const double lhs = blas::dot(cvec(x), cvec(ypz));
  const double rhs = blas::dot(cvec(x), cvec(y)) + blas::dot(cvec(x), cvec(z));
  EXPECT_NEAR(lhs, rhs, 1e-12 * std::max<index_t>(n, 1));
}

TEST_P(Blas1Param, Nrm2ScaleInvariance) {
  const index_t n = GetParam();
  auto x = random_vec(n, 30 + static_cast<std::uint64_t>(n));
  const double base = blas::nrm2(cvec(x));
  auto x2 = x;
  blas::scal(-4.0, vec(x2));
  EXPECT_NEAR(blas::nrm2(cvec(x2)), 4.0 * base, 1e-12 * (base + 1.0));
}

INSTANTIATE_TEST_SUITE_P(Lengths, Blas1Param,
                         ::testing::Values<index_t>(0, 1, 2, 7, 64, 255, 1000));

}  // namespace
}  // namespace fth
