// Single-precision instantiations of the templated BLAS.
//
// The kernels are templates; these tests pin down that the float
// instantiation compiles and is numerically sane (the library's LAPACK
// layer is double-only by design, but a float BLAS is part of the public
// surface).
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "la/blas1.hpp"
#include "la/blas2.hpp"
#include "la/blas3.hpp"
#include "la/matrix.hpp"

namespace fth {
namespace {

Matrix<float> random_f(index_t m, index_t n, std::uint64_t seed) {
  Matrix<float> a(m, n);
  Rng rng(seed);
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < m; ++i) a(i, j) = static_cast<float>(rng.uniform(-1.0, 1.0));
  return a;
}

TEST(BlasFloat, DotAxpyNrm2) {
  std::vector<float> x = {1.0f, 2.0f, 3.0f};
  std::vector<float> y = {4.0f, -5.0f, 6.0f};
  VectorView<const float> xv(x.data(), 3);
  VectorView<float> yv(y.data(), 3);
  EXPECT_FLOAT_EQ(blas::dot(xv, VectorView<const float>(yv)), 4.0f - 10.0f + 18.0f);
  blas::axpy(2.0f, xv, yv);
  EXPECT_FLOAT_EQ(y[0], 6.0f);
  EXPECT_FLOAT_EQ(blas::nrm2(xv), std::sqrt(14.0f));
  EXPECT_FLOAT_EQ(blas::sum(xv), 6.0f);
}

TEST(BlasFloat, GemvMatchesManual) {
  Matrix<float> a = random_f(7, 5, 1);
  std::vector<float> x(5, 1.0f), y(7, 0.0f);
  blas::gemv(Trans::No, 1.0f, a.cview(), VectorView<const float>(x.data(), 5), 0.0f,
             VectorView<float>(y.data(), 7));
  for (index_t i = 0; i < 7; ++i) {
    float acc = 0.0f;
    for (index_t j = 0; j < 5; ++j) acc += a(i, j);
    ASSERT_NEAR(y[static_cast<std::size_t>(i)], acc, 1e-5f);
  }
}

TEST(BlasFloat, GemmBlockedPath) {
  const index_t n = 96;  // large enough to hit the packed kernel
  Matrix<float> a = random_f(n, n, 2);
  Matrix<float> b = random_f(n, n, 3);
  Matrix<float> c(n, n);
  blas::gemm(Trans::No, Trans::No, 1.0f, a.cview(), b.cview(), 0.0f, c.view());
  // Spot-check a handful of entries against the naive sum.
  Rng rng(4);
  for (int t = 0; t < 20; ++t) {
    const index_t i = static_cast<index_t>(rng.below(static_cast<std::uint64_t>(n)));
    const index_t j = static_cast<index_t>(rng.below(static_cast<std::uint64_t>(n)));
    float acc = 0.0f;
    for (index_t k = 0; k < n; ++k) acc += a(i, k) * b(k, j);
    ASSERT_NEAR(c(i, j), acc, 1e-3f) << i << "," << j;
  }
}

TEST(BlasFloat, TrmvTrsvRoundTrip) {
  // trmv against the lower-triangular product summed by hand.
  const index_t n = 12;
  Matrix<float> a = random_f(n, n, 5);
  Matrix<float> x = random_f(n, 1, 7);
  Matrix<float> y(x.cview());
  blas::trmv(Uplo::Lower, Trans::No, Diag::NonUnit, a.cview(), y.view().col(0));
  for (index_t i = 0; i < n; ++i) {
    float acc = 0.0f;
    for (index_t j = 0; j <= i; ++j) acc += a(i, j) * x(j, 0);
    ASSERT_NEAR(y(i, 0), acc, 1e-5f) << i;
  }
}

TEST(BlasFloat, SymvMatchesGemv) {
  const index_t n = 15;
  Matrix<float> s = random_f(n, n, 6);
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < j; ++i) s(i, j) = s(j, i);
  std::vector<float> x(static_cast<std::size_t>(n), 0.5f);
  std::vector<float> y1(static_cast<std::size_t>(n), 0.0f), y2 = y1;
  blas::symv(Uplo::Lower, 1.0f, s.cview(), VectorView<const float>(x.data(), n), 0.0f,
             VectorView<float>(y1.data(), n));
  blas::gemv(Trans::No, 1.0f, s.cview(), VectorView<const float>(x.data(), n), 0.0f,
             VectorView<float>(y2.data(), n));
  for (std::size_t i = 0; i < y1.size(); ++i) ASSERT_NEAR(y1[i], y2[i], 1e-4f);
}

TEST(BlasFloat, MatrixContainerWorksWithFloat) {
  Matrix<float> m(4, 4);
  set_identity(m.view());
  EXPECT_EQ(m(2, 2), 1.0f);
  Matrix<float> c(m.cview());
  fill(c.view(), 2.5f);
  EXPECT_EQ(c(3, 0), 2.5f);
  copy(m.cview(), c.view());
  EXPECT_EQ(c(3, 0), 0.0f);
}

}  // namespace
}  // namespace fth
