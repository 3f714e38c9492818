// Shared helpers for the test suite.
#pragma once

#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "common/error.hpp"
#include "la/matrix.hpp"
#include "obs/metrics.hpp"

namespace fth::test {

/// Wrap a std::vector as a VectorView.
inline VectorView<double> vec(std::vector<double>& v) {
  return VectorView<double>(v.data(), static_cast<index_t>(v.size()));
}
inline VectorView<const double> cvec(const std::vector<double>& v) {
  return VectorView<const double>(v.data(), static_cast<index_t>(v.size()));
}

/// The values an FT driver must reject in its input.
inline constexpr double kNonfinite[] = {std::numeric_limits<double>::quiet_NaN(),
                                        std::numeric_limits<double>::infinity(),
                                        -std::numeric_limits<double>::infinity()};

/// Expects `run` to throw precondition_error without moving an ft.* counter.
template <class Run>
void expect_rejected_without_ft_counters(Run&& run) {
  const auto before = obs::Registry::global().counter_values();
  EXPECT_THROW(run(), precondition_error);
  const auto after = obs::Registry::global().counter_values();
  for (const auto& [name, delta] : obs::Registry::counter_delta(after, before))
    EXPECT_NE(name.rfind("ft.", 0), 0u) << name << " moved by " << delta;
}

/// Reference (naive triple-loop) GEMM for validation.
inline Matrix<double> ref_gemm(Trans ta, Trans tb, double alpha, MatrixView<const double> a,
                               MatrixView<const double> b, double beta,
                               MatrixView<const double> c) {
  Matrix<double> out(c);
  const index_t m = c.rows();
  const index_t n = c.cols();
  const index_t k = (ta == Trans::No) ? a.cols() : a.rows();
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = 0; i < m; ++i) {
      double acc = 0.0;
      for (index_t l = 0; l < k; ++l) {
        const double av = ta == Trans::No ? a(i, l) : a(l, i);
        const double bv = tb == Trans::No ? b(l, j) : b(j, l);
        acc += av * bv;
      }
      out(i, j) = alpha * acc + beta * c(i, j);
    }
  }
  return out;
}

/// Dense representation of an elementary reflector I − tau·v·vᵀ.
inline Matrix<double> reflector_matrix(VectorView<const double> v, double tau) {
  const index_t n = v.size();
  Matrix<double> h(n, n);
  set_identity(h.view());
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < n; ++i) h(i, j) -= tau * v[i] * v[j];
  return h;
}

/// EXPECT all elements of two matrices to agree within tol.
inline void expect_matrix_near(MatrixView<const double> a, MatrixView<const double> b,
                               double tol, const char* what = "") {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  for (index_t j = 0; j < a.cols(); ++j)
    for (index_t i = 0; i < a.rows(); ++i)
      ASSERT_NEAR(a(i, j), b(i, j), tol) << what << " at (" << i << "," << j << ")";
}

}  // namespace fth::test
