// Matrix norms and element-wise comparison helpers.
#pragma once

#include <algorithm>
#include <cmath>

#include "la/matrix.hpp"

namespace fth {

/// 1-norm: max column absolute sum.
template <class T>
T norm_one(MatrixView<const T> a) {
  T best{};
  for (index_t j = 0; j < a.cols(); ++j) {
    T s{};
    for (index_t i = 0; i < a.rows(); ++i) s += std::abs(a(i, j));
    best = std::max(best, s);
  }
  return best;
}

/// Max-abs norm: max |a_ij|.
template <class T>
T norm_max(MatrixView<const T> a) {
  T best{};
  for (index_t j = 0; j < a.cols(); ++j)
    for (index_t i = 0; i < a.rows(); ++i) best = std::max(best, std::abs(a(i, j)));
  return best;
}

/// Both results of norm_fro_max.
template <class T>
struct FroMax {
  T fro;  ///< norm_fro(a)
  T max;  ///< norm_max(a)
};

/// Frobenius and max-abs norms from one pass over `a`.
///
/// `fro` is the overflow-safe scaled sum of squares. `max` is that
/// recurrence's final `scale`, which equals norm_max(a) bit for bit:
///  * both start at +0, and zeros of either sign change neither: the
///    recurrence skips them, and std::max(best, +0) keeps `best`;
///  * a finite nonzero |x| replaces `scale` exactly when `scale < |x|`,
///    the test std::max(best, |x|) makes, so both keep the same maximum;
///  * a NaN never wins `scale < |x|` (it takes the else branch, which
///    poisons `ssq` but not `scale`), and std::max(best, NaN) keeps `best`;
///  * an Inf wins `scale < |x|` over every finite `scale` and nothing
///    replaces it afterwards, just as std::max keeps it in `best`.
template <class T>
FroMax<T> norm_fro_max(MatrixView<const T> a) {
  T scale{0};
  T ssq{1};
  for (index_t j = 0; j < a.cols(); ++j) {
    for (index_t i = 0; i < a.rows(); ++i) {
      const T x = a(i, j);
      if (x == T{0}) continue;
      const T ax = std::abs(x);
      if (scale < ax) {
        const T r = scale / ax;
        ssq = T{1} + ssq * r * r;
        scale = ax;
      } else {
        const T r = ax / scale;
        ssq += r * r;
      }
    }
  }
  return {scale * std::sqrt(ssq), scale};
}

/// Frobenius norm with overflow-safe scaling.
template <class T>
T norm_fro(MatrixView<const T> a) {
  return norm_fro_max(a).fro;
}

/// Max-abs of the element-wise difference A − B; NaN when any difference
/// is NaN (a NaN on either side), so a `<= tol` check fails on it.
template <class T>
T max_abs_diff(MatrixView<const T> a, MatrixView<const T> b) {
  FTH_CHECK(a.rows() == b.rows() && a.cols() == b.cols(), "diff dimension mismatch");
  T best{};
  for (index_t j = 0; j < a.cols(); ++j) {
    for (index_t i = 0; i < a.rows(); ++i) {
      const T d = std::abs(a(i, j) - b(i, j));
      if (std::isnan(d)) return d;
      best = std::max(best, d);
    }
  }
  return best;
}

/// Count of elements where |A − B| exceeds `tol`.
template <class T>
index_t count_diff(MatrixView<const T> a, MatrixView<const T> b, T tol) {
  FTH_CHECK(a.rows() == b.rows() && a.cols() == b.cols(), "diff dimension mismatch");
  index_t n = 0;
  for (index_t j = 0; j < a.cols(); ++j)
    for (index_t i = 0; i < a.rows(); ++i)
      if (std::abs(a(i, j) - b(i, j)) > tol) ++n;
  return n;
}

}  // namespace fth
