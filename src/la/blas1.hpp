// Level-1 BLAS: vector-vector kernels.
//
// Reference-quality templated kernels; all take VectorView so arbitrary
// strides (rows of column-major matrices) work. FLOPs are accounted at
// call granularity via fth::flops.
#pragma once

#include <cmath>

#include "common/error.hpp"
#include "common/flops.hpp"
#include "la/matrix.hpp"

namespace fth::blas {

/// dot: xᵀy.
template <class T>
T dot(VectorView<const T> x, VectorView<const T> y) {
  FTH_CHECK(x.size() == y.size(), "dot length mismatch");
  T acc{};
  for (index_t i = 0; i < x.size(); ++i) acc += x[i] * y[i];
  flops::add(x.empty() ? 0 : 2ull * x.size() - 1);
  return acc;
}

/// axpy: y ← alpha·x + y.
template <class T>
void axpy(T alpha, VectorView<const T> x, VectorView<T> y) {
  FTH_CHECK(x.size() == y.size(), "axpy length mismatch");
  if (alpha == T{0}) return;
  for (index_t i = 0; i < x.size(); ++i) y[i] += alpha * x[i];
  flops::add(2ull * x.size());
}

/// scal: x ← alpha·x.
template <class T>
void scal(T alpha, VectorView<T> x) {
  for (index_t i = 0; i < x.size(); ++i) x[i] *= alpha;
  flops::add(static_cast<std::uint64_t>(x.size()));
}

/// copy: y ← x.
template <class T>
void copy(VectorView<const T> x, VectorView<T> y) {
  FTH_CHECK(x.size() == y.size(), "copy length mismatch");
  for (index_t i = 0; i < x.size(); ++i) y[i] = x[i];
}

/// nrm2: ‖x‖₂, computed with scaling to avoid overflow/underflow
/// (the classic LAPACK dlassq recurrence).
template <class T>
T nrm2(VectorView<const T> x) {
  T scale{0};
  T ssq{1};
  for (index_t i = 0; i < x.size(); ++i) {
    const T xi = x[i];
    if (xi == T{0}) continue;
    const T axi = std::abs(xi);
    if (scale < axi) {
      const T r = scale / axi;
      ssq = T{1} + ssq * r * r;
      scale = axi;
    } else {
      const T r = axi / scale;
      ssq += r * r;
    }
  }
  flops::add(2ull * x.size());
  return scale * std::sqrt(ssq);
}

/// sum: Σxᵢ (checksum building block; plain left-to-right accumulation,
/// matching the paper's dot-product-based encoding).
template <class T>
T sum(VectorView<const T> x) {
  T acc{};
  for (index_t i = 0; i < x.size(); ++i) acc += x[i];
  flops::add(x.empty() ? 0 : static_cast<std::uint64_t>(x.size()) - 1);
  return acc;
}

}  // namespace fth::blas
