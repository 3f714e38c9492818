// Hybrid (host+device) blocked symmetric tridiagonal reduction — the
// MAGMA-style baseline for the second two-sided factorization, with the
// same work split as hybrid_gehrd: panel recurrences on the host, the
// large symmetric matrix-vector products and the rank-2k trailing update
// on the device.
#pragma once

#include "la/matrix.hpp"
#include "hybrid/device.hpp"
#include "hybrid/hybrid_gehrd.hpp"  // HybridGehrdStats

namespace fth::hybrid {

struct HybridSytrdOptions {
  index_t nb = 32;  ///< panel width
  index_t nx = 64;  ///< crossover to the host unblocked finish
};

/// Reduce the symmetric matrix `a` (lower triangle authoritative) to
/// tridiagonal form using `dev`. Same output contract as lapack::sytrd.
void hybrid_sytrd(Device& dev, MatrixView<double> a, VectorView<double> d,
                  VectorView<double> e, VectorView<double> tau,
                  const HybridSytrdOptions& opt = {}, HybridGehrdStats* stats = nullptr);

}  // namespace fth::hybrid
