#include "lapack/orghr.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "lapack/reflectors.hpp"

namespace fth::lapack {

Matrix<double> materialize_v(MatrixView<const double> a_factored, index_t k, index_t nb) {
  const index_t n = a_factored.rows();
  FTH_CHECK(k >= 0 && nb >= 1 && k + nb < n, "materialize_v: panel out of range");
  const index_t rows = n - k - 1;
  Matrix<double> v(rows, nb);
  materialize_v_into(a_factored, k, nb, v.view());
  return v;
}

void materialize_v_into(MatrixView<const double> a_factored, index_t k, index_t nb,
                        MatrixView<double> v) {
  const index_t n = a_factored.rows();
  FTH_CHECK(k >= 0 && nb >= 1 && k + nb < n, "materialize_v_into: panel out of range");
  const index_t rows = n - k - 1;
  FTH_CHECK(v.rows() >= rows && v.cols() >= nb, "materialize_v_into: view too small");
  for (index_t j = 0; j < nb; ++j) {
    // Reflector k+j: unit at row j (global k+j+1), tail from the factored
    // panel below it, explicit zeros above.
    for (index_t i = 0; i < j; ++i) v(i, j) = 0.0;
    v(j, j) = 1.0;
    for (index_t i = j + 1; i < rows; ++i) v(i, j) = a_factored(k + 1 + i, k + j);
  }
}

Matrix<double> orghr(MatrixView<const double> a_factored, VectorView<const double> tau,
                     index_t nb) {
  const index_t n = a_factored.rows();
  FTH_CHECK(a_factored.cols() == n, "orghr: matrix must be square");
  FTH_CHECK(tau.size() >= std::max<index_t>(n - 1, 0), "orghr: tau too short");
  FTH_CHECK(nb >= 1, "orghr: block size must be positive");

  Matrix<double> q(n, n);
  set_identity(q.view());
  if (n <= 2) return q;

  // Reflector i (i = 0..n−3) acts on global rows/columns i+1..n−1.
  // Accumulate Q = H(0)·(H(1)·(····I)) backwards in blocks: each block
  // [s, s+ib) is applied from the left to the already-accumulated product,
  // which is identity outside rows/cols ≥ s+1.
  const index_t k = n - 2;  // number of non-trivial reflectors
  Matrix<double> t(nb, nb);
  Matrix<double> work(n, nb);

  index_t s = ((k - 1) / nb) * nb;
  for (;;) {
    const index_t ib = std::min(nb, k - s);
    Matrix<double> v = materialize_v(a_factored, s, ib);
    larft(v.view(), tau.sub(s, ib), t.view());
    larfb(Trans::No, v.view(), t.view(), q.block(s + 1, s + 1, n - s - 1, n - s - 1),
          work.view());
    if (s == 0) break;
    s -= nb;
  }
  return q;
}

}  // namespace fth::lapack
