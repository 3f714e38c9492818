// Level-3 BLAS: matrix-matrix kernels (gemm, trmm, syr2k), the ones the
// reductions call.
//
// gemm is the workhorse of both the baseline and the fault-tolerant
// Hessenberg reduction; it is implemented with the classic Goto-style
// three-level cache blocking (pack A panel, pack B panel, register-tiled
// micro-kernel) on the calling thread. trmm is a straightforward reference
// kernel; syr2k hands its off-diagonal blocks to gemm.
#pragma once

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#if defined(__AVX2__) && defined(__FMA__)
#include <immintrin.h>
#endif

#include "common/error.hpp"
#include "common/flops.hpp"
#include "la/matrix.hpp"

namespace fth::blas {

namespace detail {

// Cache-blocking parameters (doubles; conservative, fit typical L1/L2).
inline constexpr index_t kMC = 128;
inline constexpr index_t kKC = 256;
inline constexpr index_t kNC = 1024;
inline constexpr index_t kMR = 4;
inline constexpr index_t kNR = 8;

/// Element accessor honouring an optional transpose of op(X) (i, j).
template <class T>
inline T op_at(const MatrixView<const T>& x, Trans t, index_t i, index_t j) {
  return t == Trans::No ? x(i, j) : x(j, i);
}

/// Checker builds fill a packing buffer with quiet NaN before it is packed;
/// elsewhere this is a no-op.
template <class T>
inline void poison([[maybe_unused]] T* buf, [[maybe_unused]] std::size_t size) {
#if FTH_CHECK_ENABLED
  std::fill_n(buf, size, std::numeric_limits<T>::quiet_NaN());
#endif
}

/// Pack op(A)(i0:i0+mb, k0:k0+kb) into row-panels of height kMR.
template <class T>
void pack_a(const MatrixView<const T>& a, Trans ta, index_t i0, index_t k0, index_t mb,
            index_t kb, T* buf) {
  for (index_t ip = 0; ip < mb; ip += kMR) {
    const index_t mr = std::min(kMR, mb - ip);
    for (index_t k = 0; k < kb; ++k) {
      for (index_t i = 0; i < mr; ++i) *buf++ = op_at(a, ta, i0 + ip + i, k0 + k);
      for (index_t i = mr; i < kMR; ++i) *buf++ = T{0};
    }
  }
}

/// Pack op(B)(k0:k0+kb, j0:j0+nb) into column-panels of width kNR.
template <class T>
void pack_b(const MatrixView<const T>& b, Trans tb, index_t k0, index_t j0, index_t kb,
            index_t nb, T* buf) {
  for (index_t jp = 0; jp < nb; jp += kNR) {
    const index_t nr = std::min(kNR, nb - jp);
    for (index_t k = 0; k < kb; ++k) {
      for (index_t j = 0; j < nr; ++j) *buf++ = op_at(b, tb, k0 + k, j0 + jp + j);
      for (index_t j = nr; j < kNR; ++j) *buf++ = T{0};
    }
  }
}

/// acc(i, j) = Σ_k Ap(i, k)·Bp(k, j) over one packed kMR×kNR tile: one
/// fused multiply-add chain per element, in increasing k from +0. The
/// library is built without FMA contraction, so the FMAs are written out.
template <class T>
void tile_product(index_t kb, const T* ap, const T* bp, T (&acc)[kMR][kNR]) {
  for (index_t k = 0; k < kb; ++k, ap += kMR, bp += kNR)
    for (index_t i = 0; i < kMR; ++i)
      for (index_t j = 0; j < kNR; ++j) acc[i][j] = std::fma(ap[i], bp[j], acc[i][j]);
}

#if defined(__AVX2__) && defined(__FMA__)
/// The same chains for double, four lanes wide: row i of the tile lives in
/// two accumulators, fed by a broadcast of Ap(i, k) and the two halves of
/// Bp(k, :). The compiler does not vectorize the std::fma loop above.
inline void tile_product(index_t kb, const double* ap, const double* bp,
                         double (&acc)[kMR][kNR]) {
  static_assert(kMR == 4 && kNR == 8, "the AVX2 tile is 4x8");
  __m256d c00 = _mm256_setzero_pd(), c01 = _mm256_setzero_pd();
  __m256d c10 = _mm256_setzero_pd(), c11 = _mm256_setzero_pd();
  __m256d c20 = _mm256_setzero_pd(), c21 = _mm256_setzero_pd();
  __m256d c30 = _mm256_setzero_pd(), c31 = _mm256_setzero_pd();
  for (index_t k = 0; k < kb; ++k, ap += kMR, bp += kNR) {
    const __m256d b0 = _mm256_loadu_pd(bp);
    const __m256d b1 = _mm256_loadu_pd(bp + 4);
    __m256d a = _mm256_broadcast_sd(ap);
    c00 = _mm256_fmadd_pd(a, b0, c00);
    c01 = _mm256_fmadd_pd(a, b1, c01);
    a = _mm256_broadcast_sd(ap + 1);
    c10 = _mm256_fmadd_pd(a, b0, c10);
    c11 = _mm256_fmadd_pd(a, b1, c11);
    a = _mm256_broadcast_sd(ap + 2);
    c20 = _mm256_fmadd_pd(a, b0, c20);
    c21 = _mm256_fmadd_pd(a, b1, c21);
    a = _mm256_broadcast_sd(ap + 3);
    c30 = _mm256_fmadd_pd(a, b0, c30);
    c31 = _mm256_fmadd_pd(a, b1, c31);
  }
  _mm256_storeu_pd(&acc[0][0], c00);
  _mm256_storeu_pd(&acc[0][4], c01);
  _mm256_storeu_pd(&acc[1][0], c10);
  _mm256_storeu_pd(&acc[1][4], c11);
  _mm256_storeu_pd(&acc[2][0], c20);
  _mm256_storeu_pd(&acc[2][4], c21);
  _mm256_storeu_pd(&acc[3][0], c30);
  _mm256_storeu_pd(&acc[3][4], c31);
}
#endif

/// kMR×kNR register-tiled micro-kernel: C(0:mr,0:nr) += alpha · Ap·Bp,
/// each element folded in as std::fma(alpha, acc, c).
template <class T>
void micro_kernel(index_t kb, T alpha, const T* ap, const T* bp, MatrixView<T>& c, index_t i0,
                  index_t j0, index_t mr, index_t nr) {
  T acc[kMR][kNR] = {};
  tile_product(kb, ap, bp, acc);
  T* cd = c.data();
  const index_t ldc = c.ld();
  for (index_t j = 0; j < nr; ++j)
    for (index_t i = 0; i < mr; ++i) {
      T& cij = cd[(i0 + i) + (j0 + j) * ldc];
      cij = std::fma(alpha, acc[i][j], cij);
    }
}

/// Naive triple loop for small problems (avoids packing overhead).
template <class T>
void gemm_naive(Trans ta, Trans tb, T alpha, MatrixView<const T> a, MatrixView<const T> b,
                MatrixView<T> c) {
  const index_t m = c.rows();
  const index_t n = c.cols();
  const index_t k = (ta == Trans::No) ? a.cols() : a.rows();
  for (index_t j = 0; j < n; ++j) {
    for (index_t l = 0; l < k; ++l) {
      const T blj = alpha * op_at(b, tb, l, j);
      if (blj == T{0}) continue;
      if (ta == Trans::No) {
        const T* acol = a.data() + l * a.ld();
        T* ccol = c.data() + j * c.ld();
        for (index_t i = 0; i < m; ++i) ccol[i] += acol[i] * blj;
      } else {
        T* ccol = c.data() + j * c.ld();
        for (index_t i = 0; i < m; ++i) ccol[i] += a(l, i) * blj;
      }
    }
  }
}

}  // namespace detail

/// gemm: C ← alpha·op(A)·op(B) + beta·C.
template <class T>
void gemm(Trans ta, Trans tb, T alpha, MatrixView<const T> a, MatrixView<const T> b, T beta,
          MatrixView<T> c) {
  using namespace detail;
  const index_t m = c.rows();
  const index_t n = c.cols();
  const index_t k = (ta == Trans::No) ? a.cols() : a.rows();
  {
    const index_t am = (ta == Trans::No) ? a.rows() : a.cols();
    const index_t bk = (tb == Trans::No) ? b.rows() : b.cols();
    const index_t bn = (tb == Trans::No) ? b.cols() : b.rows();
    FTH_CHECK(am == m && bk == k && bn == n, "gemm dimension mismatch");
  }

  // beta-scale C first so the accumulation path is uniform.
  if (beta == T{0}) {
    fill(c, T{0});
  } else if (beta != T{1}) {
    for (index_t j = 0; j < n; ++j) {
      T* col = c.data() + j * c.ld();
      for (index_t i = 0; i < m; ++i) col[i] *= beta;
    }
  }
  if (alpha == T{0} || m == 0 || n == 0 || k == 0) {
    flops::add(flops::gemm(m, n, k));
    return;
  }

  if (static_cast<double>(m) * static_cast<double>(n) * static_cast<double>(k) < 32.0 * 32.0 * 32.0) {
    gemm_naive(ta, tb, alpha, a, b, c);
    flops::add(flops::gemm(m, n, k));
    return;
  }

  // Packing workspace sized to this call: the largest A block and B panel
  // it packs, each rounded up to whole micro-tiles. Never initialised:
  // pack_a/pack_b write every slot the micro-kernel reads, the zero padding
  // of partial tiles included. Checker builds poison each buffer before it
  // is packed, so a slot of the product that packing skipped surfaces as
  // NaN in C.
  const index_t kcap = std::min(kKC, k);
  const auto asize = static_cast<std::size_t>((std::min(kMC, m) + kMR - 1) / kMR * kMR * kcap);
  const auto bsize = static_cast<std::size_t>((std::min(kNC, n) + kNR - 1) / kNR * kNR * kcap);
  const auto apack = std::make_unique_for_overwrite<T[]>(asize);
  const auto bpack = std::make_unique_for_overwrite<T[]>(bsize);

  for (index_t jc = 0; jc < n; jc += kNC) {
    const index_t nb = std::min(kNC, n - jc);
    for (index_t kc = 0; kc < k; kc += kKC) {
      const index_t kb = std::min(kKC, k - kc);
      poison(bpack.get(), bsize);
      pack_b(b, tb, kc, jc, kb, nb, bpack.get());
      for (index_t ic = 0; ic < m; ic += kMC) {
        const index_t mb = std::min(kMC, m - ic);
        poison(apack.get(), asize);
        pack_a(a, ta, ic, kc, mb, kb, apack.get());
        for (index_t jr = 0; jr < nb; jr += kNR) {
          const index_t nr = std::min(kNR, nb - jr);
          const T* bp = bpack.get() + (jr / kNR) * kb * kNR;
          for (index_t ir = 0; ir < mb; ir += kMR) {
            const index_t mr = std::min(kMR, mb - ir);
            const T* ap = apack.get() + (ir / kMR) * kb * kMR;
            micro_kernel(kb, alpha, ap, bp, c, ic + ir, jc + jr, mr, nr);
          }
        }
      }
    }
  }
  flops::add(flops::gemm(m, n, k));
}

/// trmm: B ← alpha·op(A)·B (Side::Left) or alpha·B·op(A) (Side::Right),
/// with A triangular.
template <class T>
void trmm(Side side, Uplo uplo, Trans trans, Diag diag, T alpha, MatrixView<const T> a,
          MatrixView<T> b) {
  const index_t m = b.rows();
  const index_t n = b.cols();
  const index_t na = (side == Side::Left) ? m : n;
  FTH_CHECK(a.rows() == na && a.cols() == na, "trmm dimension mismatch");
  const bool unit = diag == Diag::Unit;
  const bool lower = uplo == Uplo::Lower;

  if (side == Side::Left) {
    // B(:,j) ← alpha·op(A)·B(:,j), column by column via trmv semantics.
    for (index_t j = 0; j < n; ++j) {
      if (trans == Trans::No) {
        if (lower) {
          for (index_t i = m - 1; i >= 0; --i) {
            T acc = unit ? b(i, j) : a(i, i) * b(i, j);
            for (index_t l = 0; l < i; ++l) acc += a(i, l) * b(l, j);
            b(i, j) = alpha * acc;
          }
        } else {
          for (index_t i = 0; i < m; ++i) {
            T acc = unit ? b(i, j) : a(i, i) * b(i, j);
            for (index_t l = i + 1; l < m; ++l) acc += a(i, l) * b(l, j);
            b(i, j) = alpha * acc;
          }
        }
      } else {
        if (lower) {
          for (index_t i = 0; i < m; ++i) {
            T acc = unit ? b(i, j) : a(i, i) * b(i, j);
            for (index_t l = i + 1; l < m; ++l) acc += a(l, i) * b(l, j);
            b(i, j) = alpha * acc;
          }
        } else {
          for (index_t i = m - 1; i >= 0; --i) {
            T acc = unit ? b(i, j) : a(i, i) * b(i, j);
            for (index_t l = 0; l < i; ++l) acc += a(l, i) * b(l, j);
            b(i, j) = alpha * acc;
          }
        }
      }
    }
  } else {
    // Right side: B ← alpha·B·op(A). Process column blocks of the result.
    // new B(:,j) = alpha Σ_l B(:,l) · op(A)(l,j).
    const bool effective_lower = (trans == Trans::No) ? lower : !lower;
    if (effective_lower) {
      // op(A) lower triangular: result column j uses source columns l >= j,
      // sweep left-to-right so sources are unmodified when read.
      for (index_t j = 0; j < n; ++j) {
        for (index_t i = 0; i < m; ++i) {
          const T d = unit ? T{1} : detail::op_at(a, trans, j, j);
          T acc = b(i, j) * d;
          for (index_t l = j + 1; l < n; ++l) acc += b(i, l) * detail::op_at(a, trans, l, j);
          b(i, j) = alpha * acc;
        }
      }
    } else {
      // op(A) upper triangular: column j uses source columns l <= j,
      // sweep right-to-left.
      for (index_t j = n - 1; j >= 0; --j) {
        for (index_t i = 0; i < m; ++i) {
          const T d = unit ? T{1} : detail::op_at(a, trans, j, j);
          T acc = b(i, j) * d;
          for (index_t l = 0; l < j; ++l) acc += b(i, l) * detail::op_at(a, trans, l, j);
          b(i, j) = alpha * acc;
        }
      }
    }
  }
  flops::add(static_cast<std::uint64_t>(m) * n * na);
}

/// syr2k: C ← alpha·(A·Bᵀ + B·Aᵀ) + beta·C (Trans::No; Trans::Yes swaps the
/// transposes), updating only the `uplo` triangle of C. The trailing update
/// of the blocked tridiagonal reduction (A −= V·Wᵀ + W·Vᵀ).
template <class T>
void syr2k(Uplo uplo, Trans trans, T alpha, MatrixView<const T> a, MatrixView<const T> b,
           T beta, MatrixView<T> c) {
  const index_t n = c.rows();
  FTH_CHECK(c.cols() == n, "syr2k requires square C");
  const index_t k = (trans == Trans::No) ? a.cols() : a.rows();
  const index_t an = (trans == Trans::No) ? a.rows() : a.cols();
  const index_t bn = (trans == Trans::No) ? b.rows() : b.cols();
  const index_t bk = (trans == Trans::No) ? b.cols() : b.rows();
  FTH_CHECK(an == n && bn == n && bk == k, "syr2k dimension mismatch");

  // Fast path for the shape the tridiagonal reduction uses: No-trans,
  // blocked into diagonal triangles (naive) + sub-diagonal rectangles
  // (two gemms each, reusing the cache-blocked kernel).
  if (trans == Trans::No && n >= 32) {
    constexpr index_t cb = 64;
    for (index_t j0 = 0; j0 < n; j0 += cb) {
      const index_t jb = std::min(cb, n - j0);
      // Diagonal block: the referenced triangle only.
      for (index_t j = j0; j < j0 + jb; ++j) {
        const index_t ilo = (uplo == Uplo::Lower) ? j : j0;
        const index_t ihi = (uplo == Uplo::Lower) ? j0 + jb : j + 1;
        for (index_t i = ilo; i < ihi; ++i) {
          T acc{};
          for (index_t l = 0; l < k; ++l) acc += a(i, l) * b(j, l) + b(i, l) * a(j, l);
          c(i, j) = alpha * acc + (beta == T{0} ? T{0} : beta * c(i, j));
        }
      }
      // Off-diagonal rectangle: full gemm pair.
      const index_t ri = (uplo == Uplo::Lower) ? j0 + jb : 0;
      const index_t rm = (uplo == Uplo::Lower) ? n - j0 - jb : j0;
      if (rm > 0) {
        auto cblk = c.block(ri, j0, rm, jb);
        gemm(Trans::No, Trans::Yes, alpha, a.block(ri, 0, rm, k), b.block(j0, 0, jb, k),
             beta, cblk);
        gemm(Trans::No, Trans::Yes, alpha, b.block(ri, 0, rm, k), a.block(j0, 0, jb, k),
             T{1}, cblk);
      }
    }
    return;  // gemm accounted its own FLOPs; the triangles are O(n·cb·k) extra
  }

  for (index_t j = 0; j < n; ++j) {
    const index_t ilo = (uplo == Uplo::Lower) ? j : 0;
    const index_t ihi = (uplo == Uplo::Lower) ? n : j + 1;
    for (index_t i = ilo; i < ihi; ++i) {
      T acc{};
      for (index_t l = 0; l < k; ++l) {
        acc += detail::op_at(a, trans, i, l) * detail::op_at(b, trans, j, l) +
               detail::op_at(b, trans, i, l) * detail::op_at(a, trans, j, l);
      }
      c(i, j) = alpha * acc + (beta == T{0} ? T{0} : beta * c(i, j));
    }
  }
  flops::add(2ull * static_cast<std::uint64_t>(n) * n * k);
}

}  // namespace fth::blas
