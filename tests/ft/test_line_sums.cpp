// The line-sum kernel (ft::sum_lines) against the code it replaced, bit for
// bit: gemv(No/Yes) and symv(Lower) with a ones vector, the loops of
// add_trailing_sums, finished_sums and QProtector's sums, and the row-stored
// Householder orientation against the transposed copy it replaced. Also the
// DualSum checkpoint seal. Registered twice: plainly, and under the ctest
// prefix "strictfp." with each test run twice in one process.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/flops.hpp"
#include "common/rng.hpp"
#include "ft/checksum.hpp"
#include "ft/ladder.hpp"
#include "ft/q_protect.hpp"
#include "la/blas2.hpp"
#include "la/generate.hpp"

namespace fth::ft {
namespace {

constexpr index_t kNb = 32;
const index_t kSizes[] = {0, 1, kNb - 1, kNb, kNb + 1, 385};

/// Equal bits, or both NaN: which of two NaN operands an add propagates is
/// the hardware's choice and not part of any summation order.
bool same(double x, double y) {
  if (std::isnan(x) && std::isnan(y)) return true;
  return std::bit_cast<std::uint64_t>(x) == std::bit_cast<std::uint64_t>(y);
}

::testing::AssertionResult same_vectors(const std::vector<double>& x,
                                        const std::vector<double>& y) {
  if (x.size() != y.size()) return ::testing::AssertionFailure() << "length mismatch";
  for (std::size_t k = 0; k < x.size(); ++k)
    if (!same(x[k], y[k]))
      return ::testing::AssertionFailure()
             << "entry " << k << ": " << x[k] << " vs " << y[k] << " (bits differ)";
  return ::testing::AssertionSuccess();
}

enum class Fill { Random, Specials, Graded };

/// An m×n block with leading dimension m + 3, filled so that every line
/// mixes the values a checksum sum must carry through unchanged.
Matrix<double> block(index_t m, index_t n, Fill fill, std::uint64_t seed) {
  Matrix<double> a(m + 3, std::max<index_t>(n, 1));
  Rng rng(seed);
  const double specials[] = {0.0,
                             -0.0,
                             std::numeric_limits<double>::denorm_min(),
                             -2.2e-310,
                             std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity(),
                             1e300};
  for (index_t j = 0; j < a.cols(); ++j) {
    for (index_t i = 0; i < a.rows(); ++i) {
      double v = 2.0 * rng.uniform() - 1.0;
      if (fill == Fill::Specials && rng.below(5) == 0) v = specials[rng.below(8)];
      if (fill == Fill::Graded) v *= std::pow(10.0, 150.0 * ((i + 2 * j) % 3 - 1.0));
      a(i, j) = v;
    }
  }
  return a;
}

MatrixView<const double> top(const Matrix<double>& a, index_t m, index_t n) {
  return a.cview().block(0, 0, m, n);
}

std::vector<double> gemv_ones(Trans t, MatrixView<const double> a) {
  const index_t len = t == Trans::No ? a.rows() : a.cols();
  const index_t width = t == Trans::No ? a.cols() : a.rows();
  const std::vector<double> ones(static_cast<std::size_t>(width), 1.0);
  std::vector<double> y(static_cast<std::size_t>(len), 7.0);
  blas::gemv(t, 1.0, a, VectorView<const double>(ones.data(), width), 0.0,
             VectorView<double>(y.data(), len));
  return y;
}

/// The entries of a strided output.
std::vector<double> gather(const std::vector<double>& buf, index_t len, index_t inc) {
  std::vector<double> out(static_cast<std::size_t>(len));
  for (index_t k = 0; k < len; ++k)
    out[static_cast<std::size_t>(k)] = buf[static_cast<std::size_t>(k * inc)];
  return out;
}

TEST(LineSums, FullShapeIsGemvWithAOnesVectorBitForBit) {
  for (const Fill fill : {Fill::Random, Fill::Specials, Fill::Graded}) {
    for (const index_t m : kSizes) {
      for (const index_t n : kSizes) {
        SCOPED_TRACE(::testing::Message() << "m=" << m << " n=" << n << " fill=" << int(fill));
        const Matrix<double> a = block(m, n, fill, 100 + m * 7 + n);
        const auto av = top(a, m, n);
        const std::vector<double> want_row = gemv_ones(Trans::No, av);
        const std::vector<double> want_col = gemv_ones(Trans::Yes, av);

        // Both sums at once, unit strides.
        std::vector<double> row(static_cast<std::size_t>(m), 0.0);
        std::vector<double> col(static_cast<std::size_t>(n), 5.0);
        sum_lines(av, LineShape::full(), VectorView<double>(row.data(), m),
                  VectorView<double>(col.data(), n));
        EXPECT_TRUE(same_vectors(row, want_row));
        EXPECT_TRUE(same_vectors(col, want_col));

        // One sum at a time, the column sums into a strided output.
        std::vector<double> lone_row(static_cast<std::size_t>(m), 0.0);
        std::vector<double> scol(static_cast<std::size_t>(3 * n + 1), -1.0);
        sum_lines(av, LineShape::full(), VectorView<double>(lone_row.data(), m), {});
        sum_lines(av, LineShape::full(), {}, VectorView<double>(scol.data(), n, 3));
        EXPECT_TRUE(same_vectors(lone_row, want_row));
        EXPECT_TRUE(same_vectors(gather(scol, n, 3), want_col));
      }
    }
  }
}

TEST(LineSums, SymmetricLowerIsSymvWithAOnesVectorBitForBit) {
  for (const Fill fill : {Fill::Random, Fill::Specials, Fill::Graded}) {
    for (const index_t n : kSizes) {
      SCOPED_TRACE(::testing::Message() << "n=" << n << " fill=" << int(fill));
      Matrix<double> a = block(n, n, fill, 200 + n);
      // The strictly upper triangle is never read: poison it.
      for (index_t j = 0; j < n; ++j)
        for (index_t i = 0; i < j; ++i) a(i, j) = std::numeric_limits<double>::quiet_NaN();
      const auto av = top(a, n, n);
      const std::vector<double> ones(static_cast<std::size_t>(n), 1.0);
      std::vector<double> want(static_cast<std::size_t>(n), 3.0);
      blas::symv(Uplo::Lower, 1.0, av, VectorView<const double>(ones.data(), n), 0.0,
                 VectorView<double>(want.data(), n));
      std::vector<double> got(static_cast<std::size_t>(n), 0.0);
      sum_lines(av, LineShape::symmetric_lower(), VectorView<double>(got.data(), n), {});
      EXPECT_TRUE(same_vectors(got, want));
    }
  }
}

// The loops the kernel replaced, kept here as the reference order.
FreshSums old_finished_sums(MatrixView<const double> a, index_t i) {
  const index_t n = a.rows();
  FreshSums out{std::vector<double>(static_cast<std::size_t>(n), 0.0),
                std::vector<double>(static_cast<std::size_t>(n), 0.0)};
  for (index_t c = 0; c < i; ++c) {
    const index_t last = std::min(c + 1, n - 1);
    double cs = 0.0;
    for (index_t r = 0; r <= last; ++r) {
      out.row[static_cast<std::size_t>(r)] += a(r, c);
      cs += a(r, c);
    }
    out.col[static_cast<std::size_t>(c)] = cs;
  }
  return out;
}

void old_add_trailing_sums(MatrixView<const double> ext, index_t i, FreshSums& sums) {
  const auto n = static_cast<index_t>(sums.row.size());
  for (index_t c = i; c < n; ++c) {
    double cs = 0.0;
    for (index_t r = 0; r < n; ++r) {
      sums.row[static_cast<std::size_t>(r)] += ext(r, c);
      cs += ext(r, c);
    }
    sums.col[static_cast<std::size_t>(c)] = cs;
  }
}

/// QProtector's old sums over columns first..last−1, rows c+off.. of column c.
FreshSums old_q_sums(MatrixView<const double> a, index_t off, index_t first, index_t last) {
  const index_t n = a.rows();
  FreshSums out{std::vector<double>(static_cast<std::size_t>(n), 0.0),
                std::vector<double>(static_cast<std::size_t>(n), 0.0)};
  for (index_t c = first; c < last; ++c) {
    double cs = 0.0;
    for (index_t r = c + off; r < n; ++r) {
      out.row[static_cast<std::size_t>(r)] += a(r, c);
      cs += a(r, c);
    }
    out.col[static_cast<std::size_t>(c)] = cs;
  }
  return out;
}

TEST(LineSums, FinishedAndTrailingSumsKeepTheirLoopsBits) {
  for (const Fill fill : {Fill::Random, Fill::Specials, Fill::Graded}) {
    for (const index_t n : {index_t{1}, kNb - 1, kNb, kNb + 1, index_t{385}}) {
      const Matrix<double> host = block(n, n, fill, 300 + n);
      const Matrix<double> ext = block(n + 1, n + 1, fill, 400 + n);
      for (const index_t i : {index_t{0}, index_t{1}, n / 2, n - 1, n}) {
        SCOPED_TRACE(::testing::Message() << "n=" << n << " i=" << i << " fill=" << int(fill));
        FreshSums want = old_finished_sums(top(host, n, n), i);
        FreshSums got = finished_sums(top(host, n, n), i);
        EXPECT_TRUE(same_vectors(got.row, want.row));
        EXPECT_TRUE(same_vectors(got.col, want.col));
        old_add_trailing_sums(top(ext, n + 1, n + 1), i, want);
        add_trailing_sums(top(ext, n + 1, n + 1), i, got);
        EXPECT_TRUE(same_vectors(got.row, want.row));
        EXPECT_TRUE(same_vectors(got.col, want.col));
      }
    }
  }
}

TEST(LineSums, HouseholderTrapezoidsKeepTheirLoopsBitsInBothStorages) {
  for (const Fill fill : {Fill::Random, Fill::Specials, Fill::Graded}) {
    for (const index_t n : {index_t{1}, kNb - 1, kNb, kNb + 1, index_t{385}}) {
      const Matrix<double> a = block(n, n, fill, 500 + n);
      // The row-stored copy: reflector c along row c, as the mirror held it
      // down column c.
      Matrix<double> at(n, n);
      for (index_t j = 0; j < n; ++j)
        for (index_t i = 0; i < n; ++i) at(j, i) = a(i, j);
      for (const index_t off : {index_t{1}, index_t{2}}) {
        const QProtector by_cols(n, off);
        const QProtector by_rows(n, off, QProtector::Storage::Rows);
        for (const auto& [k, ib] : {std::pair<index_t, index_t>{0, std::min(n, kNb)},
                                    {n / 3, std::min(kNb, n - n / 3)},
                                    {0, n}}) {
          SCOPED_TRACE(::testing::Message()
                       << "n=" << n << " off=" << off << " k=" << k << " ib=" << ib);
          const FreshSums want = old_q_sums(top(a, n, n), off, k, k + ib);
          const auto pc = by_cols.compute_panel(top(a, n, n), k, ib);
          const auto pr = by_rows.compute_panel(top(at, n, n), k, ib);
          EXPECT_TRUE(same_vectors(pc.row_partial, want.row));
          EXPECT_TRUE(same_vectors(pr.row_partial, want.row));
          const std::vector<double> want_seg(want.col.begin() + k, want.col.begin() + k + ib);
          EXPECT_TRUE(same_vectors(pc.col_segment, want_seg));
          EXPECT_TRUE(same_vectors(pr.col_segment, want_seg));
        }
      }
    }
  }
}

TEST(LineSums, RowStoredProtectorCorrectsTheRowStorage) {
  const index_t n = 40;
  Matrix<double> a = random_matrix(n, n, 17);
  QProtector qp(n, 2, QProtector::Storage::Rows);
  for (index_t k = 0; k < n - 2; k += 8)
    qp.commit(qp.compute_panel(a.cview(), k, std::min<index_t>(8, n - 2 - k)));
  const double tol = 1e3 * std::numeric_limits<double>::epsilon() * static_cast<double>(n);
  const double added = a(5, 20);
  a(5, 20) += 0.75;  // reflector 5, position 20
  EXPECT_EQ(qp.verify_and_correct(a.view(), qp.committed_columns(), tol), 1);
  EXPECT_NEAR(a(5, 20), added, 1e-14);
  const double lost = a(9, 30);
  a(9, 30) = std::numeric_limits<double>::quiet_NaN();  // reflector 9, position 30
  EXPECT_EQ(qp.verify_and_correct(a.view(), qp.committed_columns(), tol), 1);
  EXPECT_NEAR(a(9, 30), lost, 1e-14);
  EXPECT_EQ(qp.verify_and_correct(a.view(), qp.committed_columns(), tol), 0);
}

TEST(LineSums, BooksOneFlopPerAdd) {
  const Matrix<double> a = block(kNb + 1, kNb, Fill::Random, 9);
  const auto av = top(a, kNb + 1, kNb);
  std::vector<double> row(static_cast<std::size_t>(kNb + 1), 0.0);
  std::vector<double> col(static_cast<std::size_t>(kNb));
  const flops::Scope scope;
  sum_lines(av, LineShape::full(), VectorView<double>(row.data(), kNb + 1),
            VectorView<double>(col.data(), kNb));
  EXPECT_EQ(scope.delta(), 2u * static_cast<std::uint64_t>((kNb + 1) * kNb));
}

// ---- the checkpoint seal ---------------------------------------------------

DualSum seal(MatrixView<const double> m) {
  DualSum s;
  s.add_block(m, 1.0, static_cast<double>(m.rows()));
  return s;
}

TEST(DualSumSeal, EqualBuffersSealEqualAndTheSavedCopySealsAsItsResealDoes) {
  for (const index_t m : {index_t{1}, index_t{7}, kNb, kNb + 1, index_t{385}}) {
    for (const index_t n : {index_t{1}, index_t{3}, kNb}) {
      const Matrix<double> a = block(m, n, Fill::Random, 600 + m + n);
      const Matrix<double> b = block(m, n, Fill::Random, 600 + m + n);
      EXPECT_TRUE(seal(top(a, m, n)).same_bits(seal(top(b, m, n))));
      Matrix<double> ckpt(m + 5, n);
      DualSum saved;
      saved.add_block(top(a, m, n), 1.0, static_cast<double>(m),
                      ckpt.view().block(0, 0, m, n));
      EXPECT_TRUE(saved.same_bits(seal(ckpt.cview().block(0, 0, m, n))));
      for (index_t j = 0; j < n; ++j)
        for (index_t i = 0; i < m; ++i) ASSERT_EQ(ckpt(i, j), a(i, j));
    }
  }
}

TEST(DualSumSeal, OneStruckElementBreaksTheSeal) {
  const index_t m = kNb + 5;
  const index_t n = 3;
  // Entries of one magnitude band, so no single strike drowns in rounding.
  Matrix<double> a(m, n);
  Rng rng(31);
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < m; ++i)
      a(i, j) = (rng.below(2) == 0 ? 1.0 : -1.0) * (0.5 + 0.5 * rng.uniform());
  const DualSum sealed = seal(a.cview());
  const auto flip = [](double x, int bit) {
    return std::bit_cast<double>(std::bit_cast<std::uint64_t>(x) ^ (std::uint64_t{1} << bit));
  };
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = 0; i < m; ++i) {
      const double keep = a(i, j);
      for (const double struck : {flip(keep, 63), flip(keep, 52), flip(keep, 61),
                                  std::numeric_limits<double>::quiet_NaN(),
                                  std::numeric_limits<double>::infinity()}) {
        a(i, j) = struck;
        EXPECT_FALSE(seal(a.cview()).same_bits(sealed))
            << "(" << i << "," << j << ") -> " << struck;
      }
      a(i, j) = keep;
    }
  }
  EXPECT_TRUE(seal(a.cview()).same_bits(sealed));
}

}  // namespace
}  // namespace fth::ft
