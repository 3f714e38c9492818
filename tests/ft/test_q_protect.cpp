// Q-factor protection: panel checksum accumulation, end-of-run verification
// and correction, and the commit discipline that rollback relies on.
#include <gtest/gtest.h>

#include <limits>

#include "common/error.hpp"
#include "ft/ladder.hpp"
#include "ft/q_protect.hpp"
#include "la/generate.hpp"
#include "la/norms.hpp"
#include "lapack/gehrd.hpp"

namespace fth::ft {
namespace {

/// Factorize a random matrix so the Householder storage is realistic.
Matrix<double> factored(index_t n, std::uint64_t seed) {
  Matrix<double> a = random_matrix(n, n, seed);
  std::vector<double> tau(static_cast<std::size_t>(n - 1));
  lapack::gehrd(a.view(), VectorView<double>(tau.data(), n - 1), {.nb = 8, .nx = 8});
  return a;
}

/// Absorb all panels of a factored matrix.
QProtector protect_all(MatrixView<const double> a, index_t nb) {
  const index_t n = a.rows();
  QProtector qp(n);
  index_t k = 0;
  while (k < n - 1) {
    const index_t ib = std::min(nb, n - 1 - k);
    qp.commit(qp.compute_panel(a, k, ib));
    k += ib;
  }
  return qp;
}

/// Householder-shaped storage of small integers: every checksum is exact,
/// so a rebuilt entry must come back bit for bit.
Matrix<double> integer_storage(index_t n) {
  Matrix<double> a(n, n);
  for (index_t c = 0; c < n; ++c)
    for (index_t r = 0; r < n; ++r) a(r, c) = static_cast<double>((7 * r + 3 * c) % 13 - 6);
  return a;
}

TEST(QProtect, CleanStorageVerifies) {
  Matrix<double> a = factored(40, 1);
  QProtector qp = protect_all(a.cview(), 8);
  EXPECT_EQ(qp.committed_columns(), 39);
  Discrepancy d;
  EXPECT_EQ(qp.verify_and_correct(a.view(), 39, 1e-12, &d), 0);
  EXPECT_TRUE(d.clean()) << "every line gap stays within 1e-12";
}

TEST(QProtect, SingleCorruptionLocatedAndFixed) {
  Matrix<double> a = factored(40, 2);
  Matrix<double> clean(a.cview());
  QProtector qp = protect_all(a.cview(), 8);
  a(20, 5) += 3.0;  // a v-entry: row 20 > 5+1
  EXPECT_EQ(qp.verify_and_correct(a.view(), 39, 1e-8), 1);
  EXPECT_LT(max_abs_diff(a.cview(), clean.cview()), 1e-10);
}

TEST(QProtect, TwoCorruptionsDistinctMagnitudes) {
  Matrix<double> a = factored(48, 3);
  Matrix<double> clean(a.cview());
  QProtector qp = protect_all(a.cview(), 8);
  a(30, 4) += 2.0;
  a(41, 17) += -5.0;
  EXPECT_EQ(qp.verify_and_correct(a.view(), 47, 1e-8), 2);
  EXPECT_LT(max_abs_diff(a.cview(), clean.cview()), 1e-10);
}

TEST(QProtect, EqualMagnitudeRectangleAmbiguous) {
  Matrix<double> a = factored(48, 4);
  QProtector qp = protect_all(a.cview(), 8);
  a(30, 4) += 2.0;
  a(41, 17) += 2.0;
  EXPECT_THROW(qp.verify_and_correct(a.view(), 47, 1e-8), recovery_error);
}

TEST(QProtect, SameRowErrorsRecoveredFromColumnDeltas) {
  // One flagged row (the summed delta) and two flagged columns: each
  // column's own delta is its element's correction (ft::locate's
  // line-confined rule).
  Matrix<double> a = factored(48, 5);
  Matrix<double> clean(a.cview());
  QProtector qp = protect_all(a.cview(), 8);
  a(40, 4) += 2.0;
  a(40, 17) += 3.0;
  EXPECT_EQ(qp.verify_and_correct(a.view(), 47, 1e-8), 2);
  EXPECT_LT(max_abs_diff(a.cview(), clean.cview()), 1e-10);
}

TEST(QProtect, NaNAndInfEntriesRebuiltExactly) {
  // abs(NaN) > tol is false: a NaN entry must still be located, and both
  // kinds rebuilt from the orthogonal code, here exactly.
  for (const double poison : {std::numeric_limits<double>::quiet_NaN(),
                              -std::numeric_limits<double>::infinity()}) {
    Matrix<double> a = integer_storage(32);
    Matrix<double> clean(a.cview());
    QProtector qp = protect_all(a.cview(), 8);
    a(20, 5) = poison;
    Discrepancy d;
    EXPECT_EQ(qp.verify_and_correct(a.view(), 31, 1e-8, &d), 1) << poison;
    EXPECT_EQ(d.nonfinite, 2) << "row 20 and column 5";
    EXPECT_EQ(a(20, 5), clean(20, 5)) << poison;
    EXPECT_EQ(max_abs_diff(a.cview(), clean.cview()), 0.0) << poison;
  }
}

TEST(QProtect, NonFiniteEntriesInOneColumnRebuiltFromTheirRows) {
  Matrix<double> a = integer_storage(32);
  Matrix<double> clean(a.cview());
  QProtector qp = protect_all(a.cview(), 8);
  a(12, 3) = std::numeric_limits<double>::quiet_NaN();
  a(29, 3) = std::numeric_limits<double>::infinity();
  EXPECT_EQ(qp.verify_and_correct(a.view(), 31, 1e-8), 2);
  EXPECT_EQ(max_abs_diff(a.cview(), clean.cview()), 0.0);
}

TEST(QProtect, NonFiniteRectangleIsUnrecoverable) {
  // Two NaN entries in different rows and columns poison both codes of
  // both lines: nothing is left to rebuild from.
  Matrix<double> a = integer_storage(32);
  QProtector qp = protect_all(a.cview(), 8);
  a(12, 3) = std::numeric_limits<double>::quiet_NaN();
  a(29, 17) = std::numeric_limits<double>::quiet_NaN();
  Discrepancy d;
  EXPECT_THROW(qp.verify_and_correct(a.view(), 31, 1e-8, &d), recovery_error);
  EXPECT_EQ(d.nonfinite, 4);
}

// A finite strike beside a non-finite one in another row and column: the
// comparison that shows the NaN hands out its rebuild only, so the ladder's
// verify_q passes again after a rebuild and corrects the finite strike too,
// for column- and row-stored reflectors alike.
TEST(QProtect, VerifyQCorrectsAFiniteStrikeBesideARebuiltNaN) {
  const index_t n = 40;
  for (const QProtector::Storage storage :
       {QProtector::Storage::Columns, QProtector::Storage::Rows}) {
    const bool rows = storage == QProtector::Storage::Rows;
    SCOPED_TRACE(rows ? "rows" : "columns");
    Matrix<double> a = integer_storage(n);
    const Matrix<double> clean(a.cview());
    QProtector qp(n, 2, storage);
    for (index_t k = 0; k < n - 1; k += 8)
      qp.commit(qp.compute_panel(a.cview(), k, std::min<index_t>(8, n - 1 - k)));
    // (position, reflector) = (20, 5) and (30, 9), wherever the storage puts them.
    const auto at = [&](index_t pos, index_t refl) -> double& {
      return rows ? a(refl, pos) : a(pos, refl);
    };
    at(20, 5) += 0.75;
    at(30, 9) = std::numeric_limits<double>::quiet_NaN();
    FtReport rep;
    RecoveryLadder ladder({"test", "gap", false}, rep, nullptr, 3, 1.0, 1);
    EXPECT_EQ(ladder.verify_q(qp, a.view()), 2);
    EXPECT_EQ(rep.q_corrections, 2);
    EXPECT_EQ(max_abs_diff(a.cview(), clean.cview()), 0.0);
  }
}

TEST(QProtect, UncommittedPanelNotDoubleCounted) {
  // The driver computes panel checksums before the iteration's error check
  // and commits only afterwards; a recomputed (retried) panel must yield
  // identical state, and verifying uncommitted columns must be rejected.
  Matrix<double> a = factored(32, 6);
  QProtector qp(32);
  auto pc1 = qp.compute_panel(a.cview(), 0, 8);
  auto pc1_again = qp.compute_panel(a.cview(), 0, 8);  // "retry"
  qp.commit(pc1_again);
  EXPECT_EQ(qp.committed_columns(), 8);
  for (std::size_t r = 0; r < pc1.row_partial.size(); ++r)
    EXPECT_EQ(pc1.row_partial[r], pc1_again.row_partial[r]);
  EXPECT_THROW(qp.verify_and_correct(a.view(), 16, 1e-8), precondition_error);
  // Out-of-order commits rejected.
  auto pc3 = qp.compute_panel(a.cview(), 16, 8);
  EXPECT_THROW(qp.commit(pc3), precondition_error);
}

TEST(QProtect, ColumnSegmentsAreFinal) {
  // Column checksums are emitted per panel and never change afterwards
  // (Section IV-E: "This segment is never changed once generated").
  Matrix<double> a = factored(32, 7);
  QProtector qp(32);
  qp.commit(qp.compute_panel(a.cview(), 0, 8));
  const std::vector<double> after_first = qp.col_chk();
  qp.commit(qp.compute_panel(a.cview(), 8, 8));
  for (index_t c = 0; c < 8; ++c)
    EXPECT_EQ(qp.col_chk()[static_cast<std::size_t>(c)],
              after_first[static_cast<std::size_t>(c)]);
}

TEST(QProtect, SubdiagonalBetaNotProtected) {
  // The subdiagonal element A(c+1, c) is an H entry, not a v entry; the Q
  // checksums must ignore it (it is covered by the H checksums instead).
  Matrix<double> a = factored(32, 8);
  QProtector qp = protect_all(a.cview(), 8);
  a(5, 4) += 10.0;  // subdiagonal: H data
  EXPECT_EQ(qp.verify_and_correct(a.view(), 31, 1e-8), 0);
}

}  // namespace
}  // namespace fth::ft
