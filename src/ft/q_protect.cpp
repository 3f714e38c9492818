#include "ft/q_protect.hpp"

#include <cmath>
#include <utility>

#include "common/error.hpp"
#include "ft/locate.hpp"

namespace fth::ft {

QProtector::QProtector(index_t n, index_t row_offset, Storage storage)
    : n_(n), off_(row_offset), rows_(storage == Storage::Rows) {
  FTH_CHECK(n >= 0, "QProtector: negative dimension");
  FTH_CHECK(row_offset >= 1, "QProtector: row offset must be at least 1");
  row_chk_.assign(static_cast<std::size_t>(n), 0.0);
  col_chk_.assign(static_cast<std::size_t>(n), 0.0);
}

QProtector::PanelChecksums QProtector::compute_panel(MatrixView<const double> a, index_t k,
                                                     index_t ib) const {
  FTH_CHECK(a.rows() == n_ && a.cols() == n_, "QProtector: matrix dimension mismatch");
  FTH_CHECK(k >= 0 && ib >= 0 && k + ib <= n_, "QProtector: panel out of range");
  FreshSums s = sums(a, k, k + ib);
  PanelChecksums pc;
  pc.k = k;
  pc.ib = ib;
  pc.row_partial = std::move(s.row);
  pc.col_segment.assign(s.col.begin() + k, s.col.begin() + k + ib);
  return pc;
}

void QProtector::commit(const PanelChecksums& pc) {
  FTH_CHECK(pc.k == committed_, "QProtector: panels must be committed in order");
  for (index_t r = 0; r < n_; ++r)
    row_chk_[static_cast<std::size_t>(r)] += pc.row_partial[static_cast<std::size_t>(r)];
  for (index_t j = 0; j < pc.ib; ++j)
    col_chk_[static_cast<std::size_t>(pc.k + j)] = pc.col_segment[static_cast<std::size_t>(j)];
  committed_ = pc.k + pc.ib;
}

FreshSums QProtector::sums(MatrixView<const double> a, index_t first, index_t last) const {
  FreshSums fresh;
  fresh.row.assign(static_cast<std::size_t>(n_), 0.0);
  fresh.col.assign(static_cast<std::size_t>(n_), 0.0);
  const VectorView<double> by_position(fresh.row.data(), n_);
  const VectorView<double> by_reflector(fresh.col.data() + first, last - first);
  if (rows_) {
    // Row c of the block holds reflector c: positions from c + off_ on.
    sum_lines(a.block(first, 0, last - first, n_), LineShape::before_row(1 - first - off_),
              by_reflector, by_position);
  } else {
    sum_lines(a.block(0, first, n_, last - first), LineShape::from_row(first + off_),
              by_position, by_reflector);
  }
  return fresh;
}

int QProtector::verify_and_correct(MatrixView<double> a, index_t upto, double tol,
                                   Discrepancy* disc) const {
  FTH_CHECK(a.rows() == n_ && a.cols() == n_, "QProtector: matrix dimension mismatch");
  FTH_CHECK(upto <= committed_, "QProtector: verifying uncommitted columns");
  const FreshSums fresh = sums(a, 0, upto);
  const Discrepancy d = compare_checksums(fresh, row_chk_, col_chk_, tol);
  if (disc != nullptr) *disc = d;
  if (d.clean()) return 0;

  const LocateResult res = locate(d, fresh, tol);
  // Both vectors are host data taken from the same entries: a "corrupt
  // checksum" verdict means they disagree with each other.
  if (!res.chk_col_errors.empty() || !res.chk_row_errors.empty())
    throw recovery_error("Q protection: the row and column checksums disagree");
  for (const auto& err : res.data_errors) {
    FTH_ASSERT(err.row >= err.col + off_,
               "Q protection: located element outside the trapezoid");
    at(a, err.row, err.col) -= err.delta;
  }
  // A non-finite entry is rebuilt from the orthogonal code: zero it,
  // re-sum its line, and take the code minus the rest.
  for (const auto& t : res.reconstructions) at(a, t.row, t.col) = 0.0;
  const FreshSums rest = res.reconstructions.empty() ? FreshSums{} : sums(a, 0, upto);
  for (const auto& t : res.reconstructions) {
    const auto r = static_cast<std::size_t>(t.row);
    const auto c = static_cast<std::size_t>(t.col);
    const double code = t.use_row_code ? row_chk_[r] : col_chk_[c];
    const double others = t.use_row_code ? rest.row[r] : rest.col[c];
    if (!std::isfinite(code) || !std::isfinite(others))
      throw recovery_error("Q protection: the code that rebuilds a non-finite entry is lost");
    at(a, t.row, t.col) = code - others;
  }
  return static_cast<int>(res.data_errors.size() + res.reconstructions.size());
}

}  // namespace fth::ft
