// Protection of the Q factor's Householder vectors (Section IV-E).
//
// The vectors are generated on the host, never modified afterwards, and
// not even read again once their panel's iteration completes — so a row
// checksum vector (accumulated panel by panel) and a column checksum
// vector (emitted one segment per panel) suffice, verified once at the
// end of the factorization. The two GEMV-shaped passes per panel are what
// the paper overlaps with the device-side trailing update.
#pragma once

#include <vector>

#include "ft/checksum.hpp"
#include "la/matrix.hpp"

namespace fth::ft {

/// Maintains and verifies the checksums of the Householder-vector storage
/// (rows c+2..n−1 of each finished column c of the factored matrix).
class QProtector {
 public:
  /// Where reflector c lives: down column c (Q's vectors), or along row c
  /// (the bidiagonal reduction's P vectors, a(c, c+offset..n−1)).
  enum class Storage { Columns, Rows };

  /// `row_offset` selects the protected trapezoid: reflector c covers
  /// positions c+row_offset..n−1. The Hessenberg/tridiagonal reductions
  /// store their Householder tails from position c+2 (offset 2, the
  /// default); the bidiagonal reduction's left reflectors start one row
  /// higher (offset 1). Row storage keeps the column storage's sums and
  /// their order: each reflector is summed over its positions in
  /// increasing position, each position over the reflectors in increasing
  /// reflector, and coordinates in the Discrepancy are (position,
  /// reflector) in both.
  explicit QProtector(index_t n, index_t row_offset = 2, Storage storage = Storage::Columns);

  /// Per-panel contribution, computable while the device updates the
  /// trailing matrix. Does not modify the protector — the driver commits
  /// it only after the iteration's error check passes, so a rolled-back
  /// iteration never double-counts.
  struct PanelChecksums {
    index_t k = 0;                   ///< panel start column
    index_t ib = 0;                  ///< panel width
    std::vector<double> row_partial; ///< length n: row sums of the panel's v entries
    std::vector<double> col_segment; ///< length ib: column sums of the panel's v entries
  };
  [[nodiscard]] PanelChecksums compute_panel(MatrixView<const double> a, index_t k,
                                             index_t ib) const;
  void commit(const PanelChecksums& pc);

  /// Verify every protected element of columns 0..upto−1 against both
  /// checksum vectors (compare_checksums), locate the mismatches
  /// (ft::locate) and correct them in place: subtract each located delta,
  /// and rebuild each non-finite entry from the orthogonal code. Returns
  /// the number of entries corrected; throws recovery_error when the
  /// pattern is beyond the codes. `disc`, when given, receives the
  /// comparison before anything is located.
  int verify_and_correct(MatrixView<double> a, index_t upto, double tol,
                         Discrepancy* disc = nullptr) const;

  [[nodiscard]] const std::vector<double>& col_chk() const { return col_chk_; }
  [[nodiscard]] index_t committed_columns() const { return committed_; }

 private:
  /// Line sums of the protected entries of reflectors first..last−1: the
  /// row slot by position, the column slot by reflector.
  [[nodiscard]] FreshSums sums(MatrixView<const double> a, index_t first, index_t last) const;

  /// Element (position, reflector) of the protected storage in `a`.
  [[nodiscard]] double& at(MatrixView<double> a, index_t pos, index_t refl) const {
    return rows_ ? a(refl, pos) : a(pos, refl);
  }

  index_t n_;
  index_t off_ = 2;
  bool rows_ = false;  ///< Storage::Rows
  index_t committed_ = 0;
  std::vector<double> row_chk_;  ///< length n: Σ over finished columns of v(r, c)
  std::vector<double> col_chk_;  ///< length n: Σ over rows of v(·, c), one entry per column
};

}  // namespace fth::ft
