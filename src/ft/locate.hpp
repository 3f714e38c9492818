// Error location from checksum discrepancies (Section IV-F).
//
// After rollback the corruption is confined again: each erroneous element
// (p, q, δ) shows up as a row discrepancy δ at p and a column discrepancy
// δ at q. Matching row deltas to column deltas by magnitude recovers the
// positions; the paper's solvability condition — the error positions must
// not form a rectangle — manifests here as the matching being unique.
#pragma once

#include <vector>

#include "ft/checksum.hpp"

namespace fth::ft {

/// One located data error: element (row, col) is off by `delta`
/// (stored = true + delta), so the correction is `element -= delta`.
struct LocatedError {
  index_t row = 0;
  index_t col = 0;
  double delta = 0.0;
};

/// One corrupted checksum element (the fault hit the redundancy itself).
/// Correction: set the maintained checksum to the recomputed value.
struct ChecksumError {
  index_t index = 0;   ///< row index (checksum column) or column index (checksum row)
  double fresh = 0.0;  ///< the recomputed, correct value
};

/// An element whose true value must be re-derived from a maintained code:
/// delta subtraction is meaningless because the stored value (or the delta)
/// is NaN/Inf. `use_row_code` selects the checksum-column (row-sum) code;
/// otherwise the checksum-row (column-sum) code is used. Non-finite damage
/// is self-locating — any line it touches flags with a non-finite delta —
/// so as long as the damage is confined to one row or one column, each
/// element is recoverable from the orthogonal code (the driver zeroes the
/// element, re-sums the line, and subtracts from the maintained checksum).
struct ReconstructTarget {
  index_t row = 0;
  index_t col = 0;
  bool use_row_code = true;
};

struct LocateResult {
  std::vector<LocatedError> data_errors;
  std::vector<ChecksumError> chk_col_errors;  ///< errors in the checksum column
  std::vector<ChecksumError> chk_row_errors;  ///< errors in the checksum row
  std::vector<ReconstructTarget> reconstructions;  ///< non-finite elements to re-derive
};

/// Resolve a discrepancy into error positions.
///
/// `fresh` must be the sums used to produce `d` (needed to report corrected
/// checksum values). `tol` bounds |row delta − column delta| for a pair to
/// match. Throws fth::recovery_error when the pattern is ambiguous (e.g. a
/// rectangle of equal-magnitude errors) or cannot be explained by one error
/// per mismatched row and column.
LocateResult locate(const Discrepancy& d, const FreshSums& fresh, double tol);

/// The row/column codes' matcher (ft_gehrd, ft_gebrd): compare_checksums,
/// then locate, at one tolerance.
LocateResult locate(const LineSums& s, double tol);

/// ft_sytrd's matcher: a symmetric matrix has one line kind, so its two
/// codes are both row sums, plain (A·e, the row slot) and weighted by
/// column position (A·ω with ω_c = c + 1, the column slot). An error δ at
/// stored element (p, q) shows in rows p and q with plain delta δ and
/// weighted delta δ·ω of the other index, so Δw/Δe names the column.
/// Rules, in order:
///  * non-finite fresh plain sums are data damage: one rebuild target from
///    the plain code at the (folded) element their rows name; more than two
///    such rows throw;
///  * a non-finite code entry with a finite fresh sum is rewritten from it;
///  * a row flags when |Δe| > tol or |Δw| > tol·n; a weighted-only flag is
///    a corrupt weighted entry, a ratio that names no column with a small
///    Δw a corrupt plain entry, otherwise the ratio's element is corrected
///    by Δe and its partner row consumed. More than 16 flags, a non-finite
///    delta, or a ratio that names no column with a large Δw throw.
LocateResult locate_weighted(const LineSums& s, double tol);

}  // namespace fth::ft
