// ABFT checksum encoding and verification (Sections IV-B, IV-D, IV-F).
//
// The protected object is the *logical* matrix of the factorization: the
// already-finished columns contribute only their upper-Hessenberg entries
// (the Householder vectors stored below them belong to Q and are protected
// separately), while the trailing columns contribute every row. The
// extended matrix carries one checksum column (row sums) at column n, one
// checksum row (column sums) at row n, and the grand total at (n, n).
#pragma once

#include <vector>

#include "la/matrix.hpp"

namespace fth::ft {

/// Build the (n+1)×(n+1) fully-encoded extension of `a` (host-side; the
/// driver performs the same encoding with device kernels).
Matrix<double> encode_extended(MatrixView<const double> a);

/// Fresh logical row/column sums of the protected matrix, split across the
/// two memory spaces exactly as the driver stores it, and summed in two
/// halves in this order:
///  * finished_sums — the n×n host matrix's finished columns (< i), of
///    which only rows 0..c+1 of a column c are summed (trailing entries 0),
///  * add_trailing_sums — the live trailing columns (≥ i), full height, of
///    the (n+1)×(n+1) extended matrix on the device.
struct FreshSums {
  std::vector<double> row;  ///< length n
  std::vector<double> col;  ///< length n
};
FreshSums finished_sums(MatrixView<const double> host_a, index_t i);
void add_trailing_sums(MatrixView<const double> ext, index_t i, FreshSums& sums);

/// Fresh logical line sums and the two maintained codes they are checked
/// against, all of length n: what every FT driver's location reads. The
/// row slot holds the row sums and their code (the checksum column), the
/// column slot the column sums and theirs (the checksum row). ft_sytrd has
/// no column code: its plain code A·e rides in the row slot and its
/// weighted code A·ω in the column slot.
struct LineSums {
  FreshSums fresh;
  std::vector<double> row_code;
  std::vector<double> col_code;
};

/// Indices (and fresh−maintained deltas) where the recomputed sums diverge
/// from the maintained checksums by more than `tol`.
struct Discrepancy {
  std::vector<index_t> rows;
  std::vector<double> row_delta;  ///< fresh − maintained, per entry of `rows`
  std::vector<index_t> cols;
  std::vector<double> col_delta;
  index_t nonfinite = 0;  ///< flagged deltas that are NaN or ±Inf
  [[nodiscard]] bool clean() const { return rows.empty() && cols.empty(); }
};
/// The one discrepancy builder of every row/column code: `row_code` holds
/// the maintained row sums (the checksum column), `col_code` the column
/// sums (the checksum row), each as long as its fresh sums. A NaN delta is
/// flagged, never waved through.
Discrepancy compare_checksums(const FreshSums& fresh, const std::vector<double>& row_code,
                              const std::vector<double>& col_code, double tol);

/// |Sre − Sce|: the per-iteration detection statistic (Algorithm 3 line 13).
double detection_gap(MatrixView<const double> ext);

/// Number of NaN and ±Inf entries of `x`. Branch-free (an all-ones
/// exponent field marks both), column by column, so the loop vectorizes.
index_t count_nonfinite(MatrixView<const double> x);

/// Default detection threshold: factor · eps · n · ‖A‖_F. The paper asks
/// for a value 2–3 orders of magnitude above machine epsilon relative to
/// the data scale; the n factor absorbs the growth of the grand sums.
double default_threshold(double fro_norm, index_t n, double factor = 500.0);

}  // namespace fth::ft
