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
#include "la/norms.hpp"

namespace fth::hybrid {
class Stream;
}

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

/// The elements of a column-major block a line-sum pass reads: in column
/// j, the rows r with j + lo ≤ r < j + hi, clipped to the block.
struct LineShape {
  static constexpr index_t kOpen = index_t{1} << 60;  ///< an unbounded side
  index_t lo = -kOpen;
  index_t hi = kOpen;
  /// A symmetric matrix's stored lower triangle (square blocks only): each
  /// stored element counts in its row and in its column, as
  /// symv(Lower, ones) counts it (see sum_lines).
  bool symmetric = false;

  static constexpr LineShape full() { return {}; }
  /// Column j holds rows j+k and below (QProtector's column storage).
  static constexpr LineShape from_row(index_t k) { return {k, kOpen, false}; }
  /// Column j holds rows above j+k (finished_sums: k = 2, the upper
  /// Hessenberg part; the row-stored Householder trapezoid).
  static constexpr LineShape before_row(index_t k) { return {-kOpen, k, false}; }
  static constexpr LineShape symmetric_lower() { return {0, kOpen, true}; }
};

/// The one line-sum kernel of every unit-weight code sum (DESIGN.md §15).
/// Row sums accumulate, column sums overwrite:
///   row[r] += a(r, j) over the selected j, in increasing j;
///   col[j]  = 0.0 + a(r0, j) + … over the selected r, in increasing r.
/// Either output may be empty (not taken); `row` is unit-stride, `col` may
/// be strided. With a zeroed `row` these are exactly the sums
/// gemv(No, ones) and gemv(Yes, ones) return, and every line keeps that
/// order, so the bits are theirs: the speed comes from summing several
/// columns' independent chains at once, never from reassociating a line.
/// `symmetric_lower` takes no `col`; it adds to row[r] the stored row r
/// (a(r, 0..r), increasing) and then the sum of the column below the
/// diagonal (a(r+1.., r), increasing), which with a zeroed `row` is
/// symv(Lower, ones) bit for bit. Books one flop per add.
void sum_lines(MatrixView<const double> a, LineShape shape, VectorView<double> row,
               VectorView<double> col);

/// sum_lines with `row` zeroed first: fresh row sums, and column sums.
/// The body of sum_lines_async's task, and what the FT drivers run on the
/// host in a device window for the sums they take from host copies.
void fresh_line_sums(MatrixView<const double> a, LineShape shape, VectorView<double> row,
                     VectorView<double> col);

/// fresh_line_sums as one declared-effects device task on `s`
/// ("dev.sum_lines"). It takes the plain code sums the FT drivers took with
/// gemv_async(No/Yes) and symv_async(Lower) against a ones vector, with
/// their bits, in a task of its own as they did.
void sum_lines_async(hybrid::Stream& s, DMatrixView<const double> a, LineShape shape,
                     DVectorView<double> row, DVectorView<double> col);

// ---- Code maintenance of the two-code drivers (DESIGN.md §15) -------------
// One iteration's code sums go to the device packed in one vector `sums` of
// length 4·ib + 2·tn (ib the panel width, tn the trailing order): four
// operand sums of ib entries, then two old-panel sums of tn entries. The
// host takes them while the device runs the data update, from the copies
// it shipped and from the sealed panel checkpoint; one device task then
// applies them to the codes' trailing segments in the order the separate
// gemv/axpy tasks once did. Every sum keeps the kernel and line order of
// the device task it replaced (sum_lines, gemv), so the codes keep their
// bits.

/// ft_sytrd's two codes of the symmetric matrix `a` (lower triangle
/// read): the plain code A·e by the symmetric line sum, the weighted code
/// A·ω by symv(Lower) against the weights ω. Taken on the host while the
/// device takes the upload of `a`.
void sytrd_encode_codes(MatrixView<const double> a, VectorView<const double> omega,
                        VectorView<double> plain, VectorView<double> weighted);
/// ft_sytrd's operand sums: V2ᵀe, W2ᵀe, V2ᵀω and W2ᵀω, with ω the weights
/// of the trailing rows (tn × ib operands).
void sytrd_operand_sums(MatrixView<const double> v2, MatrixView<const double> w2,
                        VectorView<const double> omega_tail, VectorView<double> sums);
/// ft_sytrd's old-panel sums: the old panel's trailing rows P (tn × ib)
/// against e and against the panel columns' weights ω.
void sytrd_panel_sums(MatrixView<const double> p, VectorView<const double> omega_panel,
                      VectorView<double> sums);
/// ft_sytrd's code update of the trailing segments of its plain code A·e
/// and weighted code A·ω: each −= P·(e or ω) + V2·(W2ᵀ·) + W2·(V2ᵀ·).
void sytrd_code_update(MatrixView<const double> v2, MatrixView<const double> w2,
                       VectorView<const double> sums, VectorView<double> plain,
                       VectorView<double> weighted);

/// ft_gebrd's operand sums: Y2ᵀe, U2·e, V2ᵀe and X2ᵀe (V2, Y2, X2 tn × ib,
/// U2 ib × tn).
void gebrd_operand_sums(MatrixView<const double> y2, MatrixView<const double> u2,
                        MatrixView<const double> v2, MatrixView<const double> x2,
                        VectorView<double> sums);
/// ft_gebrd's old-panel sums: the old column panel's trailing rows (tn × ib)
/// summed by row, the old row panel (ib × tn) by column.
void gebrd_panel_sums(MatrixView<const double> col_panel, MatrixView<const double> row_panel,
                      VectorView<double> sums);
/// ft_gebrd's code update of the trailing segments of its row-sum code
/// (−= pc_cols + V2·(Y2ᵀe) + X2·(U2·e)) and column-sum code
/// (−= pc_rows + Y2·(V2ᵀe) + U2ᵀ·(X2ᵀe)).
void gebrd_code_update(MatrixView<const double> v2, MatrixView<const double> y2,
                       MatrixView<const double> x2, MatrixView<const double> u2,
                       VectorView<const double> sums, VectorView<double> row_code,
                       VectorView<double> col_code);

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

/// The norms of an FT driver's input A (norm_fro_max), which must be
/// finite: a NaN leaves `fro` NaN and an Inf leaves `max` infinite, and
/// either would be encoded into the codes, then read as damage that no
/// rollback removes. Throws precondition_error naming `who`. A finite A
/// whose Frobenius norm overflows passes.
FroMax<double> finite_input_norms(MatrixView<const double> a, const char* who);

}  // namespace fth::ft
