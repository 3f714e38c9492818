#include "ft/checksum.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>

#include "common/error.hpp"
#include "common/flops.hpp"
#include "common/types.hpp"
#include "hybrid/stream.hpp"
#include "la/blas1.hpp"
#include "la/blas2.hpp"
#include "obs/trace.hpp"

namespace fth::ft {

Matrix<double> encode_extended(MatrixView<const double> a) {
  const index_t n = a.rows();
  FTH_CHECK(a.cols() == n, "encode_extended: matrix must be square");
  Matrix<double> ext(n + 1, n + 1);
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < n; ++i) ext(i, j) = a(i, j);
  // Checksum column: row sums; checksum row: column sums; corner: grand total.
  sum_lines(a, LineShape::full(), ext.view().col(n).sub(0, n), ext.view().row(n).sub(0, n));
  double total = 0.0;
  for (index_t j = 0; j < n; ++j) total += ext(n, j);
  ext(n, n) = total;
  return ext;
}

namespace {

/// The rows a line-sum pass reads in column j: [j + lo, j + hi), clipped.
struct Band {
  index_t lo;
  index_t hi;
  [[nodiscard]] bool holds(index_t r, index_t j) const { return j + lo <= r && r < j + hi; }
  [[nodiscard]] index_t length(index_t j, index_t m) const {
    return std::max<index_t>(0, std::min(m, j + hi) - std::max<index_t>(0, j + lo));
  }
};

/// Rows [r0, r1) of the W columns at `c`, every element selected: the hot
/// loops. Row r adds its W elements in column order, independent of every
/// other row, so the row pass vectorizes over rows.
template <int W>
void add_rows(const double* c, index_t ld, index_t r0, index_t r1, double* y) {
  for (index_t r = r0; r < r1; ++r) {
    double yr = y[r];
#pragma GCC unroll 8
    for (int k = 0; k < W; ++k) yr += c[r + k * ld];
    y[r] = yr;
  }
}

/// Column k's chain s[k] adds its rows in row order. A chain is serial,
/// but the W chains are independent and overlap in the pipeline; four
/// measured fastest on an AVX-512 Xeon (0.28 ns per element at 384²,
/// against 0.33 for eight).
template <int W>
void add_cols(const double* c, index_t ld, index_t r0, index_t r1, double* s) {
  double acc[W];
  for (int k = 0; k < W; ++k) acc[k] = s[k];
  for (index_t r = r0; r < r1; ++r) {
#pragma GCC unroll 4
    for (int k = 0; k < W; ++k) acc[k] += c[r + k * ld];
  }
  for (int k = 0; k < W; ++k) s[k] = acc[k];
}

/// Rows [r0, r1) of the w columns from column j0, where the bands select
/// only some elements: the same two orders, element by element.
void sum_edge(const double* c, index_t ld, index_t r0, index_t r1, index_t j0, index_t w,
              Band rb, Band cb, double* y, double* s) {
  for (index_t r = r0; r < r1; ++r) {
    double yr = y != nullptr ? y[r] : 0.0;
    for (index_t k = 0; k < w; ++k) {
      const double v = c[r + k * ld];
      if (y != nullptr && rb.holds(r, j0 + k)) yr += v;
      if (s != nullptr && cb.holds(r, j0 + k)) s[k] += v;
    }
    if (y != nullptr) y[r] = yr;
  }
}

/// Columns j0..j0+W−1 of an m-row block: the ragged rows at the band's
/// edges element by element, the rows every column reads in the hot loop.
template <int W>
void sum_block(const double* c, index_t ld, index_t m, index_t j0, Band rb, Band cb,
               double* y, double* s) {
  const index_t jl = j0 + W - 1;
  const index_t any0 = std::max<index_t>(0, j0 + std::min(rb.lo, cb.lo));
  const index_t any1 = std::min(m, jl + std::max(rb.hi, cb.hi));
  const index_t all0 = std::max<index_t>(0, jl + std::max(rb.lo, cb.lo));
  const index_t all1 = std::min(m, j0 + std::min(rb.hi, cb.hi));
  if (all0 >= all1) {
    sum_edge(c, ld, any0, any1, j0, W, rb, cb, y, s);
    return;
  }
  sum_edge(c, ld, any0, all0, j0, W, rb, cb, y, s);
  // The two sums of the hot rows are separate passes over columns still
  // in cache; neither pass changes the other's order.
  if (s != nullptr) {
    constexpr int kChains = W < 4 ? W : 4;
    for (int k = 0; k < W; k += kChains) add_cols<kChains>(c + k * ld, ld, all0, all1, s + k);
  }
  if (y != nullptr) add_rows<W>(c, ld, all0, all1, y);
  sum_edge(c, ld, all1, any1, j0, W, rb, cb, y, s);
}

}  // namespace

void sum_lines(MatrixView<const double> a, LineShape shape, VectorView<double> row,
               VectorView<double> col) {
  const index_t m = a.rows();
  const index_t n = a.cols();
  FTH_CHECK(row.empty() || (row.size() == m && row.inc() == 1),
            "sum_lines: row sums must be unit-stride and as long as a column");
  FTH_CHECK(col.empty() || col.size() == n, "sum_lines: column sums must be as long as a row");
  FTH_CHECK(!shape.symmetric || (m == n && col.empty() && (n == 0 || !row.empty())),
            "sum_lines: the symmetric shape takes a square block and row sums only");
  const bool rows = !row.empty();
  const bool cols = !col.empty() || shape.symmetric;
  // Outside the symmetric shape both sums read the same elements; there
  // the column sums stop short of the diagonal.
  const Band rb{shape.lo, shape.hi};
  const Band cb = shape.symmetric ? Band{shape.lo + 1, shape.hi} : rb;

  double* y = rows ? row.data() : nullptr;
  double* out = col.empty() ? nullptr : col.data();
  const double* ad = a.data();
  const index_t ld = a.ld();

  std::uint64_t adds = 0;
  for (index_t j0 = 0; j0 < n;) {
    const index_t left = n - j0;
    const index_t w = left >= 8 ? 8 : left >= 4 ? 4 : left >= 2 ? 2 : 1;
    double s[8] = {};
    double* chains = cols ? s : nullptr;
    const double* c = ad + j0 * ld;
    switch (w) {
      case 8: sum_block<8>(c, ld, m, j0, rb, cb, y, chains); break;
      case 4: sum_block<4>(c, ld, m, j0, rb, cb, y, chains); break;
      case 2: sum_block<2>(c, ld, m, j0, rb, cb, y, chains); break;
      default: sum_block<1>(c, ld, m, j0, rb, cb, y, chains); break;
    }
    for (index_t k = 0; k < w; ++k) {
      const index_t j = j0 + k;
      if (rows) adds += static_cast<std::uint64_t>(rb.length(j, m));
      if (cols) adds += static_cast<std::uint64_t>(cb.length(j, m));
      if (out != nullptr) out[j * col.inc()] = s[k];
      // symv(Lower, ones): the column below the diagonal joins its row
      // once the row itself is complete.
      if (shape.symmetric) {
        y[j] += s[k];
        ++adds;
      }
    }
    j0 += w;
  }
  flops::add(adds);
}

void fresh_line_sums(MatrixView<const double> a, LineShape shape, VectorView<double> row,
                     VectorView<double> col) {
  for (index_t r = 0; r < row.size(); ++r) row[r] = 0.0;
  sum_lines(a, shape, row, col);
}

void sum_lines_async(hybrid::Stream& s, DMatrixView<const double> a, LineShape shape,
                     DVectorView<double> row, DVectorView<double> col) {
  s.enqueue("dev.sum_lines", FTH_TASK_EFFECTS(FTH_READS(a) FTH_WRITES(row, col)), [=] {
    obs::TraceSpan span("dev_blas", "sum_lines");
    fresh_line_sums(a.in_task(), shape, row.empty() ? VectorView<double>() : row.in_task(),
                    col.empty() ? VectorView<double>() : col.in_task());
  });
}

namespace {

/// The packed sums' layout for a panel of width ib over tn trailing rows.
struct Packed {
  index_t ib;
  index_t tn;
  Packed(VectorView<const double> sums, index_t ib_, index_t tn_) : ib(ib_), tn(tn_) {
    FTH_CHECK(sums.size() == 4 * ib + 2 * tn, "code sums: packed length mismatch");
  }
  [[nodiscard]] index_t operand(index_t k) const { return k * ib; }
  [[nodiscard]] index_t panel(index_t k) const { return 4 * ib + k * tn; }
};

}  // namespace

void sytrd_encode_codes(MatrixView<const double> a, VectorView<const double> omega,
                        VectorView<double> plain, VectorView<double> weighted) {
  fresh_line_sums(a, LineShape::symmetric_lower(), plain, {});
  blas::symv(Uplo::Lower, 1.0, a, omega, 0.0, weighted);
}

void sytrd_operand_sums(MatrixView<const double> v2, MatrixView<const double> w2,
                        VectorView<const double> omega_tail, VectorView<double> sums) {
  const Packed p(sums, v2.cols(), v2.rows());
  sum_lines(v2, LineShape::full(), {}, sums.sub(p.operand(0), p.ib));
  sum_lines(w2, LineShape::full(), {}, sums.sub(p.operand(1), p.ib));
  blas::gemv(Trans::Yes, 1.0, v2, omega_tail, 0.0, sums.sub(p.operand(2), p.ib));
  blas::gemv(Trans::Yes, 1.0, w2, omega_tail, 0.0, sums.sub(p.operand(3), p.ib));
}

void sytrd_panel_sums(MatrixView<const double> panel, VectorView<const double> omega_panel,
                      VectorView<double> sums) {
  const Packed p(sums, panel.cols(), panel.rows());
  fresh_line_sums(panel, LineShape::full(), sums.sub(p.panel(0), p.tn), {});
  blas::gemv(Trans::No, 1.0, panel, omega_panel, 0.0, sums.sub(p.panel(1), p.tn));
}

void sytrd_code_update(MatrixView<const double> v2, MatrixView<const double> w2,
                       VectorView<const double> sums, VectorView<double> plain,
                       VectorView<double> weighted) {
  const Packed p(sums, v2.cols(), v2.rows());
  blas::axpy(-1.0, sums.sub(p.panel(0), p.tn), plain);
  blas::gemv(Trans::No, -1.0, v2, sums.sub(p.operand(1), p.ib), 1.0, plain);
  blas::gemv(Trans::No, -1.0, w2, sums.sub(p.operand(0), p.ib), 1.0, plain);
  blas::axpy(-1.0, sums.sub(p.panel(1), p.tn), weighted);
  blas::gemv(Trans::No, -1.0, v2, sums.sub(p.operand(3), p.ib), 1.0, weighted);
  blas::gemv(Trans::No, -1.0, w2, sums.sub(p.operand(2), p.ib), 1.0, weighted);
}

void gebrd_operand_sums(MatrixView<const double> y2, MatrixView<const double> u2,
                        MatrixView<const double> v2, MatrixView<const double> x2,
                        VectorView<double> sums) {
  const Packed p(sums, v2.cols(), v2.rows());
  const LineShape full = LineShape::full();
  sum_lines(y2, full, {}, sums.sub(p.operand(0), p.ib));
  fresh_line_sums(u2, full, sums.sub(p.operand(1), p.ib), {});
  sum_lines(v2, full, {}, sums.sub(p.operand(2), p.ib));
  sum_lines(x2, full, {}, sums.sub(p.operand(3), p.ib));
}

void gebrd_panel_sums(MatrixView<const double> col_panel, MatrixView<const double> row_panel,
                      VectorView<double> sums) {
  const Packed p(sums, col_panel.cols(), col_panel.rows());
  fresh_line_sums(col_panel, LineShape::full(), sums.sub(p.panel(0), p.tn), {});
  sum_lines(row_panel, LineShape::full(), {}, sums.sub(p.panel(1), p.tn));
}

void gebrd_code_update(MatrixView<const double> v2, MatrixView<const double> y2,
                       MatrixView<const double> x2, MatrixView<const double> u2,
                       VectorView<const double> sums, VectorView<double> row_code,
                       VectorView<double> col_code) {
  const Packed p(sums, v2.cols(), v2.rows());
  blas::axpy(-1.0, sums.sub(p.panel(0), p.tn), row_code);
  blas::gemv(Trans::No, -1.0, v2, sums.sub(p.operand(0), p.ib), 1.0, row_code);
  blas::gemv(Trans::No, -1.0, x2, sums.sub(p.operand(1), p.ib), 1.0, row_code);
  blas::axpy(-1.0, sums.sub(p.panel(1), p.tn), col_code);
  blas::gemv(Trans::No, -1.0, y2, sums.sub(p.operand(2), p.ib), 1.0, col_code);
  blas::gemv(Trans::Yes, -1.0, u2, sums.sub(p.operand(3), p.ib), 1.0, col_code);
}

FreshSums finished_sums(MatrixView<const double> host_a, index_t i) {
  const index_t n = host_a.rows();
  FTH_CHECK(host_a.cols() == n, "finished_sums: host matrix must be square");
  FTH_CHECK(i >= 0 && i <= n, "finished_sums: panel start out of range");
  FreshSums out;
  out.row.assign(static_cast<std::size_t>(n), 0.0);
  out.col.assign(static_cast<std::size_t>(n), 0.0);
  // Finished columns: upper-Hessenberg entries only, rows 0..c+1 of column c.
  sum_lines(host_a.block(0, 0, n, i), LineShape::before_row(2),
            VectorView<double>(out.row.data(), n), VectorView<double>(out.col.data(), i));
  return out;
}

void add_trailing_sums(MatrixView<const double> ext, index_t i, FreshSums& sums) {
  const auto n = static_cast<index_t>(sums.row.size());
  FTH_CHECK(ext.rows() >= n && ext.cols() >= n && i >= 0 && i <= n,
            "add_trailing_sums: extended matrix too small or panel start out of range");
  // Trailing columns: full height.
  sum_lines(ext.block(0, i, n, n - i), LineShape::full(),
            VectorView<double>(sums.row.data(), n),
            VectorView<double>(sums.col.data() + i, n - i));
}

Discrepancy compare_checksums(const FreshSums& fresh, const std::vector<double>& row_code,
                              const std::vector<double>& col_code, double tol) {
  FTH_CHECK(fresh.row.size() == row_code.size() && fresh.col.size() == col_code.size(),
            "compare_checksums: sum length mismatch");
  Discrepancy d;
  // Negated comparisons so a NaN delta (fresh or maintained sum poisoned by
  // a non-finite element) is *flagged* rather than silently passing: for
  // NaN, `abs(delta) > tol` is false but `!(abs(delta) <= tol)` is true.
  const auto scan = [&](const std::vector<double>& sums, const std::vector<double>& code,
                        std::vector<index_t>& lines, std::vector<double>& deltas) {
    for (std::size_t k = 0; k < sums.size(); ++k) {
      const double delta = sums[k] - code[k];
      if (!(std::abs(delta) <= tol)) {
        lines.push_back(static_cast<index_t>(k));
        deltas.push_back(delta);
        d.nonfinite += std::isfinite(delta) ? 0 : 1;
      }
    }
  };
  scan(fresh.row, row_code, d.rows, d.row_delta);
  scan(fresh.col, col_code, d.cols, d.col_delta);
  return d;
}

double detection_gap(MatrixView<const double> ext) {
  const index_t n = ext.rows() - 1;
  double sre = 0.0;
  for (index_t r = 0; r < n; ++r) sre += ext(r, n);
  double sce = 0.0;
  for (index_t c = 0; c < n; ++c) sce += ext(n, c);
  return std::abs(sre - sce);
}

index_t count_nonfinite(MatrixView<const double> x) {
  index_t count = 0;
  for (index_t j = 0; j < x.cols(); ++j) {
    const double* col = x.data() + j * x.ld();
    std::uint64_t in_col = 0;
    for (index_t i = 0; i < x.rows(); ++i)
      in_col += (std::bit_cast<std::uint64_t>(col[i]) >> 52 & 0x7ff) == 0x7ff;
    count += static_cast<index_t>(in_col);
  }
  return count;
}

double default_threshold(double fro_norm, index_t n, double factor) {
  const double eps = std::numeric_limits<double>::epsilon();
  return factor * eps * static_cast<double>(std::max<index_t>(n, 1)) *
         std::max(fro_norm, 1.0);
}

FroMax<double> finite_input_norms(MatrixView<const double> a, const char* who) {
  const FroMax<double> norms = norm_fro_max(a);
  FTH_CHECK(!std::isnan(norms.fro) && !std::isinf(norms.max),
            std::string(who) + ": the input matrix holds a NaN or an Inf");
  return norms;
}

}  // namespace fth::ft
