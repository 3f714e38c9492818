#include "ft/checksum.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include "common/error.hpp"
#include "common/types.hpp"

namespace fth::ft {

Matrix<double> encode_extended(MatrixView<const double> a) {
  const index_t n = a.rows();
  FTH_CHECK(a.cols() == n, "encode_extended: matrix must be square");
  Matrix<double> ext(n + 1, n + 1);
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < n; ++i) ext(i, j) = a(i, j);
  // Checksum column: row sums.
  for (index_t i = 0; i < n; ++i) {
    double s = 0.0;
    for (index_t j = 0; j < n; ++j) s += a(i, j);
    ext(i, n) = s;
  }
  // Checksum row: column sums; corner: grand total.
  double total = 0.0;
  for (index_t j = 0; j < n; ++j) {
    double s = 0.0;
    for (index_t i = 0; i < n; ++i) s += a(i, j);
    ext(n, j) = s;
    total += s;
  }
  ext(n, n) = total;
  return ext;
}

FreshSums finished_sums(MatrixView<const double> host_a, index_t i) {
  const index_t n = host_a.rows();
  FTH_CHECK(host_a.cols() == n, "finished_sums: host matrix must be square");
  FTH_CHECK(i >= 0 && i <= n, "finished_sums: panel start out of range");
  FreshSums out;
  out.row.assign(static_cast<std::size_t>(n), 0.0);
  out.col.assign(static_cast<std::size_t>(n), 0.0);
  // Finished columns: upper-Hessenberg entries only.
  for (index_t c = 0; c < i; ++c) {
    const index_t last = std::min(c + 1, n - 1);
    double cs = 0.0;
    for (index_t r = 0; r <= last; ++r) {
      const double v = host_a(r, c);
      out.row[static_cast<std::size_t>(r)] += v;
      cs += v;
    }
    out.col[static_cast<std::size_t>(c)] = cs;
  }
  return out;
}

void add_trailing_sums(MatrixView<const double> ext, index_t i, FreshSums& sums) {
  const auto n = static_cast<index_t>(sums.row.size());
  FTH_CHECK(ext.rows() >= n && ext.cols() >= n && i >= 0 && i <= n,
            "add_trailing_sums: extended matrix too small or panel start out of range");
  // Trailing columns: full height.
  for (index_t c = i; c < n; ++c) {
    double cs = 0.0;
    for (index_t r = 0; r < n; ++r) {
      const double v = ext(r, c);
      sums.row[static_cast<std::size_t>(r)] += v;
      cs += v;
    }
    sums.col[static_cast<std::size_t>(c)] = cs;
  }
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

}  // namespace fth::ft
