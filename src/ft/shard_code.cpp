#include "ft/shard_code.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "ft/checksum.hpp"

namespace fth::ft {

ShardLayout make_shard_layout(index_t n, int data_shards) {
  FTH_CHECK(n >= 0, "shard layout dimension must be non-negative");
  FTH_CHECK(data_shards >= 1, "a shard layout needs at least one data shard");
  ShardLayout lay;
  lay.n = n;
  lay.data_shards = data_shards;
  lay.w_max = (n + data_shards - 1) / data_shards;
  return lay;
}

void scatter_shards(MatrixView<const double> a, const ShardLayout& lay,
                    std::vector<Matrix<double>>& shards) {
  FTH_CHECK(a.rows() == lay.n && a.cols() == lay.n, "scatter_shards: matrix/layout mismatch");
  shards.clear();
  shards.reserve(static_cast<std::size_t>(lay.data_shards));
  for (int d = 0; d < lay.data_shards; ++d) {
    Matrix<double>& sh = shards.emplace_back(lay.rows(), lay.w_max);
    sh.fill(0.0);
    MatrixView<double> v = sh.view();
    const index_t owned = lay.owned_cols(d);
    for (index_t l = 0; l < owned; ++l) {
      const index_t c = lay.global_of(d, l);
      for (index_t r = 0; r < lay.n; ++r) v(r, l) = a(r, c);
    }
    sum_lines(MatrixView<const double>(v.block(0, 0, lay.n, owned)), LineShape::full(), {},
              v.row(lay.n).sub(0, owned));
  }
}

void encode_parity(const ShardLayout& lay, const std::vector<Matrix<double>>& shards,
                   Matrix<double>& parity) {
  FTH_CHECK(static_cast<int>(shards.size()) == lay.data_shards,
            "encode_parity: shard count mismatch");
  parity = Matrix<double>(lay.rows(), lay.w_max);
  parity.fill(0.0);
  MatrixView<double> p = parity.view();
  for (const Matrix<double>& sh : shards) {
    MatrixView<const double> s = sh.cview();
    for (index_t l = 0; l < lay.w_max; ++l)
      for (index_t r = 0; r < lay.rows(); ++r) p(r, l) += s(r, l);
  }
}

void reconstruct_shard(const ShardLayout& lay, const std::vector<Matrix<double>>& shards,
                       MatrixView<const double> parity, int lost_slot,
                       Matrix<double>& out) {
  FTH_CHECK(lost_slot >= 0 && lost_slot < lay.data_shards,
            "reconstruct_shard: lost slot out of range");
  FTH_CHECK(parity.rows() == lay.rows() && parity.cols() == lay.w_max,
            "reconstruct_shard: parity geometry mismatch");
  out = Matrix<double>(lay.rows(), lay.w_max);
  MatrixView<double> o = out.view();
  fth::copy(parity, o);
  for (int d = 0; d < lay.data_shards; ++d) {
    if (d == lost_slot) continue;
    MatrixView<const double> s = shards[static_cast<std::size_t>(d)].cview();
    for (index_t l = 0; l < lay.w_max; ++l)
      for (index_t r = 0; r < lay.rows(); ++r) o(r, l) -= s(r, l);
  }
}

double code_row_gap(MatrixView<const double> shard, index_t cols) {
  const index_t n = shard.rows() - 1;
  const index_t w = cols < 0 ? shard.cols() : std::min(cols, shard.cols());
  double gap = 0.0;
  for (index_t l = 0; l < w; ++l) {
    // A non-finite element leaves its column sum, and so its gap, non-finite.
    double sum = 0.0;
    sum_lines(shard.block(0, l, n, 1), LineShape::full(), {}, VectorView<double>(&sum, 1));
    const double g = std::abs(shard(n, l) - sum);
    if (!(g <= gap)) gap = std::isfinite(g) ? g : std::numeric_limits<double>::infinity();
  }
  return gap;
}

void gather_shards(const ShardLayout& lay, const std::vector<Matrix<double>>& shards,
                   MatrixView<double> a, index_t first_col) {
  FTH_CHECK(a.rows() == lay.n && a.cols() == lay.n, "gather_shards: matrix/layout mismatch");
  for (index_t c = first_col; c < lay.n; ++c) {
    MatrixView<const double> s = shards[static_cast<std::size_t>(lay.slot_of(c))].cview();
    const index_t l = lay.local_of(c);
    for (index_t r = 0; r < lay.n; ++r) a(r, c) = s(r, l);
  }
}

}  // namespace fth::ft
