// Column-sharded trailing matrix with a coded redundancy group.
//
// The trailing update of the Hessenberg reduction is column-parallel, so
// the pool driver (ft/pool_gehrd.*) splits the trailing columns round-robin
// over the data members of a DevicePool and keeps one extra member as a
// parity device. Every shard is stored in a uniform (n+1) × w_max buffer:
//
//   * data shard d, local column l  ↦  global column c = l·Ddata + d
//     (zero-filled when c ≥ n, so all shards have identical geometry);
//   * row n of every shard is a per-column sum code row (the column sums
//     of rows 0..n-1), the same maintained-checksum idea as ft_gehrd's
//     checksum row but per shard — it is what the per-device poison
//     detection verifies;
//   * the parity shard is the elementwise sum of the data shards.
//
// Because both block updates of the reduction are linear and are applied
// in lockstep over the same local column domain on every member (see
// DESIGN.md §13), the parity stays the exact elementwise sum throughout
// the factorization (up to floating-point reassociation, which is why
// detection is tolerance-based). A device declared lost is then
// reconstructible on the host as   lost = parity − Σ survivors,   valid at
// whatever boundary the survivors are consistent at. Two losses in one
// group exceed the code's correction radius; RedundancyGroup makes that
// escalation decision explicit so the driver cannot silently return
// garbage.
#pragma once

#include <vector>

#include "common/types.hpp"
#include "la/matrix.hpp"

namespace fth::ft {

/// Geometry of the round-robin column sharding. Rows are always n+1: the
/// n data rows plus the code row.
struct ShardLayout {
  index_t n = 0;       ///< global matrix dimension (columns 0..n-1)
  int data_shards = 1; ///< Ddata ≥ 1
  index_t w_max = 0;   ///< local columns per shard buffer, ceil(n / Ddata)

  [[nodiscard]] index_t rows() const noexcept { return n + 1; }
  [[nodiscard]] int slot_of(index_t c) const noexcept {
    return static_cast<int>(c % data_shards);
  }
  [[nodiscard]] index_t local_of(index_t c) const noexcept { return c / data_shards; }
  [[nodiscard]] index_t global_of(int slot, index_t l) const noexcept {
    return l * data_shards + slot;
  }
  /// Number of valid (non-padding) local columns of `slot`.
  [[nodiscard]] index_t owned_cols(int slot) const noexcept {
    const index_t c0 = static_cast<index_t>(slot);
    if (c0 >= n) return 0;
    return (n - 1 - c0) / data_shards + 1;
  }
  /// First local column whose global column is ≥ `c` in SOME slot — the
  /// lockstep update domain for an iteration whose trailing block starts
  /// at global column `c` is local columns [domain_start(c), w_max).
  [[nodiscard]] index_t domain_start(index_t c) const noexcept {
    index_t s = w_max;
    for (int d = 0; d < data_shards; ++d) {
      // first l with l·Ddata + d ≥ c
      const index_t l = (c > d) ? (c - d + data_shards - 1) / data_shards : 0;
      if (l < s) s = l;
    }
    return s;
  }
};

[[nodiscard]] ShardLayout make_shard_layout(index_t n, int data_shards);

/// Scatter `a` (n×n) into Ddata coded shards, each (n+1)×w_max with the
/// code row filled. Out-of-range columns are zero (zero columns satisfy
/// the code trivially and stay zero under the lockstep updates).
void scatter_shards(MatrixView<const double> a, const ShardLayout& lay,
                    std::vector<Matrix<double>>& shards);

/// parity = elementwise Σ shards ((n+1)×w_max).
void encode_parity(const ShardLayout& lay, const std::vector<Matrix<double>>& shards,
                   Matrix<double>& parity);

/// Reconstruct the shard at `lost_slot`:  out = parity − Σ survivors.
/// `shards[lost_slot]` is ignored (may hold garbage — that is the point).
void reconstruct_shard(const ShardLayout& lay, const std::vector<Matrix<double>>& shards,
                       MatrixView<const double> parity, int lost_slot,
                       Matrix<double>& out);

/// Max |code-row entry − column sum| over the first `cols` local columns
/// (all w_max when cols < 0); infinite when any of them holds a non-finite
/// element. The per-device poison detector.
[[nodiscard]] double code_row_gap(MatrixView<const double> shard, index_t cols = -1);

/// Gather the data rows of the shards back into `a` for columns
/// [first_col, n). Padding columns and the code row are skipped.
void gather_shards(const ShardLayout& lay, const std::vector<Matrix<double>>& shards,
                   MatrixView<double> a, index_t first_col);

/// Loss accounting for one redundancy group (Ddata data shards + 1
/// parity). declare_lost() returns true while the code can still
/// reconstruct (first loss); false once the group is degraded — the caller
/// must escalate through abort_recovery instead of reconstructing.
class RedundancyGroup {
 public:
  explicit RedundancyGroup(int data_shards) : data_shards_(data_shards) {}

  /// `slot` ∈ [0, Ddata] — Ddata denotes the parity shard.
  [[nodiscard]] bool declare_lost(int slot) {
    for (const int s : lost_)
      if (s == slot) return !degraded();  // re-detecting the same loss is not a second loss
    lost_.push_back(slot);
    return lost_.size() <= 1;
  }

  [[nodiscard]] bool degraded() const noexcept { return !lost_.empty(); }
  [[nodiscard]] int losses() const noexcept { return static_cast<int>(lost_.size()); }
  [[nodiscard]] int parity_slot() const noexcept { return data_shards_; }

 private:
  int data_shards_;
  std::vector<int> lost_;
};

}  // namespace fth::ft
