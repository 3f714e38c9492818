// Hybrid (host+device) blocked Hessenberg reduction — Algorithm 2 of the
// paper, the MAGMA-style baseline the fault-tolerant algorithm builds on.
//
// Work split, as in MAGMA:
//  * panel factorization on the host (CPU),
//  * the large per-column products Y(:,j) = A_trail·v as device kernels,
//  * trailing-matrix right/left block updates as device GEMMs,
//  * finalized panel columns transferred back asynchronously, overlapped
//    with the device updates.
// On completion the host matrix holds the LAPACK-layout factored result.
#pragma once

#include "la/matrix.hpp"
#include "hybrid/device.hpp"
#include "obs/trace.hpp"

namespace fth::hybrid {

struct HybridGehrdOptions {
  index_t nb = 32;   ///< panel width
  index_t nx = 128;  ///< crossover to the host unblocked finish
};

/// State handed to an iteration-boundary hook. The stream is synchronized
/// when the hook runs, so both views may be touched directly. Used by the
/// fault-injection studies (Fig. 2) to corrupt elements mid-factorization.
struct IterationHookContext {
  index_t boundary = 0;       ///< number of panels completed so far
  index_t next_panel = 0;     ///< start column of the next panel (== n when done)
  index_t nb = 0;             ///< panel width in use
  MatrixView<double> host_a;  ///< host matrix (finished columns + stale trailing)
  MatrixView<double> dev_a;   ///< device matrix (live trailing data)
};

/// Called between iterations (after each panel's updates complete, before
/// the next panel transfer), and once more after the final boundary.
using IterationHook = std::function<void(const IterationHookContext&)>;

/// Wall-clock decomposition of one run (for the overhead studies), plus
/// the run's transfer/memory/overlap footprint pulled up from the Device
/// and Stream so callers need not reach into device internals. Each
/// seconds field is booked by its phase's obs::TimedSpan (DESIGN.md §8).
/// In the hybrid drivers panel + update + finish tile the run, apart from
/// the matrix upload and the workspace set-up and tear-down.
struct HybridGehrdStats {
  double total_seconds = 0.0;   ///< the whole run (its RunFrame)
  double panel_seconds = 0.0;   ///< loop top to panel done: the panel fetch, which
                                ///< waits for the previous update (FT: inside the
                                ///< checkpoint save), then the host panel with its
                                ///< device-product waits
  double update_seconds = 0.0;  ///< enqueuing the trailing updates and the host
                                ///< work that overlaps them (host-observed)
  double finish_seconds = 0.0;  ///< host unblocked tail (hybrid drivers: from the
                                ///< tail fetch on)
  index_t panels = 0;
  std::uint64_t h2d_bytes = 0;
  std::uint64_t d2h_bytes = 0;
  std::uint64_t h2d_count = 0;         ///< number of H2D transfers in this run
  std::uint64_t d2h_count = 0;         ///< number of D2H transfers in this run
  std::size_t dev_peak_bytes = 0;      ///< peak device-memory footprint (lifetime of `dev`)
  std::uint64_t peak_queue_depth = 0;  ///< deepest stream backlog during the run
};

/// The frame every hybrid and FT driver runs in. It resets the caller's
/// stats (or local ones), opens the run's span, which books total_seconds
/// when it closes, and snapshots the device counters; on close it writes
/// the run's transfer deltas and peaks into the stats.
class RunFrame {
 public:
  RunFrame(Device& dev, const char* cat, const char* name, index_t n, HybridGehrdStats* stats);
  ~RunFrame();
  RunFrame(const RunFrame&) = delete;
  RunFrame& operator=(const RunFrame&) = delete;

  [[nodiscard]] HybridGehrdStats& st() { return st_; }

 private:
  HybridGehrdStats local_;
  HybridGehrdStats& st_;
  Device& dev_;
  std::uint64_t h2d_bytes0_, d2h_bytes0_, h2d_count0_, d2h_count0_;
  obs::TimedSpan span_;
};

/// Reduce `a` (host memory) to Hessenberg form using `dev`. Drop-in
/// equivalent of lapack::gehrd up to floating-point reassociation.
void hybrid_gehrd(Device& dev, MatrixView<double> a, VectorView<double> tau,
                  const HybridGehrdOptions& opt = {}, HybridGehrdStats* stats = nullptr,
                  const IterationHook& hook = {});

}  // namespace fth::hybrid
