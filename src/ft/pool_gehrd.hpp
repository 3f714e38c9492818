// Multi-device Hessenberg reduction with coded device-loss recovery.
//
// pool_gehrd runs the hybrid blocked reduction (hybrid_gehrd, Algorithm 2)
// with the trailing matrix column-sharded round-robin over the data
// members of a DevicePool plus one parity member holding the elementwise
// sum of the data shards (ft/shard_code.hpp). Every shard additionally
// carries a maintained column-sum code row, so each member's integrity is
// verifiable locally.
//
// Loss protocol (DESIGN.md §13):
//   detect   — every host wait on a device is an Event::wait_for with a
//              timeout (silent stall / hard death), and every iteration
//              boundary verifies each member's code row (poisoned output);
//   contain  — the lost member's stream is killed (DevicePool::mark_lost),
//              which discards its queue but lets Event markers complete so
//              no host wait can hang;
//   repair   — the lost shard is reconstructed on the host as
//              parity − Σ survivors and remapped onto the parity device;
//              the group is then degraded (no parity left). A loss detected
//              during a panel restarts that panel from a host checkpoint; a
//              loss detected at the update boundary needs no retry at all —
//              survivors already carry the iteration's updates.
//   escalate — a second loss (or any loss with D == 1) exceeds the code's
//              correction radius: abort_recovery throws recovery_error with
//              AbortReason::DeviceLost. Never returns garbage.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fault/fault_plane.hpp"
#include "ft/recovery.hpp"
#include "hybrid/pool.hpp"
#include "la/matrix.hpp"
#include "obs/health.hpp"

namespace fth::ft {

struct PoolGehrdOptions {
  /// Panel width; also the host crossover nx = nb of the FT drivers
  /// (ft_blocked_panel): at n ≤ nb + 1 the reduction runs on the host.
  index_t nb = 32;
  /// Detection threshold for the per-shard code-row gap; 0 derives
  /// default_threshold(‖A‖_F, n) like ft_gehrd.
  double threshold = 0.0;
  /// Health-check timeout *ceiling* for every host wait on a device (the
  /// monitor's adaptive allowance only shrinks it). Generous by default: a
  /// false timeout on a slow-but-healthy member would declare a spurious
  /// loss (safe, but burns the redundancy budget). `FTH_POOL_TIMEOUT_MS`
  /// overrides it at run time.
  double timeout_ms = 2000.0;
  /// Share an externally owned monitor (tests, the future service); the
  /// driver owns a private one when null.
  obs::HealthMonitor* health = nullptr;
  /// Optional fault plane; the driver binds it to the pool, registers each
  /// member's shard buffer as the loss surface, and marks encoding done.
  fault::FaultPlane* plane = nullptr;
};

struct PoolGehrdReport {
  RecoveryOutcome outcome;   ///< Clean / Recovered / (throw on Unrecoverable)
  int devices = 0;           ///< pool size the run started with
  int data_shards = 0;       ///< Ddata (devices − 1, or 1 when devices == 1)
  int losses = 0;            ///< device losses detected
  int reconstructions = 0;   ///< shards rebuilt from parity + survivors
  int remaps = 0;            ///< shards remapped onto the parity device
  int panel_retries = 0;     ///< iterations restarted from the panel checkpoint
  bool degraded = false;     ///< finished without a live parity member
  int lost_device = -1;      ///< ordinal of the (first) lost member
  std::uint64_t run_id = 0;  ///< journal run id this run was stamped with
  /// Incident capsule paths written during the run (empty unless capsule
  /// emission is armed, obs/incident.hpp).
  std::vector<std::string> incidents;
  /// Final per-member health snapshots, one per pool ordinal. Always
  /// filled (the driver owns or borrows a monitor for every run); on the
  /// n ≤ nb + 1 host-only path the members simply saw no waits.
  std::vector<obs::DeviceHealthSnapshot> health;
};

/// Reduce `a` (n×n, column-major) to upper Hessenberg form, reflectors
/// stored LAPACK-style below the subdiagonal and in `tau` — same contract
/// as lapack::gehrd / hybrid::hybrid_gehrd. Throws recovery_error with
/// AbortReason::DeviceLost when losses exceed the redundancy group's
/// correction radius.
void pool_gehrd(hybrid::DevicePool& pool, MatrixView<double> a, VectorView<double> tau,
                const PoolGehrdOptions& opt = {}, PoolGehrdReport* rep = nullptr);

}  // namespace fth::ft
