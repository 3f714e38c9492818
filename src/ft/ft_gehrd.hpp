// Fault-tolerant hybrid Hessenberg reduction — Algorithm 3 of the paper.
//
// Extends the hybrid reduction with:
//  * ABFT encoding of the device matrix (one checksum column + row),
//  * checksum-preserving extended right/left block updates (Theorem 1),
//  * per-iteration detection by comparing the two checksum grand totals,
//  * bitwise reverse computation of the last block updates on detection,
//  * a diskless checkpoint of the panel, restored before re-execution,
//  * location by fresh-vs-maintained checksum comparison and in-place
//    correction (multiple simultaneous errors allowed when their positions
//    do not form a rectangle),
//  * separate host-side checksums for the write-once Householder vectors
//    (the Q factor), generated on the otherwise idle CPU while the device
//    updates the trailing matrix and verified once at the end.
#pragma once

#include <string>
#include <vector>

#include "fault/injector.hpp"
#include "ft/locate.hpp"
#include "ft/recovery.hpp"
#include "hybrid/hybrid_gehrd.hpp"

namespace fth::fault {
class FaultPlane;
}

namespace fth::ft {

struct FtOptions {
  index_t nb = 32;  ///< panel width; also the host-tail crossover nx = nb (ft_blocked_panel)
  /// Detection threshold for |Sre − Sce|; 0 selects
  /// threshold_factor·eps·n·‖A‖_F (see default_threshold()).
  double threshold = 0.0;
  double threshold_factor = 500.0;
  /// Location tolerance for per-row/column fresh-vs-maintained comparison;
  /// 0 selects a scaled default.
  double locate_tol = 0.0;
  bool protect_q = true;   ///< maintain + verify the Q checksums
  bool final_sweep = true; ///< full checksum verification after the last iteration
  int max_retries = 3;     ///< re-executions of a single iteration before giving up
  /// Optional in-flight fault plane: the driver binds it to the device,
  /// registers its protected surfaces, and brackets recovery re-execution
  /// so armed faults can strike mid-update / mid-transfer / mid-recovery.
  fault::FaultPlane* fault_plane = nullptr;
};

/// One detection + recovery episode.
struct FtEvent {
  index_t boundary = 0;  ///< iteration (1-based) whose end-of-iteration check fired
  double gap = 0.0;      ///< |Sre − Sce| observed
  int data_corrections = 0;
  int checksum_corrections = 0;
  int reconstructions = 0;       ///< non-finite elements re-derived from the codes
  bool checkpoint_only = false;  ///< rollback+restore sufficed (error was in the panel copy)
  bool panel_poisoned = false;   ///< the panel tripwire aborted mid-factorization
  std::vector<LocatedError> errors;
};

struct FtReport {
  int detections = 0;
  int rollbacks = 0;
  int data_corrections = 0;
  int checksum_corrections = 0;
  int q_corrections = 0;
  int reconstructions = 0;      ///< non-finite elements re-derived from the codes
  int ckpt_rederivations = 0;   ///< corrupt checkpoints rebuilt from the device pre-image
  int panel_aborts = 0;         ///< panel factorizations aborted by the non-finite tripwire
  bool final_sweep_ran = false;
  int final_sweep_corrections = 0;
  double threshold = 0.0;
  double max_fault_free_gap = 0.0;  ///< largest |Sre−Sce| seen on clean iterations
  // Host-observed time in the resilience machinery:
  double encode_seconds = 0.0;
  double checksum_update_seconds = 0.0;  ///< Vce/Yce construction (device)
  double detect_seconds = 0.0;
  double recovery_seconds = 0.0;  ///< rollback + locate + correct + redo
  double q_seconds = 0.0;
  std::vector<FtEvent> events;
  /// How the run ended. Clean/Recovered on normal return; Unrecoverable is
  /// filled in before the structured recovery_error is thrown, so a caller
  /// catching the throw still gets the full context here.
  RecoveryOutcome outcome;
};

/// Reduce `a` to Hessenberg form with transient-error resilience.
///
/// Same contract as hybrid::hybrid_gehrd (LAPACK-layout output in `a`,
/// scalars in `tau`); `injector` optionally plants soft errors at iteration
/// boundaries; `report`/`stats` receive resilience and performance
/// telemetry. Throws fth::recovery_error if an error pattern exceeds the
/// code's correction capability after max_retries attempts.
void ft_gehrd(hybrid::Device& dev, MatrixView<double> a, VectorView<double> tau,
              const FtOptions& opt = {}, fault::Injector* injector = nullptr,
              FtReport* report = nullptr, hybrid::HybridGehrdStats* stats = nullptr);

/// True when ft_gehrd, ft_sytrd and ft_gebrd run the panel starting at
/// column `i` as a blocked, ABFT-protected device iteration. The loops stop
/// where the hybrid drivers do at nx = nb, and the unblocked routine
/// reduces the remaining n − i ≤ nb + 1 columns on the host; at
/// n ≤ nb + 1 no device iteration runs at all. Every loop over the FT
/// boundaries and ft_total_boundaries() test this one predicate.
constexpr bool ft_blocked_panel(index_t n, index_t i, index_t nb) { return n - i > nb + 1; }

/// Number of blocked panel iterations ft_gehrd, ft_sytrd and ft_gebrd
/// execute for size n, block nb (needed to aim Moment-based fault specs).
index_t ft_total_boundaries(index_t n, index_t nb);

}  // namespace fth::ft
