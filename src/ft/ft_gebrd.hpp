// Fault-tolerant hybrid bidiagonal reduction.
//
// The third member of the two-sided family the paper's conclusion targets.
// The general (non-symmetric) trailing update A −= V·Yᵀ + X·Uᵀ is covered
// by BOTH checksum vectors of the Hessenberg scheme — a maintained
// checksum column (row sums) and checksum row (column sums) — carried
// through the two trailing GEMMs by the same column-sum algebra, with the
// finished panel row/column segments re-encoded from the final bidiagonal
// data each iteration (their pre-images are checkpointed).
//
// Detection compares both maintained vectors against freshly recomputed
// logical sums once per iteration: one ft::sum_lines pass over the
// trailing block takes its row and column sums together, read back with
// both codes under one drain. Because a general-matrix error is
// asymmetric, the mismatched row and column identify it directly and the
// location/correction logic of ft::locate is reused verbatim.
//
// Both Householder families are write-once host data and get Section IV-E
// style protection: the left (Q) vectors through a QProtector with the
// QR-geometry offset, the right (P) vectors through a row-stored
// QProtector (QProtector::Storage::Rows) over the finished rows in place.
#pragma once

#include "fault/injector.hpp"
#include "ft/ft_gehrd.hpp"  // FtReport / FtEvent / LocatedError
#include "hybrid/hybrid_gehrd.hpp"

namespace fth::ft {

struct FtGebrdOptions {
  index_t nb = 32;
  double threshold = 0.0;  ///< per-line detection tolerance; 0 → scaled default
  bool final_sweep = true;
  int max_retries = 3;
  index_t detect_every = 1;  ///< same amortization knob as ft_sytrd
  /// Optional in-flight fault plane (see FtOptions::fault_plane).
  fault::FaultPlane* fault_plane = nullptr;
};

/// Reduce the square matrix `a` to upper bidiagonal form with
/// transient-error resilience. Output contract of lapack::gebrd.
void ft_gebrd(hybrid::Device& dev, MatrixView<double> a, VectorView<double> d,
              VectorView<double> e, VectorView<double> tauq, VectorView<double> taup,
              const FtGebrdOptions& opt = {}, fault::Injector* injector = nullptr,
              FtReport* report = nullptr, hybrid::HybridGehrdStats* stats = nullptr);

}  // namespace fth::ft
