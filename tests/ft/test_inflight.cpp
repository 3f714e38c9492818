// In-flight fault injection through the FaultPlane: strikes mid-task,
// mid-transfer, between the block updates, into checksums and checkpoints,
// and during an ongoing recovery — for all three FT drivers.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "fault/fault_plane.hpp"
#include "fault/injector.hpp"
#include "ft/ft_gebrd.hpp"
#include "ft/ft_gehrd.hpp"
#include "ft/ft_sytrd.hpp"
#include "la/generate.hpp"
#include "la/norms.hpp"

namespace fth::ft {
namespace {

constexpr index_t kN = 96;
constexpr index_t kNb = 32;

struct RunResult {
  Matrix<double> a{0, 0};
  FtReport rep;
};

RunResult run_gehrd(const Matrix<double>& a0, fault::FaultPlane* plane,
                    fault::Injector* inj = nullptr) {
  hybrid::Device dev;
  RunResult r;
  r.a = Matrix<double>(a0.cview());
  const index_t n = a0.rows();
  std::vector<double> tau(static_cast<std::size_t>(n - 1));
  FtOptions o;
  o.nb = kNb;
  o.fault_plane = plane;
  ft_gehrd(dev, r.a.view(), VectorView<double>(tau.data(), n - 1), o, inj, &r.rep);
  return r;
}

RunResult run_sytrd(const Matrix<double>& a0, fault::FaultPlane* plane,
                    fault::Injector* inj = nullptr) {
  hybrid::Device dev;
  RunResult r;
  r.a = Matrix<double>(a0.cview());
  const index_t n = a0.rows();
  std::vector<double> d(static_cast<std::size_t>(n));
  std::vector<double> e(static_cast<std::size_t>(n - 1));
  std::vector<double> tau(static_cast<std::size_t>(n - 1));
  FtSytrdOptions o;
  o.nb = kNb;
  o.fault_plane = plane;
  ft_sytrd(dev, r.a.view(), VectorView<double>(d.data(), n),
           VectorView<double>(e.data(), n - 1), VectorView<double>(tau.data(), n - 1), o, inj,
           &r.rep);
  return r;
}

RunResult run_gebrd(const Matrix<double>& a0, fault::FaultPlane* plane,
                    fault::Injector* inj = nullptr) {
  hybrid::Device dev;
  RunResult r;
  r.a = Matrix<double>(a0.cview());
  const index_t n = a0.rows();
  std::vector<double> d(static_cast<std::size_t>(n));
  std::vector<double> e(static_cast<std::size_t>(n - 1));
  std::vector<double> tauq(static_cast<std::size_t>(n));
  std::vector<double> taup(static_cast<std::size_t>(n - 1));
  FtGebrdOptions o;
  o.nb = kNb;
  o.fault_plane = plane;
  ft_gebrd(dev, r.a.view(), VectorView<double>(d.data(), n),
           VectorView<double>(e.data(), n - 1), VectorView<double>(tauq.data(), n),
           VectorView<double>(taup.data(), n - 1), o, inj, &r.rep);
  return r;
}

using Runner = RunResult (*)(const Matrix<double>&, fault::FaultPlane*, fault::Injector*);

/// Task count of a clean run, for aiming countdowns mid-factorization.
std::uint64_t clean_tasks(Runner run, const Matrix<double>& a0) {
  fault::FaultPlane counter(1);
  (void)run(a0, &counter, nullptr);
  return counter.trigger_counts().tasks;
}

fault::InFlightFault trailing_fault(fault::FaultKind kind, std::uint64_t countdown,
                                    double min_impact = 0.0) {
  fault::InFlightFault f;
  f.when = fault::When::StreamTask;
  f.surface = fault::Surface::TrailingMatrix;
  f.kind = kind;
  f.countdown = countdown;
  f.min_impact = min_impact;
  return f;
}

/// One in-flight fault of the given kind at mid-run; the result must match
/// the clean factorization and the plane must report the strike.
void expect_recovers(Runner run, const Matrix<double>& a0, const fault::InFlightFault& f,
                     const char* what) {
  const RunResult clean = run(a0, nullptr, nullptr);
  fault::FaultPlane plane(0xD15EA5Eull);
  plane.arm(f);
  const RunResult faulty = run(a0, &plane, nullptr);
  EXPECT_TRUE(plane.all_fired()) << what << ": armed fault never struck";
  // Some mechanism must have seen it...
  EXPECT_GE(faulty.rep.detections + faulty.rep.final_sweep_corrections +
                faulty.rep.reconstructions + faulty.rep.ckpt_rederivations,
            1)
      << what;
  // ...and the result must match the fault-free run.
  EXPECT_LT(max_abs_diff(faulty.a.cview(), clean.a.cview()), 1e-8) << what;
  EXPECT_EQ(faulty.rep.outcome.status, RecoveryStatus::Recovered) << what;
}

// ---- gehrd: every fault class --------------------------------------------

TEST(InFlight, GehrdExponentFlipMidRun) {
  Matrix<double> a0 = random_matrix(kN, kN, 301);
  const std::uint64_t tasks = clean_tasks(&run_gehrd, a0);
  expect_recovers(&run_gehrd, a0,
                  trailing_fault(fault::FaultKind::ExponentFlip, tasks / 2, 1.0),
                  "gehrd exponent flip");
}

TEST(InFlight, GehrdSignFlipEarly) {
  Matrix<double> a0 = random_matrix(kN, kN, 302);
  const std::uint64_t tasks = clean_tasks(&run_gehrd, a0);
  expect_recovers(&run_gehrd, a0, trailing_fault(fault::FaultKind::SignFlip, tasks / 5, 1.0),
                  "gehrd sign flip");
}

TEST(InFlight, GehrdQuietNaNMidRun) {
  Matrix<double> a0 = random_matrix(kN, kN, 303);
  const std::uint64_t tasks = clean_tasks(&run_gehrd, a0);
  Matrix<double> clean = run_gehrd(a0, nullptr, nullptr).a;
  fault::FaultPlane plane(0xAB1Eull);
  plane.arm(trailing_fault(fault::FaultKind::QuietNaN, tasks / 2));
  const RunResult faulty = run_gehrd(a0, &plane, nullptr);
  EXPECT_TRUE(plane.all_fired());
  // NaN cannot be rolled back: it must have been reconstructed (or the
  // panel tripwire caught it before it spread).
  EXPECT_GE(faulty.rep.reconstructions + faulty.rep.panel_aborts, 1);
  EXPECT_LT(max_abs_diff(faulty.a.cview(), clean.cview()), 1e-8);
  for (index_t j = 0; j < kN; ++j)
    for (index_t i = 0; i < kN; ++i)
      ASSERT_TRUE(std::isfinite(faulty.a(i, j))) << "NaN survived at " << i << "," << j;
}

TEST(InFlight, GehrdInfinityMidRun) {
  Matrix<double> a0 = random_matrix(kN, kN, 304);
  const std::uint64_t tasks = clean_tasks(&run_gehrd, a0);
  expect_recovers(&run_gehrd, a0, trailing_fault(fault::FaultKind::Infinity, tasks / 3),
                  "gehrd infinity");
}

TEST(InFlight, GehrdChecksumRowStrike) {
  Matrix<double> a0 = random_matrix(kN, kN, 305);
  const std::uint64_t tasks = clean_tasks(&run_gehrd, a0);
  fault::InFlightFault f;
  f.when = fault::When::StreamTask;
  f.surface = fault::Surface::ChecksumRow;
  f.kind = fault::FaultKind::ExponentFlip;
  f.countdown = tasks / 2;
  f.min_impact = 1.0;
  expect_recovers(&run_gehrd, a0, f, "gehrd checksum-row strike");
}

TEST(InFlight, GehrdChecksumColStrike) {
  Matrix<double> a0 = random_matrix(kN, kN, 306);
  const std::uint64_t tasks = clean_tasks(&run_gehrd, a0);
  fault::InFlightFault f;
  f.when = fault::When::StreamTask;
  f.surface = fault::Surface::ChecksumCol;
  f.kind = fault::FaultKind::ExponentFlip;
  f.countdown = tasks / 2;
  f.min_impact = 1.0;
  expect_recovers(&run_gehrd, a0, f, "gehrd checksum-col strike");
}

TEST(InFlight, GehrdBetweenUpdatesStrike) {
  Matrix<double> a0 = random_matrix(kN, kN, 307);
  fault::InFlightFault f;
  f.when = fault::When::BetweenUpdates;
  f.surface = fault::Surface::TrailingMatrix;
  f.kind = fault::FaultKind::ExponentFlip;
  f.countdown = 2;  // the second iteration's right/left seam
  f.min_impact = 1.0;
  expect_recovers(&run_gehrd, a0, f, "gehrd between-updates strike");
}

TEST(InFlight, GehrdTransferStrikeIntoCheckpoint) {
  Matrix<double> a0 = random_matrix(kN, kN, 308);
  fault::FaultPlane counter(1);
  (void)run_gehrd(a0, &counter, nullptr);
  const fault::TriggerCounts counts = counter.trigger_counts();
  ASSERT_GT(counts.d2h, 0u) << "driver ships no fault-eligible d2h transfers";

  Matrix<double> clean = run_gehrd(a0, nullptr, nullptr).a;
  fault::FaultPlane plane(0xC0FEull);
  fault::InFlightFault f;
  f.when = fault::When::TransferD2H;
  f.kind = fault::FaultKind::ExponentFlip;
  f.countdown = counts.d2h / 2 + 1;
  f.min_impact = 1.0;
  plane.arm(f);
  const RunResult faulty = run_gehrd(a0, &plane, nullptr);
  EXPECT_TRUE(plane.all_fired());
  // A corrupted checkpoint pre-image is caught by the save-time bitwise
  // verification against the device's maintained data.
  EXPECT_GE(faulty.rep.ckpt_rederivations + faulty.rep.detections, 1);
  EXPECT_LT(max_abs_diff(faulty.a.cview(), clean.cview()), 1e-8);
}

// Satellite: a fault into the host checkpoint buffer, paired with a
// trailing-matrix fault in the SAME iteration so the rollback that follows
// must consume (and therefore verify and re-derive) the struck checkpoint.
TEST(InFlight, GehrdCheckpointStrikeIsRederived) {
  Matrix<double> a0 = random_matrix(kN, kN, 309);
  Matrix<double> clean = run_gehrd(a0, nullptr, nullptr).a;

  fault::FaultPlane plane(0xBADCull);
  fault::InFlightFault f;
  f.when = fault::When::StreamTask;
  f.surface = fault::Surface::Checkpoint;
  f.kind = fault::FaultKind::ExponentFlip;
  f.countdown = 1;  // retries until iteration 0's checkpoint exists, then fires
  f.min_impact = 1.0;
  plane.arm(f);
  // Second strike: trailing data early in iteration 0 → detection at
  // boundary 1 → rollback of iteration 0 reads the corrupted checkpoint.
  fault::InFlightFault g;
  g.when = fault::When::StreamTask;
  g.surface = fault::Surface::TrailingMatrix;
  g.kind = fault::FaultKind::ExponentFlip;
  g.bit = 52;
  g.countdown = 2;
  g.min_impact = 0.1;
  plane.arm(g);

  const RunResult faulty = run_gehrd(a0, &plane, nullptr);
  EXPECT_TRUE(plane.all_fired());
  EXPECT_GE(faulty.rep.detections, 1);
  EXPECT_GE(faulty.rep.ckpt_rederivations, 1)
      << "corrupted checkpoint restored without re-derivation";
  EXPECT_LT(max_abs_diff(faulty.a.cview(), clean.cview()), 1e-8);
  EXPECT_EQ(faulty.rep.outcome.status, RecoveryStatus::Recovered);
}

// Satellite: a second fault strikes while the first recovery re-executes;
// the next detect/rollback round must absorb it and FtReport.events must
// record both episodes.
TEST(InFlight, GehrdFaultDuringRecovery) {
  Matrix<double> a0 = random_matrix(kN, kN, 310);
  Matrix<double> clean = run_gehrd(a0, nullptr, nullptr).a;

  fault::FaultPlane plane(0x5EC0ull);
  fault::InFlightFault f;
  f.when = fault::When::DuringRecovery;
  f.surface = fault::Surface::TrailingMatrix;
  f.kind = fault::FaultKind::ExponentFlip;
  f.countdown = 1;
  f.min_impact = 1.0;
  plane.arm(f);

  // Boundary 1, not the last one: gehrd's final sweep would correct a
  // fault struck there without a rollback, and the bracket never opens.
  fault::FaultSpec spec;
  spec.area = fault::Area::LowerTrailing;
  spec.boundary = 1;
  fault::Injector inj(spec, 43);

  const RunResult faulty = run_gehrd(a0, &plane, &inj);
  EXPECT_TRUE(plane.all_fired()) << "no recovery happened, or the bracket never opened";
  EXPECT_GE(faulty.rep.detections, 2) << "second strike not detected";
  EXPECT_GE(faulty.rep.events.size(), 2u) << "both episodes must be recorded";
  EXPECT_LT(max_abs_diff(faulty.a.cview(), clean.cview()), 1e-8);
  EXPECT_EQ(faulty.rep.outcome.status, RecoveryStatus::Recovered);
}

// ---- sytrd / gebrd: the hardening is uniform -----------------------------

TEST(InFlight, SytrdExponentFlipMidRun) {
  Matrix<double> a0 = random_symmetric_matrix(kN, 311);
  const std::uint64_t tasks = clean_tasks(&run_sytrd, a0);
  // Pin the lowest exponent bit (×2 / ÷2): a high exponent bit can blow the
  // element to ~1e300 and overflow the whole symmetric update to Inf, which
  // is a legitimately unrecoverable pattern — the escalation tests' job.
  fault::InFlightFault f = trailing_fault(fault::FaultKind::ExponentFlip, tasks / 2, 0.1);
  f.bit = 52;
  expect_recovers(&run_sytrd, a0, f, "sytrd exponent flip");
}

TEST(InFlight, SytrdQuietNaNMidRun) {
  Matrix<double> a0 = random_symmetric_matrix(kN, 312);
  const std::uint64_t tasks = clean_tasks(&run_sytrd, a0);
  Matrix<double> clean = run_sytrd(a0, nullptr, nullptr).a;
  fault::FaultPlane plane(0x7E57ull);
  plane.arm(trailing_fault(fault::FaultKind::QuietNaN, tasks / 2));
  const RunResult faulty = run_sytrd(a0, &plane, nullptr);
  EXPECT_TRUE(plane.all_fired());
  EXPECT_GE(faulty.rep.reconstructions + faulty.rep.panel_aborts, 1);
  EXPECT_LT(max_abs_diff(faulty.a.cview(), clean.cview()), 1e-8);
  EXPECT_EQ(faulty.rep.outcome.status, RecoveryStatus::Recovered);
}

TEST(InFlight, SytrdDuringRecoveryStrike) {
  Matrix<double> a0 = random_symmetric_matrix(kN, 313);
  Matrix<double> clean = run_sytrd(a0, nullptr, nullptr).a;
  fault::FaultPlane plane(0x90DAull);
  fault::InFlightFault f;
  f.when = fault::When::DuringRecovery;
  f.surface = fault::Surface::TrailingMatrix;
  f.kind = fault::FaultKind::ExponentFlip;
  f.bit = 52;  // bounded flip: an overflow-to-Inf cross is unrecoverable by design
  f.countdown = 1;
  f.min_impact = 0.1;
  plane.arm(f);
  fault::FaultSpec spec;
  spec.area = fault::Area::LowerTrailing;
  spec.boundary = 2;
  fault::Injector inj(spec, 47);
  const RunResult faulty = run_sytrd(a0, &plane, &inj);
  EXPECT_TRUE(plane.all_fired());
  EXPECT_GE(faulty.rep.detections, 2);
  EXPECT_GE(faulty.rep.events.size(), 2u);
  EXPECT_LT(max_abs_diff(faulty.a.cview(), clean.cview()), 1e-8);
}

TEST(InFlight, GebrdExponentFlipMidRun) {
  Matrix<double> a0 = random_matrix(kN, kN, 314);
  const std::uint64_t tasks = clean_tasks(&run_gebrd, a0);
  expect_recovers(&run_gebrd, a0,
                  trailing_fault(fault::FaultKind::ExponentFlip, tasks / 2, 1.0),
                  "gebrd exponent flip");
}

TEST(InFlight, GebrdQuietNaNMidRun) {
  Matrix<double> a0 = random_matrix(kN, kN, 315);
  const std::uint64_t tasks = clean_tasks(&run_gebrd, a0);
  Matrix<double> clean = run_gebrd(a0, nullptr, nullptr).a;
  fault::FaultPlane plane(0x6EB2ull);
  plane.arm(trailing_fault(fault::FaultKind::QuietNaN, tasks / 2));
  const RunResult faulty = run_gebrd(a0, &plane, nullptr);
  EXPECT_TRUE(plane.all_fired());
  EXPECT_GE(faulty.rep.reconstructions + faulty.rep.panel_aborts, 1);
  EXPECT_LT(max_abs_diff(faulty.a.cview(), clean.cview()), 1e-8);
  EXPECT_EQ(faulty.rep.outcome.status, RecoveryStatus::Recovered);
}

TEST(InFlight, GebrdChecksumStrike) {
  Matrix<double> a0 = random_matrix(kN, kN, 316);
  const std::uint64_t tasks = clean_tasks(&run_gebrd, a0);
  fault::InFlightFault f;
  f.when = fault::When::StreamTask;
  f.surface = fault::Surface::ChecksumCol;
  f.kind = fault::FaultKind::ExponentFlip;
  f.countdown = tasks / 2;
  f.min_impact = 1.0;
  expect_recovers(&run_gebrd, a0, f, "gebrd checksum strike");
}

// The two-code drivers' between-updates window sits between the data update
// and the code update: a strike there lands on data the code update does
// not read, or on a code it then adds to, and the check must see either.
void expect_between_updates_recovers(Runner run, const Matrix<double>& a0, const char* what) {
  for (const fault::Surface surface :
       {fault::Surface::TrailingMatrix, fault::Surface::ChecksumCol}) {
    SCOPED_TRACE(fault::to_string(surface));
    fault::InFlightFault f;
    f.when = fault::When::BetweenUpdates;
    f.surface = surface;
    f.kind = fault::FaultKind::ExponentFlip;
    f.bit = 52;  // bounded: an overflow-to-Inf cross is unrecoverable by design
    f.countdown = 2;  // the second iteration's window
    f.min_impact = 0.1;
    expect_recovers(run, a0, f, what);
    fault::FaultPlane plane(0xD15EA5Eull);
    plane.arm(f);
    EXPECT_GE(run(a0, &plane, nullptr).rep.detections, 1) << what << ": the check missed it";
  }
}

TEST(InFlight, SytrdBetweenUpdatesStrike) {
  expect_between_updates_recovers(&run_sytrd, random_symmetric_matrix(kN, 321),
                                  "sytrd between-updates strike");
}

TEST(InFlight, GebrdBetweenUpdatesStrike) {
  expect_between_updates_recovers(&run_gebrd, random_matrix(kN, kN, 322),
                                  "gebrd between-updates strike");
}

// ---- sytrd / gebrd: struck checkpoints are re-derived --------------------
// Direct versions of the campaigns' checkpoint-strike and transfer-strike
// classes, so the re-derivation paths stay covered wherever a campaign's
// draws land.

/// A strike on the host panel checkpoint of iteration 0, plus a bounded
/// trailing strike in the same iteration: the rollback it triggers must
/// find the checkpoint's seal broken and re-derive it.
void expect_checkpoint_rederived(Runner run, const Matrix<double>& a0, const char* what) {
  const Matrix<double> clean = run(a0, nullptr, nullptr).a;
  fault::FaultPlane plane(0xBADCull);
  fault::InFlightFault f;
  f.when = fault::When::StreamTask;
  f.surface = fault::Surface::Checkpoint;
  f.kind = fault::FaultKind::ExponentFlip;
  f.countdown = 1;  // retries until iteration 0's checkpoint exists, then fires
  f.min_impact = 1.0;
  plane.arm(f);
  fault::InFlightFault g = trailing_fault(fault::FaultKind::ExponentFlip, 2, 0.1);
  g.bit = 52;  // bounded: an overflow-to-Inf cross is unrecoverable by design
  plane.arm(g);

  const RunResult faulty = run(a0, &plane, nullptr);
  EXPECT_TRUE(plane.all_fired()) << what;
  EXPECT_GE(faulty.rep.detections, 1) << what;
  EXPECT_GE(faulty.rep.ckpt_rederivations, 1)
      << what << ": corrupted checkpoint restored without re-derivation";
  EXPECT_LT(max_abs_diff(faulty.a.cview(), clean.cview()), 1e-8) << what;
  EXPECT_EQ(faulty.rep.outcome.status, RecoveryStatus::Recovered) << what;
}

/// A strike on a fault-eligible d2h, the code checkpoints' save: the
/// save-time cross-check against the device's codes must re-derive it.
void expect_transfer_strike_rederived(Runner run, const Matrix<double>& a0, const char* what) {
  fault::FaultPlane counter(1);
  (void)run(a0, &counter, nullptr);
  const fault::TriggerCounts counts = counter.trigger_counts();
  ASSERT_GT(counts.d2h, 0u) << what << ": no fault-eligible d2h transfers";

  const Matrix<double> clean = run(a0, nullptr, nullptr).a;
  fault::FaultPlane plane(0xC0FEull);
  fault::InFlightFault f;
  f.when = fault::When::TransferD2H;
  f.kind = fault::FaultKind::ExponentFlip;
  f.countdown = counts.d2h / 2 + 1;
  f.min_impact = 1.0;
  plane.arm(f);
  const RunResult faulty = run(a0, &plane, nullptr);
  EXPECT_TRUE(plane.all_fired()) << what;
  EXPECT_GE(faulty.rep.ckpt_rederivations, 1) << what;
  EXPECT_LT(max_abs_diff(faulty.a.cview(), clean.cview()), 1e-8) << what;
  EXPECT_EQ(faulty.rep.outcome.status, RecoveryStatus::Recovered) << what;
}

TEST(InFlight, SytrdCheckpointStrikeIsRederived) {
  expect_checkpoint_rederived(&run_sytrd, random_symmetric_matrix(kN, 317), "sytrd");
}

TEST(InFlight, GebrdCheckpointStrikeIsRederived) {
  expect_checkpoint_rederived(&run_gebrd, random_matrix(kN, kN, 318), "gebrd");
}

TEST(InFlight, SytrdTransferStrikeIntoCheckpointIsRederived) {
  expect_transfer_strike_rederived(&run_sytrd, random_symmetric_matrix(kN, 319), "sytrd");
}

TEST(InFlight, GebrdTransferStrikeIntoCheckpointIsRederived) {
  expect_transfer_strike_rederived(&run_gebrd, random_matrix(kN, kN, 320), "gebrd");
}

}  // namespace
}  // namespace fth::ft
