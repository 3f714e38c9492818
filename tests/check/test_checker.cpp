// fth::check runtime checker: seeded violations of the device-space and
// happens-before disciplines must be caught deterministically (100% of
// trials — detection keys off the happens-before graph, never off scheduler
// timing), with the allocation site and racing task label in the report;
// the sanctioned access patterns and full FT runs must stay violation-free.
//
// This file is on the tools/fth_lint device-unwrap allowlist: the seeds
// deliberately spell the unchecked escape hatches to construct the bugs the
// checker exists to catch.
//
// Every test skips in builds where the checker is compiled out (Release
// without -DFTH_CHECKER=ON): there is nothing to observe there, and
// run_benches.sh separately asserts that state via tools/fth_checkinfo.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <utility>
#include <vector>

#include "check/access.hpp"
#include "check/effects.hpp"
#include "fault/fault_plane.hpp"
#include "fault/injector.hpp"
#include "ft/ft_gehrd.hpp"
#include "ft/ft_sytrd.hpp"
#include "hybrid/dev_blas.hpp"
#include "hybrid/device.hpp"
#include "la/generate.hpp"
#include "lapack/lahr2_impl.hpp"

#define SKIP_UNLESS_CHECKED()                                   \
  do {                                                          \
    if (!fth::check::compiled_in())                             \
      GTEST_SKIP() << "checker compiled out of this build";     \
    fth::check::set_active(true);                               \
  } while (0)

namespace fth {
namespace {

using check::ExpectViolations;
using check::ViolationKind;

/// First violation of `kind` in `vs`, or nullptr.
const check::Violation* find_kind(const std::vector<check::Violation>& vs,
                                  ViolationKind kind) {
  for (const auto& v : vs)
    if (v.kind == kind) return &v;
  return nullptr;
}

// ---- device-space discipline ------------------------------------------------

TEST(CheckerSpace, HostViewOverDeviceMemoryReportsAllocationSite) {
  SKIP_UNLESS_CHECKED();
  hybrid::Device dev;
  hybrid::DeviceMatrix<double> dm(dev, 8, 8, "checker_test.d_a");
  double* p = dm.view().raw_data();

  ExpectViolations ex;
  MatrixView<double> bad(p, 8, 8, 8);  // host-space view over device memory
  (void)bad;
  const auto vs = ex.taken();
  const auto* v = find_kind(vs, ViolationKind::HostViewOverDevice);
  ASSERT_NE(v, nullptr);
  EXPECT_STREQ(v->alloc_site, "checker_test.d_a");
  EXPECT_NE(v->message.find("checker_test.d_a"), std::string::npos);
}

// Regression: the slow host-view path once re-locked the checker mutex when
// the pointer turned out to be ordinary host memory (host_view_slow →
// host_touch_slow), self-deadlocking the first host view built while any
// device allocation existed — i.e. the first line of every hybrid driver.
TEST(CheckerSpace, HostViewOverHostMemoryBesideDeviceAllocsIsCleanAndCheap) {
  SKIP_UNLESS_CHECKED();
  hybrid::Device dev;
  hybrid::DeviceMatrix<double> dm(dev, 8, 8, "checker_test.d_bystander");
  Matrix<double> host(8, 8);

  const auto before = check::violation_count();
  // Exercises the device-alloc-registered slow path end to end; must neither
  // hang nor report (reads and writes both — no transfer is in flight).
  MatrixView<double> w(host.data(), 8, 8, 8);
  w(3, 3) = 1.0;
  MatrixView<const double> r(host.data(), 8, 8, 8);
  (void)r(3, 3);
  EXPECT_EQ(check::violation_count(), before);
}

TEST(CheckerSpace, InTaskUnwrapOnHostThreadIsFlagged) {
  SKIP_UNLESS_CHECKED();
  hybrid::Device dev;
  hybrid::DeviceMatrix<double> dm(dev, 4, 4, "checker_test.d_unwrap");

  ExpectViolations ex;
  auto h = dm.view().in_task();  // not a stream worker
  (void)h;
  const auto vs = ex.taken();
  const auto* v = find_kind(vs, ViolationKind::HostDerefDevice);
  ASSERT_NE(v, nullptr);
  EXPECT_STREQ(v->alloc_site, "checker_test.d_unwrap");
  EXPECT_STREQ(v->task_label, "host");
}

TEST(CheckerSpace, InTaskUnwrapInsideStreamTaskIsClean) {
  SKIP_UNLESS_CHECKED();
  hybrid::Device dev;
  hybrid::DeviceMatrix<double> dm(dev, 4, 4, "checker_test.d_ok");
  const auto before = check::violation_count();
  auto dv = dm.view();
  dev.stream().enqueue("checker_test.kernel", [dv] {
    auto h = dv.in_task();
    h(1, 2) = 42.0;
  });
  dev.stream().synchronize();
  EXPECT_EQ(check::violation_count(), before);
}

TEST(CheckerSpace, StaleDeviceRangeIsFlaggedAsUnregistered) {
  SKIP_UNLESS_CHECKED();
  hybrid::Device dev;
  DMatrixView<double> stale;
  {
    hybrid::DeviceMatrix<double> tmp(dev, 4, 4, "checker_test.d_gone");
    stale = tmp.view();
  }  // backing allocation released
  ExpectViolations ex;
  auto h = stale.in_task();
  (void)h;
  const auto vs = ex.taken();
  const auto* v = find_kind(vs, ViolationKind::HostDerefDevice);
  ASSERT_NE(v, nullptr);
  EXPECT_STREQ(v->alloc_site, "<unregistered>");
}

TEST(CheckerSpace, HostViewGateFlagsBusyStreamAndPassesIdleStream) {
  SKIP_UNLESS_CHECKED();
  hybrid::Device dev;
  hybrid::DeviceMatrix<double> dm(dev, 4, 4, "checker_test.d_gate");
  std::atomic<bool> release{false};
  dev.stream().enqueue("checker_test.block", [&release] {
    while (!release.load()) std::this_thread::yield();
  });

  {
    ExpectViolations ex;
    auto h = hybrid::host_view(dm.view(), dev.stream());  // stream not idle
    (void)h;
    const auto vs = ex.taken();
    const auto* v = find_kind(vs, ViolationKind::StreamNotIdle);
    ASSERT_NE(v, nullptr);
    EXPECT_STREQ(v->alloc_site, "checker_test.d_gate");
  }
  release.store(true);
  dev.stream().synchronize();

  const auto before = check::violation_count();
  auto h = hybrid::host_view(dm.view(), dev.stream());  // idle: legitimate
  h(0, 0) = 1.0;
  EXPECT_EQ(check::violation_count(), before);
}

// ---- declared-effect conformance (FTH_CHECK_EFFECTS=1) ----------------------

TEST(CheckerEffects, UnwrapOutsideDeclaredSetIsFlagged) {
  SKIP_UNLESS_CHECKED();
  check::set_effects_active(true);
  hybrid::Device dev;
  hybrid::DeviceMatrix<double> declared(dev, 4, 4, "checker_test.d_declared");
  hybrid::DeviceMatrix<double> undeclared(dev, 4, 4, "checker_test.d_undeclared");

  ExpectViolations ex;
  auto dv_ok = declared.view();
  auto dv_bad = undeclared.view();
  dev.stream().enqueue("checker_test.narrow", FTH_TASK_EFFECTS(FTH_WRITES(dv_ok)),
                       [dv_ok, dv_bad] {
                         dv_ok.in_task()(0, 0) = 1.0;   // declared: fine
                         (void)dv_bad.in_task()(1, 1);  // undeclared: mismatch
                       });
  dev.stream().synchronize();
  check::set_effects_active(false);
  const auto vs = ex.taken();
  const auto* v = find_kind(vs, ViolationKind::EffectMismatch);
  ASSERT_NE(v, nullptr);
  EXPECT_STREQ(v->alloc_site, "checker_test.d_undeclared");
  EXPECT_STREQ(v->task_label, "checker_test.narrow");
  EXPECT_NE(v->message.find("FTH_READS/FTH_WRITES"), std::string::npos);
}

TEST(CheckerEffects, EmptyDeclarationRejectsAnyUnwrap) {
  SKIP_UNLESS_CHECKED();
  check::set_effects_active(true);
  hybrid::Device dev;
  hybrid::DeviceMatrix<double> dm(dev, 4, 4, "checker_test.d_marker");

  ExpectViolations ex;
  auto dv = dm.view();
  // A pure-marker declaration promises to touch nothing; touching
  // anything under it is exactly the drifted-annotation bug class.
  dev.stream().enqueue("checker_test.marker", FTH_TASK_EFFECTS(),
                       [dv] { (void)dv.in_task()(0, 0); });
  dev.stream().synchronize();
  check::set_effects_active(false);
  ASSERT_NE(find_kind(ex.taken(), ViolationKind::EffectMismatch), nullptr);
}

TEST(CheckerEffects, UndeclaredTasksAndInactiveModeStayUnchecked) {
  SKIP_UNLESS_CHECKED();
  check::set_effects_active(false);  // the env may have turned it on
  hybrid::Device dev;
  hybrid::DeviceMatrix<double> dm(dev, 4, 4, "checker_test.d_free");
  const auto before = check::violation_count();
  auto dv = dm.view();
  // Label-only overload: no declaration, nothing to conform to.
  dev.stream().enqueue("checker_test.legacy", [dv] { dv.in_task()(0, 0) = 1.0; });
  dev.stream().synchronize();
  // Declared but conformance mode off: declarations are documentation
  // for the static pass, not a runtime constraint.
  dev.stream().enqueue("checker_test.off", FTH_TASK_EFFECTS(),
                       [dv] { dv.in_task()(2, 2) = 1.0; });
  dev.stream().synchronize();
  EXPECT_EQ(check::violation_count(), before);
}

// ---- happens-before race detection ------------------------------------------

TEST(CheckerRace, HostWriteIntoInFlightH2DSourceIsFlagged) {
  SKIP_UNLESS_CHECKED();
  hybrid::Device dev;
  hybrid::Stream& s = dev.stream();
  hybrid::DeviceMatrix<double> d(dev, 16, 16, "checker_test.d_u2");
  Matrix<double> host(16, 16);

  hybrid::copy_h2d_async(s, host.view(), d.view());
  {
    ExpectViolations ex;
    host(3, 3) = 3.14;  // no Event / synchronize edge: the U2 bug class
    const auto vs = ex.taken();
    const auto* v = find_kind(vs, ViolationKind::TransferRace);
    ASSERT_NE(v, nullptr);
    EXPECT_STREQ(v->task_label, "h2d");
    EXPECT_STREQ(v->alloc_site, "checker_test.d_u2");
    EXPECT_GT(v->ticket, 0u);
    EXPECT_NE(v->missing_edge.find("ticket"), std::string::npos)
        << "the report must name the edge that fixes the race";
  }
  s.synchronize();
}

TEST(CheckerRace, HostReadOfInFlightH2DSourceIsAllowed) {
  SKIP_UNLESS_CHECKED();
  hybrid::Device dev;
  hybrid::Stream& s = dev.stream();
  hybrid::DeviceMatrix<double> d(dev, 8, 8, "checker_test.d_ro");
  Matrix<double> host(8, 8);

  hybrid::copy_h2d_async(s, host.view(), d.view());
  const auto before = check::violation_count();
  const double x = std::as_const(host)(2, 2);  // h2d only reads the host side
  (void)x;
  EXPECT_EQ(check::violation_count(), before);
  s.synchronize();
}

TEST(CheckerRace, HostReadOfInFlightD2HDestinationIsFlagged) {
  SKIP_UNLESS_CHECKED();
  hybrid::Device dev;
  hybrid::Stream& s = dev.stream();
  hybrid::DeviceMatrix<double> d(dev, 8, 8, "checker_test.d_back");
  Matrix<double> host(8, 8);

  hybrid::copy_d2h_async(s, d.view(), host.view());
  {
    ExpectViolations ex;
    const double x = std::as_const(host)(0, 0);  // d2h writes the host side
    (void)x;
    const auto vs = ex.taken();
    const auto* v = find_kind(vs, ViolationKind::TransferRace);
    ASSERT_NE(v, nullptr);
    EXPECT_STREQ(v->task_label, "d2h");
  }
  s.synchronize();
}

TEST(CheckerRace, EventWaitRetiresTheTransfer) {
  SKIP_UNLESS_CHECKED();
  hybrid::Device dev;
  hybrid::Stream& s = dev.stream();
  hybrid::DeviceMatrix<double> d(dev, 8, 8, "checker_test.d_wait");
  Matrix<double> host(8, 8);

  hybrid::copy_h2d_async(s, host.view(), d.view());
  hybrid::Event shipped = s.record();
  shipped.wait();  // the exact fix for the U2 race (DESIGN.md §7)
  const auto before = check::violation_count();
  host(3, 3) = 2.71;
  EXPECT_EQ(check::violation_count(), before);
  s.synchronize();
}

TEST(CheckerRace, EventReadyPollAlsoCountsAsAnEdge) {
  SKIP_UNLESS_CHECKED();
  hybrid::Device dev;
  hybrid::Stream& s = dev.stream();
  hybrid::DeviceMatrix<double> d(dev, 8, 8, "checker_test.d_poll");
  Matrix<double> host(8, 8);

  hybrid::copy_h2d_async(s, host.view(), d.view());
  hybrid::Event shipped = s.record();
  while (!shipped.ready()) std::this_thread::yield();
  const auto before = check::violation_count();
  host(0, 7) = 1.0;
  EXPECT_EQ(check::violation_count(), before);
  s.synchronize();
}

TEST(CheckerRace, DetectionIsDeterministicAcrossTrials) {
  SKIP_UNLESS_CHECKED();
  hybrid::Device dev;
  hybrid::Stream& s = dev.stream();
  hybrid::DeviceMatrix<double> d(dev, 8, 8, "checker_test.d_trials");
  // Detection must not depend on whether the worker already finished the
  // copy: the transfer stays live until the HOST observes an edge. Every
  // trial must flag, whatever the scheduler did.
  const int kTrials = 20;
  for (int t = 0; t < kTrials; ++t) {
    Matrix<double> host(8, 8);
    hybrid::copy_h2d_async(s, host.view(), d.view());
    if (t % 2 == 1) {
      // Odd trials: give the worker time to actually finish the copy first,
      // so both "still copying" and "copied but unordered" interleavings
      // are exercised.
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ExpectViolations ex;
    host(t % 8, t % 8) = 1.0;
    EXPECT_EQ(ex.taken().empty(), false) << "trial " << t << " missed the race";
    s.synchronize();
  }
}

TEST(CheckerRace, APanelWaiterThatSkipsTheWaitIsFlagged) {
  SKIP_UNLESS_CHECKED();
  // A device panel provider (DESIGN.md §7) whose waiter returns without
  // the synchronize(): the panel loop's first read of the column's product
  // races the d2h that fills it, whatever the worker has done by then.
  const index_t n = 24, nb = 4;
  Matrix<double> a = random_matrix(n, n, 31);
  hybrid::Device dev;
  hybrid::Stream& s = dev.stream();
  hybrid::DeviceMatrix<double> d_a(dev, n, n, "checker_test.d_panel_a");
  hybrid::DeviceMatrix<double> d_v(dev, n, 1, "checker_test.d_panel_v");
  hybrid::DeviceMatrix<double> d_y(dev, n, 1, "checker_test.d_panel_y");
  hybrid::copy_h2d(s, a.cview(), d_a.view());
  Matrix<double> t(nb, nb), y(n, nb);
  std::vector<double> tau(static_cast<std::size_t>(nb));

  ExpectViolations ex;
  lapack::detail::lahr2_panel(
      a.view(), 0, nb, t.view(), y.view(), VectorView<double>(tau.data(), nb),
      [&](index_t j, VectorView<const double> vj, VectorView<double> y_col) {
        const index_t rows = n - 1;
        hybrid::copy_h2d_async(s, MatrixView<const double>(vj.data(), vj.size(), 1, vj.size()),
                               d_v.block(0, 0, vj.size(), 1));
        hybrid::gemv_async(s, Trans::No, 1.0, d_a.block(1, j + 1, rows, n - j - 1),
                           d_v.view().col(0).sub(0, vj.size()), 0.0,
                           d_y.view().col(0).sub(0, rows));
        hybrid::copy_d2h_async(s, d_y.block(0, 0, rows, 1),
                               MatrixView<double>(y_col.data(), rows, 1, rows));
        return [] {};  // the seeded bug: no s.synchronize()
      });
  const auto vs = ex.taken();
  s.synchronize();
  const auto* v = find_kind(vs, ViolationKind::TransferRace);
  ASSERT_NE(v, nullptr) << "a waiter that skips the wait must not go unnoticed";
  EXPECT_STREQ(v->task_label, "d2h");
  EXPECT_STREQ(v->alloc_site, "checker_test.d_panel_y");
}

// ---- clean runs under the checker -------------------------------------------

TEST(CheckerClean, FtGehrdWithFaultsAndRecoveryIsViolationFree) {
  SKIP_UNLESS_CHECKED();
  const index_t n = 64, nb = 16;
  hybrid::Device dev;
  Matrix<double> a = random_matrix(n, n, 5);
  std::vector<double> tau(static_cast<std::size_t>(n - 1));
  fault::FaultSpec spec;
  spec.area = fault::Area::LowerTrailing;
  fault::Injector inj(spec, 5);
  ft::FtReport rep;
  const auto before = check::violation_count();
  ft::ft_gehrd(dev, a.view(), VectorView<double>(tau.data(), n - 1), {.nb = nb},
               &inj, &rep);
  EXPECT_GE(rep.detections, 1) << "the seeded fault must be seen (else the run "
                                  "exercised less than intended)";
  EXPECT_EQ(check::violation_count(), before)
      << "detection + rollback + re-execution must respect the disciplines";
}

TEST(CheckerClean, InFlightFaultPlaneSoakIsViolationFree) {
  SKIP_UNLESS_CHECKED();
  // Small soak trial (the CI Debug job runs this alongside the full suite):
  // in-flight strikes from the worker thread while the checker watches
  // every unwrap and transfer.
  const index_t n = 48, nb = 16;
  const auto before = check::violation_count();
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    hybrid::Device dev;
    Matrix<double> a = random_matrix(n, n, 100 + static_cast<int>(seed));
    std::vector<double> tau(static_cast<std::size_t>(n - 1));
    fault::FaultPlane plane(seed);
    fault::InFlightFault f;
    f.when = fault::When::StreamTask;
    f.surface = fault::Surface::TrailingMatrix;
    f.countdown = 5 + seed;
    f.min_impact = 1e-6;
    plane.arm(f);
    ft::FtOptions opt;
    opt.nb = nb;
    opt.fault_plane = &plane;
    ft::FtReport rep;
    ft::ft_gehrd(dev, a.view(), VectorView<double>(tau.data(), n - 1), opt,
                 nullptr, &rep);
    EXPECT_TRUE(plane.all_fired()) << "seed " << seed;
  }
  EXPECT_EQ(check::violation_count(), before);
}

TEST(CheckerClean, FtSytrdRunIsViolationFree) {
  SKIP_UNLESS_CHECKED();
  const index_t n = 48, nb = 16;
  hybrid::Device dev;
  Matrix<double> a = random_symmetric_matrix(n, 9);
  std::vector<double> d(static_cast<std::size_t>(n));
  std::vector<double> e(static_cast<std::size_t>(n - 1));
  std::vector<double> tau(static_cast<std::size_t>(n - 1));
  ft::FtSytrdOptions opt;
  opt.nb = nb;
  ft::FtReport rep;
  const auto before = check::violation_count();
  ft::ft_sytrd(dev, a.view(), VectorView<double>(d.data(), n),
               VectorView<double>(e.data(), n - 1),
               VectorView<double>(tau.data(), n - 1), opt, nullptr, &rep);
  EXPECT_EQ(check::violation_count(), before);
}

}  // namespace
}  // namespace fth
