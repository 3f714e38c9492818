// One accounting for the driver phases: every phase books its time through
// an obs::TimedSpan, so (a) the hybrid drivers' panel, update and finish
// phases tile their run, and (b) a profile of the run reads the same
// seconds as the stats fields the brackets booked.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "ft/ft_gehrd.hpp"
#include "hybrid/hybrid_gebrd.hpp"
#include "hybrid/hybrid_gehrd.hpp"
#include "hybrid/hybrid_sytrd.hpp"
#include "la/generate.hpp"
#include "obs/dag.hpp"
#include "obs/profile.hpp"
#include "test_utils.hpp"

namespace fth::hybrid {
namespace {

using test::vec;

enum class Driver { Gehrd, Sytrd, Gebrd };
constexpr Driver kDrivers[] = {Driver::Gehrd, Driver::Sytrd, Driver::Gebrd};

const char* name(Driver d) {
  switch (d) {
    case Driver::Gehrd: return "gehrd";
    case Driver::Sytrd: return "sytrd";
    case Driver::Gebrd: return "gebrd";
  }
  return "";
}

/// One hybrid reduction with nb = nx = `nb` (the schedule the benchmarks run).
HybridGehrdStats run(Device& dev, Driver d, index_t n, index_t nb) {
  const auto un = static_cast<std::size_t>(n);
  std::vector<double> v0(un), v1(un), v2(un), v3(un);
  HybridGehrdStats st;
  switch (d) {
    case Driver::Gehrd: {
      Matrix<double> a = random_matrix(n, n, 11);
      hybrid_gehrd(dev, a.view(), vec(v0), {.nb = nb, .nx = nb}, &st);
      break;
    }
    case Driver::Sytrd: {
      Matrix<double> a = random_symmetric_matrix(n, 12);
      hybrid_sytrd(dev, a.view(), vec(v0), vec(v1), vec(v2), {.nb = nb, .nx = nb}, &st);
      break;
    }
    case Driver::Gebrd: {
      Matrix<double> a = random_matrix(n, n, 13);
      hybrid_gebrd(dev, a.view(), vec(v0), vec(v1), vec(v2), vec(v3), {.nb = nb, .nx = nb},
                   &st);
      break;
    }
  }
  return st;
}

double wall(const obs::ProfileReport& rep, const char* cat, const char* phase) {
  for (const auto& p : rep.phases)
    if (p.track == "host" && p.cat == cat && p.name == phase) return p.wall_s;
  ADD_FAILURE() << "no host phase " << cat << "/" << phase << " in the profile";
  return -1.0;
}

std::uint64_t calls(const obs::ProfileReport& rep) {
  std::uint64_t c = 0;
  for (const auto& p : rep.phases)
    if (p.track == "host") c += p.calls;
  return c;
}

/// The host waits of a recorded run that no panel, update or finish span
/// holds.
std::vector<const obs::dag::Node*> unphased_waits(const obs::dag::Graph& g) {
  std::vector<const obs::dag::Node*> phases;
  for (const auto& nd : g.nodes)
    if (nd.kind == obs::dag::NodeKind::Span &&
        (nd.label == "hybrid/panel" || nd.label == "hybrid/update" || nd.label == "hybrid/finish"))
      phases.push_back(&nd);
  std::vector<const obs::dag::Node*> out;
  for (const std::int64_t k : g.host_order) {
    const auto& nd = g.nodes[static_cast<std::size_t>(k)];
    if (nd.kind != obs::dag::NodeKind::Wait) continue;
    const bool held = std::any_of(phases.begin(), phases.end(), [&](const auto* p) {
      return p->t0_us <= nd.t0_us && nd.t1_us <= p->t1_us;
    });
    if (!held) out.push_back(&nd);
  }
  return out;
}

TEST(HybridPhases, PanelUpdateAndFinishTileTheRun) {
  // Outside the three phases are only the matrix upload and the workspace
  // set-up and tear-down. The panel phase must hold the panel fetch, where
  // the host waits for the previous iteration's update: without it gehrd
  // covers about half of its run. The check reads each run's event log:
  // the upload's is the only host wait no phase holds, and the phases
  // cover 0.9 of the run besides that wait. Its length is a parked
  // worker's wake-up, which CPU stolen from the VM stretches to
  // milliseconds; everything else outside the phases is host work, which
  // steal stretches no more than the phases.
  Device dev;
  for (const Driver d : kDrivers) {
    std::vector<double> frac;
    for (int rep = 0; rep < 5; ++rep) {
      obs::dag::start();
      const HybridGehrdStats st = run(dev, d, 256, 32);
      const obs::dag::Graph g = obs::dag::stop();
      ASSERT_GT(st.panels, 0) << name(d);
      ASSERT_GT(st.total_seconds, 0.0) << name(d);
      const std::vector<const obs::dag::Node*> outside = unphased_waits(g);
      ASSERT_EQ(outside.size(), 1u) << name(d) << ": a host wait outside the phases besides "
                                    << "the upload's, at " << outside.back()->site;
      const double upload = outside.front()->dur_us() / 1e6;
      frac.push_back((st.panel_seconds + st.update_seconds + st.finish_seconds) /
                     (st.total_seconds - upload));
    }
    std::sort(frac.begin(), frac.end());
    EXPECT_GE(frac[2], 0.9) << name(d) << ": the median run's phases cover too little of it ("
                            << frac[0] << " to " << frac.back() << ")";
    EXPECT_LE(frac.back(), 1.0) << name(d) << ": the phases nest inside the run";
  }
}

TEST(HybridPhases, ProfileWallIsTheBookedSeconds) {
  // A bracket books the interval it logs, so a profile of the run agrees
  // with the stats up to the rounding of the per-call sums.
  Device dev;
  for (const Driver d : kDrivers) {
    obs::profile_start();
    const HybridGehrdStats st = run(dev, d, 160, 32);
    const obs::ProfileReport rep = obs::profile_stop();
    const double tol = 1e-9 * static_cast<double>(calls(rep));
    EXPECT_NEAR(wall(rep, "hybrid", "panel"), st.panel_seconds, tol) << name(d);
    EXPECT_NEAR(wall(rep, "hybrid", "update"), st.update_seconds, tol) << name(d);
    EXPECT_NEAR(wall(rep, "hybrid", "finish"), st.finish_seconds, tol) << name(d);
    EXPECT_NEAR(wall(rep, "hybrid", name(d)), st.total_seconds, tol) << name(d);
  }
}

TEST(HybridPhases, FtProfileWallIsTheBookedSeconds) {
  // The FT drivers book one field from sibling spans: the checkpoint save
  // and the panel both count as panel time, the final sweep as detection.
  const index_t n = 160;
  Device dev;
  Matrix<double> a = random_matrix(n, n, 14);
  std::vector<double> tau(static_cast<std::size_t>(n - 1));
  ft::FtReport ft;
  HybridGehrdStats st;
  obs::profile_start();
  ft::ft_gehrd(dev, a.view(), vec(tau), {.nb = 32}, nullptr, &ft, &st);
  const obs::ProfileReport rep = obs::profile_stop();
  const double tol = 1e-9 * static_cast<double>(calls(rep));
  EXPECT_GT(ft.encode_seconds, 0.0);
  EXPECT_NEAR(wall(rep, "ft", "encode"), ft.encode_seconds, tol);
  EXPECT_NEAR(wall(rep, "ft", "detect") + wall(rep, "ft", "final_sweep"), ft.detect_seconds,
              tol);
  EXPECT_NEAR(wall(rep, "ft", "checkpoint_save") + wall(rep, "hybrid", "panel"),
              st.panel_seconds, tol);
  EXPECT_NEAR(wall(rep, "hybrid", "update"), st.update_seconds, tol);
  EXPECT_NEAR(wall(rep, "hybrid", "finish"), st.finish_seconds, tol);
  EXPECT_NEAR(wall(rep, "ft", "gehrd"), st.total_seconds, tol);
}

}  // namespace
}  // namespace fth::hybrid
