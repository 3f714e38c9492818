// The FT drivers' panel schedule: blocked, ABFT-protected device panels up
// to the hybrid drivers' nx = nb crossover (ft_blocked_panel), then the
// unblocked host routine on the trailing block; at n ≤ nb + 1 the host
// routine alone. Covers all three drivers at the sizes around the
// crossover, for two block sizes, and the drivers' host drains per check
// and per checkpoint.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "fault/injector.hpp"
#include "ft/ft_gebrd.hpp"
#include "ft/ft_gehrd.hpp"
#include "ft/ft_sytrd.hpp"
#include "hybrid/hybrid_gebrd.hpp"
#include "hybrid/hybrid_gehrd.hpp"
#include "hybrid/hybrid_sytrd.hpp"
#include "la/blas3.hpp"
#include "la/generate.hpp"
#include "la/norms.hpp"
#include "lapack/gebrd.hpp"
#include "lapack/gehrd.hpp"
#include "lapack/orghr.hpp"
#include "lapack/sytrd.hpp"
#include "lapack/verify.hpp"
#include "obs/dag.hpp"
#include "test_utils.hpp"

namespace fth::ft {
namespace {

using test::cvec;
using test::vec;

enum class Algo { Gehrd, Sytrd, Gebrd };
enum class Path { Host, Hybrid, Ft };

const char* name(Algo a) {
  switch (a) {
    case Algo::Gehrd: return "gehrd";
    case Algo::Sytrd: return "sytrd";
    case Algo::Gebrd: return "gebrd";
  }
  return "?";
}

/// One reduction's output: the factored matrix and the vectors in the
/// driver's argument order (gehrd: tau; sytrd: d, e, tau; gebrd: d, e,
/// tauq, taup).
struct Out {
  Matrix<double> a{0, 0};
  std::vector<std::vector<double>> v;
  FtReport rep;
  hybrid::HybridGehrdStats st;
};

Matrix<double> input(Algo algo, index_t n) {
  const auto seed = 900 + static_cast<std::uint64_t>(n);
  return algo == Algo::Sytrd ? random_symmetric_matrix(n, seed) : random_matrix(n, n, seed);
}

struct FtKnobs {
  bool final_sweep = true;
  index_t detect_every = 1;
};

Out reduce(hybrid::Device& dev, Algo algo, Path path, const Matrix<double>& a0, index_t nb,
           fault::Injector* inj = nullptr, FtKnobs knobs = {}) {
  const index_t n = a0.rows();
  const auto len = [](index_t k) { return static_cast<std::size_t>(std::max<index_t>(k, 0)); };
  Out o;
  o.a = Matrix<double>(a0.cview());
  auto a = o.a.view();
  switch (algo) {
    case Algo::Gehrd: {
      o.v = {std::vector<double>(len(n - 1))};
      auto tau = vec(o.v[0]);
      if (path == Path::Host) {
        lapack::gehrd(a, tau, {.nb = nb, .nx = nb});
      } else if (path == Path::Hybrid) {
        hybrid::hybrid_gehrd(dev, a, tau, {.nb = nb, .nx = nb}, &o.st);
      } else {
        FtOptions opt;
        opt.nb = nb;
        opt.final_sweep = knobs.final_sweep;
        ft_gehrd(dev, a, tau, opt, inj, &o.rep, &o.st);
      }
      break;
    }
    case Algo::Sytrd: {
      o.v = {std::vector<double>(len(n)), std::vector<double>(len(n - 1)),
             std::vector<double>(len(n - 1))};
      auto d = vec(o.v[0]), e = vec(o.v[1]), tau = vec(o.v[2]);
      if (path == Path::Host) {
        lapack::sytrd(a, d, e, tau, {.nb = nb, .nx = nb});
      } else if (path == Path::Hybrid) {
        hybrid::hybrid_sytrd(dev, a, d, e, tau, {.nb = nb, .nx = nb}, &o.st);
      } else {
        FtSytrdOptions opt;
        opt.nb = nb;
        opt.final_sweep = knobs.final_sweep;
        opt.detect_every = knobs.detect_every;
        ft_sytrd(dev, a, d, e, tau, opt, inj, &o.rep, &o.st);
      }
      break;
    }
    case Algo::Gebrd: {
      o.v = {std::vector<double>(len(n)), std::vector<double>(len(n - 1)),
             std::vector<double>(len(n)), std::vector<double>(len(n - 1))};
      auto d = vec(o.v[0]), e = vec(o.v[1]), tauq = vec(o.v[2]), taup = vec(o.v[3]);
      if (path == Path::Host) {
        lapack::gebrd(a, d, e, tauq, taup, {.nb = nb, .nx = nb});
      } else if (path == Path::Hybrid) {
        hybrid::hybrid_gebrd(dev, a, d, e, tauq, taup, {.nb = nb, .nx = nb}, &o.st);
      } else {
        FtGebrdOptions opt;
        opt.nb = nb;
        opt.final_sweep = knobs.final_sweep;
        opt.detect_every = knobs.detect_every;
        ft_gebrd(dev, a, d, e, tauq, taup, opt, inj, &o.rep, &o.st);
      }
      break;
    }
  }
  return o;
}

struct Quality {
  double residual = 0.0;  ///< ‖A − Q·C·Pᵀ‖₁/(N‖A‖₁), C the condensed form
  double orth = 0.0;      ///< worst ‖Q·Qᵀ − I‖₁/N over the factors
};

Quality quality(Algo algo, const Matrix<double>& a0, const Out& o) {
  const index_t n = a0.rows();
  switch (algo) {
    case Algo::Gehrd: {
      const lapack::VerifyResult r =
          lapack::verify_reduction(a0.cview(), o.a.cview(), cvec(o.v[0]));
      return {r.residual, r.orthogonality};
    }
    case Algo::Sytrd: {
      const Matrix<double> t = lapack::tridiagonal_from(cvec(o.v[0]), cvec(o.v[1]));
      const Matrix<double> q = lapack::orghr(o.a.cview(), cvec(o.v[2]));
      return {lapack::hessenberg_residual(a0.cview(), q.cview(), t.cview()),
              lapack::orthogonality_residual(q.cview())};
    }
    case Algo::Gebrd: {
      const Matrix<double> b = lapack::bidiagonal_from(cvec(o.v[0]), cvec(o.v[1]));
      const Matrix<double> q = lapack::orgbr_q(o.a.cview(), cvec(o.v[2]));
      const Matrix<double> p = lapack::orgbr_p(o.a.cview(), cvec(o.v[3]));
      Matrix<double> qb(n, n);
      blas::gemm(Trans::No, Trans::No, 1.0, q.cview(), b.cview(), 0.0, qb.view());
      Matrix<double> r(a0.cview());
      blas::gemm(Trans::No, Trans::Yes, -1.0, qb.cview(), p.cview(), 1.0, r.view());
      return {norm_one(r.cview()) / (static_cast<double>(n) * norm_one(a0.cview())),
              std::max(lapack::orthogonality_residual(q.cview()),
                       lapack::orthogonality_residual(p.cview()))};
    }
  }
  return {};
}

/// Largest elementwise difference over the matrix and every vector.
double max_diff(const Out& x, const Out& y) {
  double worst = max_abs_diff(x.a.cview(), y.a.cview());
  for (std::size_t k = 0; k < x.v.size(); ++k)
    for (std::size_t r = 0; r < x.v[k].size(); ++r)
      worst = std::max(worst, std::abs(x.v[k][r] - y.v[k][r]));
  return worst;
}

/// The host reference's bounds (tests/lapack), met by host and FT alike.
constexpr double kResidual = 1e-14;
constexpr double kOrth = 1e-13;

// (algorithm, nb, index into sizes(nb)). The first kHostOnly sizes take
// the host-only path, the rest run blocked device panels.
using Case = std::tuple<Algo, index_t, int>;

std::vector<index_t> sizes(index_t nb) {
  return {3, nb, nb + 1, nb + 2, 2 * nb + 1, 2 * nb + 2, 5 * nb - 3};
}
constexpr int kHostOnly = 3;
constexpr int kSizes = 7;

class FtSchedule : public ::testing::TestWithParam<Case> {
 protected:
  Algo algo() const { return std::get<0>(GetParam()); }
  index_t nb() const { return std::get<1>(GetParam()); }
  index_t n() const { return sizes(nb())[static_cast<std::size_t>(std::get<2>(GetParam()))]; }
};
class FtScheduleBlocked : public FtSchedule {};
class FtScheduleHostOnly : public FtSchedule {};

std::string case_name(const ::testing::TestParamInfo<Case>& info) {
  const index_t nb = std::get<1>(info.param);
  return std::string(name(std::get<0>(info.param))) + "_nb" + std::to_string(nb) + "_n" +
         std::to_string(sizes(nb)[static_cast<std::size_t>(std::get<2>(info.param))]);
}

auto cases(int first, int last) {
  return ::testing::Combine(::testing::Values(Algo::Gehrd, Algo::Sytrd, Algo::Gebrd),
                            ::testing::Values<index_t>(8, 32), ::testing::Range(first, last));
}

TEST_P(FtSchedule, PanelsMatchTheHybridAndTheBoundaryCount) {
  hybrid::Device dev;
  const Matrix<double> a0 = input(algo(), n());
  const Out hyb = reduce(dev, algo(), Path::Hybrid, a0, nb());
  const Out ft = reduce(dev, algo(), Path::Ft, a0, nb());
  EXPECT_EQ(ft.st.panels, hyb.st.panels);
  EXPECT_EQ(ft.st.panels, ft_total_boundaries(n(), nb()));
  EXPECT_EQ(ft.st.panels > 0, ft_blocked_panel(n(), 0, nb()));
}

TEST_P(FtSchedule, CleanRunMeetsTheHostReferenceBounds) {
  hybrid::Device dev;
  const Matrix<double> a0 = input(algo(), n());
  const Quality host = quality(algo(), a0, reduce(dev, algo(), Path::Host, a0, nb()));
  const Out ft = reduce(dev, algo(), Path::Ft, a0, nb());
  const Quality q = quality(algo(), a0, ft);
  EXPECT_EQ(ft.rep.detections, 0);
  EXPECT_EQ(ft.rep.q_corrections, 0);
  EXPECT_EQ(ft.rep.outcome.status, RecoveryStatus::Clean);
  EXPECT_LT(host.residual, kResidual);
  EXPECT_LT(host.orth, kOrth);
  EXPECT_LT(q.residual, kResidual);
  EXPECT_LT(q.orth, kOrth);
}

TEST_P(FtScheduleBlocked, EndFaultInEveryAreaIsCorrected) {
  ASSERT_TRUE(ft_blocked_panel(n(), 0, nb()));
  hybrid::Device dev;
  const Matrix<double> a0 = input(algo(), n());
  const Out clean = reduce(dev, algo(), Path::Ft, a0, nb());
  for (const fault::Area area : {fault::Area::UpperTrailing, fault::Area::LowerTrailing,
                                 fault::Area::QPanel, fault::Area::FinishedH}) {
    const std::string what = "area " + fault::to_string(area);
    fault::FaultSpec spec;
    spec.area = area;
    spec.moment = fault::Moment::End;
    fault::Injector inj(spec, 31 + static_cast<std::uint64_t>(area));
    const Out o = reduce(dev, algo(), Path::Ft, a0, nb(), &inj);
    ASSERT_EQ(inj.history().size(), 1u) << what;
    EXPECT_EQ(inj.history()[0].boundary, ft_total_boundaries(n(), nb())) << what;
    EXPECT_GE(o.rep.detections + o.rep.q_corrections + o.rep.final_sweep_corrections, 1)
        << what;
    EXPECT_EQ(o.rep.outcome.status, RecoveryStatus::Recovered) << what;
    EXPECT_LT(max_diff(o, clean), 1e-9) << what;
  }
}

TEST_P(FtScheduleHostOnly, AtMostNbPlusOneTheHostRoutineRunsAlone) {
  ASSERT_FALSE(ft_blocked_panel(n(), 0, nb()));
  hybrid::Device dev;
  const Matrix<double> a0 = input(algo(), n());
  const Out host = reduce(dev, algo(), Path::Host, a0, nb());
  fault::FaultSpec spec;
  spec.area = fault::Area::LowerTrailing;
  spec.boundary = 1;
  fault::Injector inj(spec);
  const Out ft = reduce(dev, algo(), Path::Ft, a0, nb(), &inj);
  EXPECT_TRUE(inj.history().empty()) << "an injection with no device boundary";
  EXPECT_EQ(ft.st.panels, 0);
  EXPECT_EQ(ft.st.h2d_bytes + ft.st.d2h_bytes, 0u);
  EXPECT_EQ(max_diff(ft, host), 0.0) << "the host routine, bit for bit";
}

INSTANTIATE_TEST_SUITE_P(SizesAndBlocks, FtSchedule, cases(0, kSizes), case_name);
INSTANTIATE_TEST_SUITE_P(SizesAndBlocks, FtScheduleBlocked, cases(kHostOnly, kSizes), case_name);
INSTANTIATE_TEST_SUITE_P(SizesAndBlocks, FtScheduleHostOnly, cases(0, kHostOnly), case_name);

// With detect_every > 1 the last blocked iteration is still checked: the
// host tail consumes its trailing block next. Without the final sweep,
// nothing else would see a fault struck at that boundary.
TEST(FtLastBoundaryCheck, AmortizedDetectionStillChecksTheLastDeviceBoundary) {
  const index_t nb = 8;
  const index_t n = 5 * nb - 3;  // four blocked panels: the last is no multiple of 3
  ASSERT_EQ(ft_total_boundaries(n, nb) % 3, 1);
  const FtKnobs knobs{.final_sweep = false, .detect_every = 3};
  hybrid::Device dev;
  for (const Algo algo : {Algo::Sytrd, Algo::Gebrd}) {
    SCOPED_TRACE(name(algo));
    const Matrix<double> a0 = input(algo, n);
    const Out clean = reduce(dev, algo, Path::Ft, a0, nb, nullptr, knobs);

    fault::FaultSpec spec;
    spec.row = n - 2;  // inside the trailing block the host tail reduces
    spec.col = n - 4;
    spec.moment = fault::Moment::End;
    fault::Injector inj(spec);
    const Out o = reduce(dev, algo, Path::Ft, a0, nb, &inj, knobs);
    ASSERT_EQ(inj.history().size(), 1u);
    EXPECT_GE(o.rep.detections, 1);
    EXPECT_GE(o.rep.rollbacks, 1);
    EXPECT_EQ(o.rep.outcome.status, RecoveryStatus::Recovered);
    EXPECT_LT(max_diff(o, clean), 1e-9);
  }
}

// One drain per check: every boundary's detection and the final sweep read
// their fresh line sums and both codes through one reader task
// (two_code.inc's line_sums, labelled "ft.line_sums") under one
// synchronize. The DAG names each wait's call site and the task it waited
// on, so a second drain at any check shows as a count above the checks.
TEST(FtDrains, EachCheckOfACleanTwoCodeRunDrainsOnce) {
  const index_t n = 128, nb = 32;
  const index_t checks = ft_total_boundaries(n, nb) + 1;  // the boundaries + the final sweep
  hybrid::Device dev;
  for (const Algo algo : {Algo::Sytrd, Algo::Gebrd}) {
    SCOPED_TRACE(name(algo));
    const Matrix<double> a0 = input(algo, n);
    obs::dag::start();
    const Out o = reduce(dev, algo, Path::Ft, a0, nb);
    const obs::dag::Graph g = obs::dag::stop();
    ASSERT_EQ(o.rep.outcome.status, RecoveryStatus::Clean);

    index_t readers = 0;
    std::map<std::string, index_t> waits_by_site;
    std::map<std::string, index_t> reader_waits_by_site;  // in the fragment
    for (const auto& nd : g.nodes) {
      if (nd.kind == obs::dag::NodeKind::Task && nd.label == "ft.line_sums") ++readers;
      if (nd.kind != obs::dag::NodeKind::Wait) continue;
      ++waits_by_site[nd.site];
      if (nd.cause >= 0 && g.nodes[static_cast<std::size_t>(nd.cause)].label == "ft.line_sums" &&
          nd.site.find("two_code.inc:") != std::string::npos)
        ++reader_waits_by_site[nd.site];
    }
    EXPECT_EQ(readers, checks) << "one readback task per check";
    ASSERT_EQ(reader_waits_by_site.size(), 1u) << "one call site drains the reader";
    const auto& [site, drains] = *reader_waits_by_site.begin();
    EXPECT_EQ(drains, checks) << site;
    EXPECT_EQ(waits_by_site[site], checks) << site << " drains only the reader";
  }
}

// One drain per boundary for the checkpoint: the panel fetch, the code
// checkpoints' d2h and their raw readback drain together, and the rest of
// the save (copy, seal, cross-check, surface registration) runs in the
// first column product's window. So a clean run's host waits per boundary
// are the fetch, one waiter per panel product, the update's event wait
// (gehrd's Y fetch, gebrd's operand shipping) and the check; and the wait
// after the fetch is the first product's waiter, with only that product's
// h2d, kernel and d2h enqueued in between.
TEST(FtDrains, EachBoundaryFetchDrainsOnceAndTheFirstProductFollows) {
  const index_t n = 128, nb = 32;
  const index_t boundaries = ft_total_boundaries(n, nb);
  hybrid::Device dev;
  for (const Algo algo : {Algo::Gehrd, Algo::Sytrd, Algo::Gebrd}) {
    SCOPED_TRACE(name(algo));
    const Matrix<double> a0 = input(algo, n);
    obs::dag::start();
    const Out o = reduce(dev, algo, Path::Ft, a0, nb);
    const obs::dag::Graph g = obs::dag::stop();
    ASSERT_EQ(o.rep.outcome.status, RecoveryStatus::Clean);
    const std::string check = algo == Algo::Gehrd ? "ft.detect" : "ft.line_sums";
    const index_t products = algo == Algo::Gebrd ? 2 * nb : nb;
    const index_t event_waits = algo == Algo::Sytrd ? 0 : 1;

    std::map<std::uint64_t, std::string> task_at;  // one stream: label by ticket
    for (const auto& nd : g.nodes)
      if (nd.kind == obs::dag::NodeKind::Task) task_at[nd.ticket] = nd.label;
    std::vector<const obs::dag::Node*> causes;  // the task each host wait blocked on
    for (const std::int64_t k : g.host_order) {
      const auto& nd = g.nodes[static_cast<std::size_t>(k)];
      if (nd.kind != obs::dag::NodeKind::Wait) continue;
      ASSERT_GE(nd.cause, 0) << nd.site;
      causes.push_back(&g.nodes[static_cast<std::size_t>(nd.cause)]);
    }

    std::size_t fetch = 1;  // the first wait drains the encode
    for (index_t b = 0; b < boundaries; ++b) {
      SCOPED_TRACE(::testing::Message() << "boundary " << b + 1);
      std::size_t checked = fetch;
      while (checked < causes.size() && causes[checked]->label != check) ++checked;
      ASSERT_LT(checked + 1, causes.size());
      EXPECT_EQ(static_cast<index_t>(checked - fetch + 1), 1 + products + event_waits + 1)
          << "waits from the checkpoint fetch to the check";
      const obs::dag::Node& fetched = *causes[fetch];
      const obs::dag::Node& first = *causes[fetch + 1];
      EXPECT_EQ(fetched.label, "d2h") << "a code checkpoint's d2h ends the fetch";
      EXPECT_EQ(first.label, "d2h") << "the first product's waiter drains its d2h";
      EXPECT_EQ(first.ticket, fetched.ticket + 3);
      EXPECT_EQ(task_at[fetched.ticket + 1], "h2d");
      fetch = checked + 1;
    }
  }
}

// sytrd's online check reads the plain code alone: the reader skips the
// weighted product there. The codes are encoded, and their operand and
// old-panel sums taken, on the host, so a clean run's device SYMVs are one
// per panel column and one in the final sweep, and its line-sum tasks one
// per boundary and one in the final sweep.
TEST(FtDrains, SytrdOnlineCheckAddsNoWeightedSymv) {
  const index_t n = 128, nb = 32;
  hybrid::Device dev;
  const Matrix<double> a0 = input(Algo::Sytrd, n);
  obs::dag::start();
  const Out o = reduce(dev, Algo::Sytrd, Path::Ft, a0, nb);
  const obs::dag::Graph g = obs::dag::stop();
  ASSERT_EQ(o.rep.outcome.status, RecoveryStatus::Clean);
  index_t symv = 0;
  index_t line_sums = 0;
  for (const auto& nd : g.nodes) {
    if (nd.kind != obs::dag::NodeKind::Task) continue;
    if (nd.label == "dev.symv") ++symv;
    if (nd.label == "dev.sum_lines") ++line_sums;
  }
  const index_t boundaries = ft_total_boundaries(n, nb);
  const index_t panel_columns = boundaries * nb;  // 128 = 4·nb: every blocked panel is full
  EXPECT_EQ(symv, panel_columns + 1);
  EXPECT_EQ(line_sums, boundaries + 1);
}

}  // namespace
}  // namespace fth::ft
