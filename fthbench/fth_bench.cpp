// fth_bench — end-to-end and per-layer benchmark of the hybrid two-sided
// reductions and their fault-tolerant counterparts.
//
// One closed-loop caller runs the workload's host-only LAPACK reduction, its
// hybrid driver and the FT counterpart back to back (rotating the order),
// checks every output, and prints every metric by name with its unit and
// sample count. The untraced run reports the end-to-end metrics with every
// obs sink off; a --traced run of the same workload reports the per-layer
// metrics (host kernel probes, device-runtime probes, per-reduction counts,
// driver phases, FT cost split, profiler + DAG numbers, tracing overhead).
// fthbench/README.md has the workload and metric tables and which layer
// metric should move which end-to-end metric.
//
//   fth_bench --workload <name> [--seed 2016] [--seconds 15] [--samples N]
//             [--traced] [--report out.json] [--trace-file trace.json]
//
// The last line of stdout is one JSON object: correct, attempted, failed and
// the metrics of the mode. Exit status: 0 all outputs correct, 1 some output
// failed its check, 2 refused (checker compiled in, NDEBUG unset, an obs
// environment sink set) or bad usage.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <map>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "check/hooks.hpp"
#include "common/flops.hpp"
#include "common/options.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "fault/injector.hpp"
#include "ft/ft_gebrd.hpp"
#include "ft/ft_gehrd.hpp"
#include "ft/ft_sytrd.hpp"
#include "hybrid/dev_blas.hpp"
#include "hybrid/device.hpp"
#include "hybrid/hybrid_gebrd.hpp"
#include "hybrid/hybrid_gehrd.hpp"
#include "hybrid/hybrid_sytrd.hpp"
#include "la/blas2.hpp"
#include "la/blas3.hpp"
#include "la/generate.hpp"
#include "la/norms.hpp"
#include "lapack/gebrd.hpp"
#include "lapack/gehrd.hpp"
#include "lapack/orghr.hpp"
#include "lapack/sytrd.hpp"
#include "lapack/verify.hpp"
#include "obs/dag.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"

#if FTH_HAVE_OPENMP
#include <omp.h>
#endif

using namespace fth;

namespace {

constexpr index_t kNb = 32;
constexpr std::size_t kSetupReps = 5;
constexpr std::size_t kSetupMaxReps = 200;
constexpr double kSetupSeconds = 0.5;
// Bounds on the fully checked outputs (the suite's own bounds).
constexpr double kResidualBound = 1e-13;
constexpr double kOrthBound = 1e-12;

enum class Algo { Gehrd, Sytrd, Gebrd };
// The host-only LAPACK reduction of the same matrix is the third driver of
// every sample: it is the reference the hybrid time is set against.
enum Driver { kHost = 0, kHybrid = 1, kFt = 2 };
constexpr int kDrivers = 3;
constexpr const char* kDriverName[kDrivers] = {"host", "hybrid", "ft"};

struct Workload {
  const char* name;
  Algo algo;
  index_t n;
  bool faults;  ///< every FT run gets one AddDelta fault from the Fig. 6 grid
  /// Seconds of one warm hybrid plus one warm FT reduction on the reference
  /// machine (a 4-vCPU Intel Xeon VM at 2.1 GHz, the lower quartile over 20
  /// runs); the unit setup_s is scaled to.
  double warm_ref_s;
};

// Why each workload exists is recorded in BENCHMARK.json and the README.
constexpr Workload kWorkloads[] = {
    {"hess-n512", Algo::Gehrd, 512, false, 0.110},
    {"hess-n128", Algo::Gehrd, 128, false, 0.0081},
    {"hess-faults-n512", Algo::Gehrd, 512, true, 0.114},
    {"sytrd-n384", Algo::Sytrd, 384, false, 0.063},
    {"gebrd-n384", Algo::Gebrd, 384, false, 0.104},
};

const char* span_name(Algo algo, Driver d) {
  static constexpr const char* kNames[3][kDrivers] = {
      {"bench.lapack.gehrd", "bench.hybrid.hybrid_gehrd", "bench.ft.ft_gehrd"},
      {"bench.lapack.sytrd", "bench.hybrid.hybrid_sytrd", "bench.ft.ft_sytrd"},
      {"bench.lapack.gebrd", "bench.hybrid.hybrid_gebrd", "bench.ft.ft_gebrd"}};
  return kNames[static_cast<int>(algo)][d];
}

// ---------------------------------------------------------------------------
// Statistics and output.

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

/// Nearest-rank percentile (p in (0, 1)).
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// End-to-end metrics are the untraced run's result, layer metrics the
/// traced run's; info metrics are printed and reported but gate nothing.
enum class Kind { EndToEnd, Layer, Info };
constexpr const char* kKindName[3] = {"end_to_end", "layer", "info"};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
  Kind kind = Kind::Info;
};

/// Every metric of one run plus the notes that make it readable.
struct Ledger {
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, std::string>> notes;  // key → JSON value

  void e2e(const std::string& name, double v, const char* unit, std::size_t n) {
    metrics.push_back({name, v, unit, n, Kind::EndToEnd});
  }
  void layer(const std::string& name, double v, const char* unit, std::size_t n) {
    metrics.push_back({name, v, unit, n, Kind::Layer});
  }
  void info(const std::string& name, double v, const char* unit, std::size_t n) {
    metrics.push_back({name, v, unit, n, Kind::Info});
  }
  void note(const std::string& key, const std::string& v) { notes.emplace_back(key, json_string(v)); }
  void note(const std::string& key, double v) { notes.emplace_back(key, json_number(v)); }
};

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

bool obs_armed() {
  return obs::profile_enabled() || obs::trace_enabled() || obs::dag::enabled();
}

// ---------------------------------------------------------------------------
// Reductions.

/// One reduction's output: the factored matrix and the algorithm's vectors
/// (gehrd: tau; sytrd: d, e, tau; gebrd: d, e, tauq, taup).
struct Output {
  Matrix<double> a;
  std::vector<std::vector<double>> v;
};

Output make_output(Algo algo, index_t n) {
  const auto len = [](index_t k) { return std::vector<double>(static_cast<std::size_t>(k)); };
  switch (algo) {
    case Algo::Gehrd: return {Matrix<double>(n, n), {len(n - 1)}};
    case Algo::Sytrd: return {Matrix<double>(n, n), {len(n), len(n - 1), len(n - 1)}};
    case Algo::Gebrd: return {Matrix<double>(n, n), {len(n), len(n - 1), len(n), len(n - 1)}};
  }
  return {};
}

VectorView<double> vec(std::vector<double>& v) {
  return VectorView<double>(v.data(), static_cast<index_t>(v.size()));
}
VectorView<const double> cvec(const std::vector<double>& v) {
  return VectorView<const double>(v.data(), static_cast<index_t>(v.size()));
}

/// One timed call into a driver, with what the library reported about it.
struct Run {
  double seconds = 0.0;
  hybrid::HybridGehrdStats st;
  ft::FtReport rep;
  std::uint64_t tasks = 0;
  std::size_t faults = 0;  ///< faults the injector applied
  bool traced = false;
  std::string error;  ///< non-empty when the call threw
};

Run reduce(hybrid::Device& dev, Algo algo, Driver drv, const Matrix<double>& a0, Output& out,
           fault::Injector* inj) {
  out.a.assign(a0.cview());
  Run r;
  hybrid::Stream& s = dev.stream();
  const std::uint64_t tasks0 = s.tasks_executed();
  WallTimer timer;
  try {
    const obs::TraceSpan span("bench", span_name(algo, drv));
    auto a = out.a.view();
    switch (algo) {
      case Algo::Gehrd:
        if (drv == kHost)
          lapack::gehrd(a, vec(out.v[0]), {.nb = kNb, .nx = kNb});
        else if (drv == kHybrid)
          hybrid::hybrid_gehrd(dev, a, vec(out.v[0]), {.nb = kNb, .nx = kNb}, &r.st);
        else
          ft::ft_gehrd(dev, a, vec(out.v[0]), {.nb = kNb}, inj, &r.rep, &r.st);
        break;
      case Algo::Sytrd:
        if (drv == kHost)
          lapack::sytrd(a, vec(out.v[0]), vec(out.v[1]), vec(out.v[2]), {.nb = kNb, .nx = kNb});
        else if (drv == kHybrid)
          hybrid::hybrid_sytrd(dev, a, vec(out.v[0]), vec(out.v[1]), vec(out.v[2]),
                               {.nb = kNb, .nx = kNb}, &r.st);
        else
          ft::ft_sytrd(dev, a, vec(out.v[0]), vec(out.v[1]), vec(out.v[2]), {.nb = kNb},
                       nullptr, &r.rep, &r.st);
        break;
      case Algo::Gebrd:
        if (drv == kHost)
          lapack::gebrd(a, vec(out.v[0]), vec(out.v[1]), vec(out.v[2]), vec(out.v[3]),
                        {.nb = kNb, .nx = kNb});
        else if (drv == kHybrid)
          hybrid::hybrid_gebrd(dev, a, vec(out.v[0]), vec(out.v[1]), vec(out.v[2]),
                               vec(out.v[3]), {.nb = kNb, .nx = kNb}, &r.st);
        else
          ft::ft_gebrd(dev, a, vec(out.v[0]), vec(out.v[1]), vec(out.v[2]), vec(out.v[3]),
                       {.nb = kNb}, nullptr, &r.rep, &r.st);
        break;
    }
  } catch (const std::exception& e) {
    r.error = e.what();
  }
  r.seconds = timer.seconds();
  try {
    s.synchronize();
  } catch (const std::exception& e) {
    if (r.error.empty()) r.error = e.what();
  }
  r.tasks = s.tasks_executed() - tasks0;
  if (inj != nullptr) r.faults = inj->history().size();
  return r;
}

struct Quality {
  double residual = 0.0;
  double orth = 0.0;
};

/// Full check: rebuild the orthogonal factor(s) and the condensed form.
Quality verify_full(Algo algo, const Matrix<double>& a0, const Output& out) {
  const index_t n = a0.rows();
  switch (algo) {
    case Algo::Gehrd: {
      const lapack::VerifyResult r =
          lapack::verify_reduction(a0.cview(), out.a.cview(), cvec(out.v[0]));
      return {r.residual, r.orthogonality};
    }
    case Algo::Sytrd: {
      const Matrix<double> t = lapack::tridiagonal_from(cvec(out.v[0]), cvec(out.v[1]));
      const Matrix<double> q = lapack::orghr(out.a.cview(), cvec(out.v[2]));
      return {lapack::hessenberg_residual(a0.cview(), q.cview(), t.cview()),
              lapack::orthogonality_residual(q.cview())};
    }
    case Algo::Gebrd: {
      const Matrix<double> b = lapack::bidiagonal_from(cvec(out.v[0]), cvec(out.v[1]));
      const Matrix<double> q = lapack::orgbr_q(out.a.cview(), cvec(out.v[2]));
      const Matrix<double> p = lapack::orgbr_p(out.a.cview(), cvec(out.v[3]));
      Matrix<double> qb(n, n);
      blas::gemm(Trans::No, Trans::No, 1.0, q.cview(), b.cview(), 0.0, qb.view());
      Matrix<double> r(a0.cview());
      blas::gemm(Trans::No, Trans::Yes, -1.0, qb.cview(), p.cview(), 1.0, r.view());
      const double na = norm_one(a0.cview());
      return {norm_one(r.cview()) / (static_cast<double>(n) * std::max(na, 1e-300)),
              std::max(lapack::orthogonality_residual(q.cview()),
                       lapack::orthogonality_residual(p.cview()))};
    }
  }
  return {};
}

bool bitwise_equal(const Output& x, const Output& y) {
  const auto bytes = static_cast<std::size_t>(x.a.rows() * x.a.cols()) * sizeof(double);
  if (std::memcmp(x.a.data(), y.a.data(), bytes) != 0) return false;
  for (std::size_t k = 0; k < x.v.size(); ++k)
    if (std::memcmp(x.v[k].data(), y.v[k].data(), x.v[k].size() * sizeof(double)) != 0)
      return false;
  return true;
}

double max_diff(const Output& x, const Output& y) {
  double d = max_abs_diff(x.a.cview(), y.a.cview());
  for (std::size_t k = 0; k < x.v.size(); ++k)
    for (std::size_t i = 0; i < x.v[k].size(); ++i)
      d = std::max(d, std::abs(x.v[k][i] - y.v[k][i]));
  return d;
}

/// The same "some FT mechanism saw the fault" rule run_campaign applies.
bool ft_fired(const ft::FtReport& rep) {
  return rep.detections > 0 || rep.ckpt_rederivations > 0 || rep.reconstructions > 0 ||
         rep.panel_aborts > 0 || rep.final_sweep_corrections > 0 || rep.q_corrections > 0;
}

/// Checks every attempted reduction. A clean output is compared bitwise with
/// the driver's first (fully verified) output and fully re-verified only on
/// a mismatch; a faulted output must match the clean FT output to
/// 1e-8·max(1, ‖A‖max), as in run_campaign.
class Checker {
 public:
  Checker(Algo algo, const Matrix<double>& a0)
      : algo_(algo), a0_(a0), scale_(std::max(1.0, norm_max(a0.cview()))) {}

  void check(Driver d, const Run& r, const Output& out, bool faulted) {
    ++attempted;
    std::string why;
    if (!r.error.empty()) {
      why = "threw: " + r.error;
    } else if (faulted) {
      ++faulted_runs;
      const double err = max_diff(out, ref_[kFt]) / scale_;
      err_vs_clean_max = std::max(err_vs_clean_max, err);
      if (ft_fired(r.rep)) ++detected_runs;
      else why = "faulted run: no FT mechanism fired";
      if (why.empty() && !(err <= 1e-8)) why = "faulted run differs from the clean output";
    } else {
      if (d == kFt && r.rep.detections > 0) {
        ++false_alarms;
        why = "false alarm on a clean run";
      }
      if (!has_ref_[d]) {
        why = why.empty() ? full_check(out) : why;
        ref_[d] = out;
        has_ref_[d] = true;
      } else if (!bitwise_equal(out, ref_[d])) {
        ++bitwise_mismatches;
        if (why.empty()) why = full_check(out);
      }
    }
    if (!why.empty()) {
      ++failed;
      if (failures.size() < 5) failures.push_back(std::string(kDriverName[d]) + ": " + why);
    }
  }

  long attempted = 0, failed = 0, bitwise_mismatches = 0, full_checks = 0;
  long faulted_runs = 0, detected_runs = 0, false_alarms = 0;
  double residual_max = 0.0, orth_max = 0.0, err_vs_clean_max = 0.0;
  std::vector<std::string> failures;

 private:
  std::string full_check(const Output& out) {
    ++full_checks;
    const Quality q = verify_full(algo_, a0_, out);
    residual_max = std::max(residual_max, q.residual);
    orth_max = std::max(orth_max, q.orth);
    if (!(q.residual <= kResidualBound)) return "residual " + json_number(q.residual);
    if (!(q.orth <= kOrthBound)) return "orthogonality " + json_number(q.orth);
    return {};
  }

  Algo algo_;
  const Matrix<double>& a0_;
  double scale_;  ///< max(1, ‖A‖max)
  Output ref_[kDrivers];
  bool has_ref_[kDrivers] = {};
};

/// The k-th fault of the Fig. 6 grid: areas 1–3 × moments B/M/E, with a
/// fresh placement seed per run.
fault::Injector grid_fault(std::uint64_t seed, long k) {
  fault::FaultSpec spec;
  spec.area = static_cast<fault::Area>(1 + k % 3);
  spec.moment = static_cast<fault::Moment>((k / 3) % 3);
  Rng rng(seed ^ (0x9E3779B97F4A7C15ull * static_cast<std::uint64_t>(k + 1)));
  return fault::Injector(spec, rng.next());
}

// ---------------------------------------------------------------------------
// Per-layer probes (traced run only). Each returns medians, never a single
// sample; all run before the timed loop.

template <class F>
std::vector<double> time_reps(F&& f, int min_reps, double min_seconds, int max_reps) {
  std::vector<double> t;
  WallTimer total;
  while (static_cast<int>(t.size()) < max_reps &&
         (static_cast<int>(t.size()) < min_reps || total.seconds() < min_seconds)) {
    WallTimer one;
    f();
    t.push_back(one.seconds());
  }
  return t;
}

/// Per-rep differences and ratios of a device pattern against the host call
/// it offloads, timed alternately so both see the same machine conditions.
struct Paired {
  std::vector<double> device_s, extra_s, ratio;
};

template <class H, class D>
Paired time_paired(H&& host, D&& device, int min_reps, double min_seconds) {
  Paired p;
  WallTimer total;
  while (static_cast<int>(p.ratio.size()) < min_reps || total.seconds() < min_seconds) {
    WallTimer th;
    host();
    const double h = th.seconds();
    WallTimer td;
    device();
    const double d = td.seconds();
    p.device_s.push_back(d);
    p.extra_s.push_back(d - h);
    p.ratio.push_back(d / h);
  }
  return p;
}

/// The fth_roofline method: square 512 dgemm, median of 3. Also notes the
/// CPU time over wall time of those calls: ≈1 while the BLAS runs on one
/// thread, ≈threads once it is parallel.
double roof_gflops(std::uint64_t seed, Ledger& L) {
  const index_t r = 512;
  const Matrix<double> a = random_matrix(r, r, seed + 1), b = random_matrix(r, r, seed + 2);
  Matrix<double> c(r, r);
  const double cpu0 = cpu_seconds();
  WallTimer wall;
  const auto t = time_reps(
      [&] {
        const obs::TraceSpan span("bench", "bench.la.gemm");
        blas::gemm(Trans::No, Trans::No, 1.0, a.cview(), b.cview(), 0.0, c.view());
      },
      3, 0.0, 3);
  L.note("blas_cpu_per_wall", (cpu_seconds() - cpu0) / wall.seconds());
  const double roof = static_cast<double>(flops::gemm(r, r, r)) / median(t) / 1e9;
  L.note("la.roof_gflops", roof);
  return roof;
}

void probe_la(index_t n, std::uint64_t seed, double roof, Ledger& L) {
  L.layer("la.roof_gflops", roof, "GF/s", 3);
  {
    const Matrix<double> y = random_matrix(n + 1, kNb, seed + 3);
    const Matrix<double> v = random_matrix(n - kNb, kNb, seed + 4);
    Matrix<double> c = random_matrix(n + 1, n - kNb, seed + 5);
    const auto t = time_reps(
        [&] {
          const obs::TraceSpan span("bench", "bench.la.gemm");
          blas::gemm(Trans::No, Trans::Yes, -1.0, y.cview(), v.cview(), 1.0, c.view());
        },
        5, 0.1, 200);
    const double gf = static_cast<double>(flops::gemm(n + 1, n - kNb, kNb)) / median(t) / 1e9;
    L.layer("la.gemm_update.gflops", gf, "GF/s", t.size());
    L.layer("la.gemm_update.roof_frac", ratio(gf, roof), "ratio", t.size());
  }
  {
    const index_t h = n / 2;
    const Matrix<double> a = random_matrix(h, h, seed + 6), v = random_matrix(h, kNb, seed + 7);
    Matrix<double> y(h, kNb);
    const auto t = time_reps(
        [&] {
          const obs::TraceSpan span("bench", "bench.la.gemm");
          blas::gemm(Trans::No, Trans::No, 1.0, a.cview(), v.cview(), 0.0, y.view());
        },
        5, 0.1, 500);
    L.layer("la.gemm_ytop.gflops", static_cast<double>(flops::gemm(h, kNb, h)) / median(t) / 1e9,
            "GF/s", t.size());
  }
  {
    const index_t m = n - 1;
    const Matrix<double> a = random_matrix(m, m, seed + 8);
    const Matrix<double> s = random_symmetric_matrix(m, seed + 9);
    std::vector<double> x(static_cast<std::size_t>(m), 1.0), y(static_cast<std::size_t>(m));
    const auto tg = time_reps(
        [&] {
          const obs::TraceSpan span("bench", "bench.la.gemv");
          blas::gemv(Trans::No, 1.0, a.cview(), cvec(x), 0.0, vec(y));
        },
        5, 0.1, 2000);
    const auto ts = time_reps(
        [&] {
          const obs::TraceSpan span("bench", "bench.la.symv");
          blas::symv(Uplo::Lower, 1.0, s.cview(), cvec(x), 0.0, vec(y));
        },
        5, 0.1, 2000);
    const double dm = static_cast<double>(m);
    // Computed bytes: the matrix (or its stored triangle) read once.
    L.layer("la.gemv_panel.gbps", 8.0 * dm * dm / median(tg) / 1e9, "GB/s", tg.size());
    L.layer("la.symv_panel.gbps", 4.0 * dm * (dm + 1.0) / median(ts) / 1e9, "GB/s", ts.size());
  }
}

void probe_device(hybrid::Device& dev, index_t n, std::uint64_t seed, Ledger& L) {
  hybrid::Stream& s = dev.stream();
  const auto noop = [] {};
  {
    std::vector<double> t;
    for (int k = 0; k < 2000; ++k) {
      WallTimer w;
      s.enqueue("bench.noop", noop);
      s.synchronize();
      t.push_back(w.seconds());
    }
    L.layer("hybrid.task_rt_us", 1e6 * median(t), "us", t.size());
    t.clear();
    for (int k = 0; k < 2000; ++k) {
      WallTimer w;
      s.enqueue("bench.noop", noop);
      const hybrid::Event e = s.record();
      e.wait();
      t.push_back(w.seconds());
    }
    L.layer("hybrid.event_rt_us", 1e6 * median(t), "us", t.size());
    t.clear();
    constexpr int kBatch = 100;
    for (int b = 0; b < 20; ++b) {
      WallTimer w;
      for (int k = 0; k < kBatch; ++k) s.enqueue("bench.noop", noop);
      t.push_back(w.seconds() / kBatch);
      s.synchronize();
    }
    L.layer("hybrid.enqueue_us", 1e6 * median(t), "us", t.size() * kBatch);
  }
  const index_t m = n - 1;
  {
    // The per-column panel pattern of the hybrid drivers: ship the
    // reflector, launch the trailing gemv, fetch the product synchronously.
    const Matrix<double> a = random_matrix(n, n, seed + 10);
    hybrid::DeviceMatrix<double> d_a(dev, n, n, "bench.d_a");
    hybrid::DeviceMatrix<double> d_v(dev, m, 1, "bench.d_v");
    hybrid::DeviceMatrix<double> d_y(dev, m, 1, "bench.d_y");
    hybrid::copy_h2d(s, a.cview(), d_a.view());
    std::vector<double> x(static_cast<std::size_t>(m), 1.0), y(static_cast<std::size_t>(m));
    const Paired p = time_paired(
        [&] {
          const obs::TraceSpan span("bench", "bench.la.gemv");
          blas::gemv(Trans::No, 1.0, a.block(1, 1, m, m), cvec(x), 0.0, vec(y));
        },
        [&] {
          const obs::TraceSpan span("bench", "bench.hybrid.panel_column");
          hybrid::copy_h2d_async(s, MatrixView<const double>(x.data(), m, 1, m), d_v.view());
          hybrid::gemv_async(s, Trans::No, 1.0, d_a.block(1, 1, m, m), d_v.view().col(0), 0.0,
                             d_y.view().col(0));
          hybrid::copy_d2h(s, d_y.view(), MatrixView<double>(y.data(), m, 1, m));
        },
        20, 0.2);
    L.layer("hybrid.col_rt_us", 1e6 * median(p.device_s), "us", p.ratio.size());
    L.layer("hybrid.col_tax_us", 1e6 * median(p.extra_s), "us", p.ratio.size());
  }
  {
    const Matrix<double> y = random_matrix(n + 1, kNb, seed + 11);
    const Matrix<double> v = random_matrix(n - kNb, kNb, seed + 12);
    Matrix<double> c = random_matrix(n + 1, n - kNb, seed + 13);
    hybrid::DeviceMatrix<double> d_y(dev, n + 1, kNb, "bench.d_y");
    hybrid::DeviceMatrix<double> d_v(dev, n - kNb, kNb, "bench.d_v");
    hybrid::DeviceMatrix<double> d_c(dev, n + 1, n - kNb, "bench.d_c");
    hybrid::copy_h2d(s, y.cview(), d_y.view());
    hybrid::copy_h2d(s, v.cview(), d_v.view());
    hybrid::copy_h2d(s, c.cview(), d_c.view());
    const Paired p = time_paired(
        [&] {
          const obs::TraceSpan span("bench", "bench.la.gemm");
          blas::gemm(Trans::No, Trans::Yes, -1.0, y.cview(), v.cview(), 1.0, c.view());
        },
        [&] {
          const obs::TraceSpan span("bench", "bench.hybrid.gemm_async");
          hybrid::gemm_async(s, Trans::No, Trans::Yes, -1.0, d_y.view(), d_v.view(), 1.0,
                             d_c.view());
          s.synchronize();
        },
        10, 0.2);
    L.layer("hybrid.gemm_tax_pct", 100.0 * (median(p.ratio) - 1.0), "%", p.ratio.size());
  }
  {
    const Matrix<double> p = random_matrix(n, kNb, seed + 14);
    hybrid::DeviceMatrix<double> d_p(dev, n, kNb, "bench.d_p");
    const auto t = time_reps(
        [&] {
          const obs::TraceSpan span("bench", "bench.hybrid.h2d");
          hybrid::copy_h2d(s, p.cview(), d_p.view());
        },
        20, 0.05, 2000);
    L.layer("hybrid.h2d_panel_gbps", 8.0 * static_cast<double>(n * kNb) / median(t) / 1e9,
            "GB/s", t.size());
  }
  s.synchronize();
}

/// Profiler + DAG totals over the traced pairs.
struct TracedTotals {
  long pairs = 0;
  long syncs = 0;
  double prof_wall = 0.0, busy = 0.0, host_wait = 0.0, overlapped = 0.0;
  double dag_wall = 0.0, critical = 0.0, la1_wall = 0.0;
  std::map<std::string, double> wait_by_site;

  void add(const obs::ProfileReport& prof, const obs::dag::Graph& g) {
    ++pairs;
    prof_wall += prof.wall_s;
    busy += prof.device_busy_s;
    host_wait += prof.host_wait_s;
    overlapped += prof.overlapped_s;
    const obs::dag::Analysis an = obs::dag::analyze(g);
    dag_wall += an.wall_s;
    critical += an.critical_path_s;
    for (const obs::dag::CauseGroup& c : an.blocking) wait_by_site[c.site] += c.seconds;
    for (const obs::dag::Node& nd : g.nodes)
      if (nd.kind == obs::dag::NodeKind::Wait && nd.label == "synchronize") ++syncs;
    la1_wall += obs::dag::simulate(g, {"lookahead1_streams2", 1, 2, 1.0}).wall_s;
  }
};

// ---------------------------------------------------------------------------

[[noreturn]] void refuse(const std::string& why) {
  std::fprintf(stderr, "fth_bench: refusing to run: %s\n", why.c_str());
  std::fflush(stderr);
  // _Exit: an environment-armed obs sink must not write its files on the
  // way out of a refused run.
  std::_Exit(2);
}

void refuse_unless_clean_build() {
  if (check::compiled_in()) refuse("the fth::check checker is compiled in (FTH_CHECK_ENABLED)");
#ifndef NDEBUG
  refuse("NDEBUG is unset: build with CMAKE_BUILD_TYPE=Release");
#endif
  for (const char* var : {"FTH_TRACE", "FTH_DAG", "FTH_FLIGHT", "FTH_JOURNAL", "FTH_INCIDENT"}) {
    const char* v = std::getenv(var);
    if (v != nullptr && v[0] != '\0') refuse(std::string(var) + " is set");
  }
}

std::string metrics_json(const std::vector<Metric>& ms, Kind kind) {
  std::string out = "{";
  for (const Metric& m : ms) {
    if (m.kind != kind) continue;
    if (out.size() > 1) out += ", ";
    out += json_string(m.name) + ": {\"value\": " + json_number(m.value) +
           ", \"unit\": " + json_string(m.unit) + "}";
  }
  return out + "}";
}

void write_report(const std::string& path, const Workload& w, std::uint64_t seed, bool traced,
                  const Checker& chk, const Ledger& L) {
  std::ofstream os(path);
  if (!os) {
    std::fprintf(stderr, "fth_bench: cannot write report %s\n", path.c_str());
    return;
  }
  os << "{\n  \"bench\": \"fth_bench\",\n  \"workload\": " << json_string(w.name)
     << ",\n  \"seed\": " << seed << ",\n  \"traced\": " << (traced ? "true" : "false")
     << ",\n  \"correct\": " << (chk.failed == 0 ? "true" : "false")
     << ",\n  \"attempted\": " << chk.attempted << ",\n  \"failed\": " << chk.failed
     << ",\n  \"notes\": {";
  for (std::size_t i = 0; i < L.notes.size(); ++i)
    os << (i == 0 ? "\n    " : ",\n    ") << json_string(L.notes[i].first) << ": "
       << L.notes[i].second;
  os << "\n  },\n  \"metrics\": {";
  for (std::size_t i = 0; i < L.metrics.size(); ++i) {
    const Metric& m = L.metrics[i];
    os << (i == 0 ? "\n    " : ",\n    ") << json_string(m.name) << ": {\"value\": "
       << json_number(m.value) << ", \"unit\": " << json_string(m.unit)
       << ", \"samples\": " << m.samples << ", \"kind\": \""
       << kKindName[static_cast<int>(m.kind)] << "\"}";
  }
  os << "\n  },\n  \"failures\": [";
  for (std::size_t i = 0; i < chk.failures.size(); ++i)
    os << (i == 0 ? "" : ", ") << json_string(chk.failures[i]);
  os << "]\n}\n";
}

int run(const Options& opt) {
  const std::string wname = opt.get("workload", "");
  const Workload* wp = nullptr;
  for (const Workload& w : kWorkloads)
    if (wname == w.name) wp = &w;
  if (wp == nullptr) {
    std::fprintf(stderr, "fth_bench: unknown --workload '%s'; one of:", wname.c_str());
    for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
    std::fprintf(stderr, "\n");
    return 2;
  }
  const Workload& w = *wp;
  const auto seed = static_cast<std::uint64_t>(opt.get_long("seed", 2016));
  const double seconds = opt.get_double("seconds", 15.0);
  const long max_samples = opt.get_long("samples", 0);  // 0: bounded by --seconds only
  const bool traced = opt.has("traced");
  const std::string trace_file = opt.get("trace-file", std::string("fth_bench_") + w.name + "_trace.json");
  if (obs_armed()) refuse("an obs sink is armed before the first reduction");

  Ledger L;
  L.note("workload", w.name);
  L.notes.emplace_back("seed", std::to_string(seed));
  L.note("n", static_cast<double>(w.n));
  L.note("nb", static_cast<double>(kNb));
  L.note("mode", traced ? "traced" : "untraced");
  L.note("seconds", seconds);
  L.note("hardware_concurrency", static_cast<double>(std::thread::hardware_concurrency()));
#if FTH_HAVE_OPENMP
  L.note("omp_max_threads", static_cast<double>(omp_get_max_threads()));
#else
  L.note("omp_max_threads", 1.0);
#endif
  L.note("build_type", FTH_BENCH_BUILD_TYPE);
  L.note("checker_compiled_in", check::compiled_in() ? "yes" : "no");
  L.note("threads", "2: the host caller and one hybrid::Device stream worker");

  const Matrix<double> a0 =
      w.algo == Algo::Sytrd ? random_symmetric_matrix(w.n, seed) : random_matrix(w.n, w.n, seed);
  Checker chk(w.algo, a0);
  Output out[kDrivers] = {make_output(w.algo, w.n), make_output(w.algo, w.n),
                          make_output(w.algo, w.n)};

  // Set-up: a fresh Device and the first (cold) reduction of each device
  // driver on it, repeated at least kSetupReps times and kSetupSeconds. The
  // first outputs become the verified references.
  std::vector<double> setup;
  {
    WallTimer total;
    while (setup.size() < kSetupReps ||
           (total.seconds() < kSetupSeconds && setup.size() < kSetupMaxReps)) {
      WallTimer t;
      Run runs[kDrivers];
      {
        hybrid::Device dev;
        for (const Driver d : {kHybrid, kFt}) runs[d] = reduce(dev, w.algo, d, a0, out[d], nullptr);
        setup.push_back(t.seconds());
      }
      for (const Driver d : {kHybrid, kFt}) chk.check(d, runs[d], out[d], false);
    }
  }

  hybrid::Device dev;
  long fault_index = 0;
  // One sample: the drivers in `order`, then their checks. The caller arms
  // the obs sinks around a traced sample, which never holds the host driver.
  const auto run_sample = [&](std::span<const Driver> order, bool traced_sample,
                              std::vector<Run>* sink) {
    Run runs[kDrivers];
    fault::Injector inj;
    for (const Driver d : order) {
      fault::Injector* ip = nullptr;
      if (d == kFt && w.faults) {
        inj = grid_fault(seed, fault_index++);
        ip = &inj;
      }
      runs[d] = reduce(dev, w.algo, d, a0, out[d], ip);
      runs[d].traced = traced_sample;
    }
    for (const Driver d : order) {
      chk.check(d, runs[d], out[d], d == kFt && w.faults);
      if (sink != nullptr) sink[d].push_back(runs[d]);
    }
  };

  // The drivers' order rotates from sample to sample.
  const std::array<Driver, kDrivers> kOrders[kDrivers] = {
      {kHost, kHybrid, kFt}, {kHybrid, kFt, kHost}, {kFt, kHost, kHybrid}};
  run_sample(kOrders[0], false, nullptr);  // warm-up: the Device's lazy set-up

  const double roof = roof_gflops(seed, L);
  if (traced) {
    probe_la(w.n, seed, roof, L);
    probe_device(dev, w.n, seed, L);
    // Exact FLOP counts of one clean reduction per driver (Section V).
    std::uint64_t fl[kDrivers] = {};
    for (const Driver d : {kHybrid, kFt}) {
      const flops::Scope scope;
      const Run r = reduce(dev, w.algo, d, a0, out[d], nullptr);
      fl[d] = scope.delta();
      chk.check(d, r, out[d], false);
    }
    const double extra = ratio(static_cast<double>(fl[kFt]), static_cast<double>(fl[kHybrid]));
    L.layer("ft.extra_flops_pct", 100.0 * (extra - 1.0), "%", 1);
  }

  // The timed loop: closed, one caller, samples back to back until the
  // budget is spent. In a traced run every other two samples trace their
  // device drivers, so traced and untraced samples interleave under the
  // same machine conditions.
  const std::array<Driver, 1> kHostOnly = {kHost};
  const std::array<Driver, 2> kPairs[2] = {{kHybrid, kFt}, {kFt, kHybrid}};
  std::vector<Run> samples[kDrivers];
  TracedTotals tt;
  long armed_untraced = 0;
  bool trace_written = false;
  WallTimer budget;
  for (long k = 0; (max_samples <= 0 || k < max_samples) && (k == 0 || budget.seconds() < seconds);
       ++k) {
    if (!traced || (k / 2) % 2 == 0) {
      if (obs_armed()) ++armed_untraced;
      run_sample(kOrders[k % kDrivers], false, samples);
      if (obs_armed()) ++armed_untraced;
      continue;
    }
    run_sample(kHostOnly, false, samples);
    const bool to_file = !trace_written && !trace_file.empty();
    if (to_file) obs::trace_start(trace_file);
    obs::profile_start();
    obs::dag::start();
    run_sample(kPairs[k % 2], true, samples);
    const obs::dag::Graph g = obs::dag::stop();
    const obs::ProfileReport prof = obs::profile_stop();
    if (to_file) {
      obs::trace_stop();
      trace_written = true;
    }
    tt.add(prof, g);
  }
  L.note("timed_samples_with_obs_armed", static_cast<double>(armed_untraced));
  if (armed_untraced > 0) {
    std::fprintf(stderr, "fth_bench: an obs sink was armed during an untraced sample\n");
    return 1;
  }

  // --- metrics from the samples --------------------------------------------
  const auto collect = [&](Driver d, bool want_traced, auto&& field) {
    std::vector<double> v;
    for (const Run& r : samples[d])
      if (r.traced == want_traced) v.push_back(field(r));
    return v;
  };
  const auto secs = [](const Run& r) { return r.seconds; };
  std::vector<double> t_untraced[kDrivers], t_traced[kDrivers];
  for (const Driver d : {kHost, kHybrid, kFt}) {
    t_untraced[d] = collect(d, false, secs);
    t_traced[d] = collect(d, true, secs);
  }

  if (!traced) {
    // Gated: ratios of drivers that ran back to back in the same sample,
    // which the machine's load moves together. The seconds themselves, and
    // the tail (p90: the highest percentile with at least ten samples beyond
    // it at these counts), are reported but gate nothing: on the shared
    // reference VM they moved by up to 50% between quarter-hours.
    // setup_s is the cold set-up in reference seconds: the measured median
    // scaled by the warm reductions' reference time over their time in this
    // run. Work moved from the reductions into set-up raises it twice over.
    const double warm = median(t_untraced[kHybrid]) + median(t_untraced[kFt]);
    L.e2e("setup_s", median(setup) * w.warm_ref_s / warm, "s", setup.size());
    L.info("setup_s.measured", median(setup), "s", setup.size());
    const auto paired = [&](Driver num, Driver den) {
      std::vector<double> r;
      for (std::size_t i = 0; i < samples[num].size(); ++i)
        r.push_back(samples[num][i].seconds / samples[den][i].seconds);
      return r;
    };
    const std::vector<double> hybrid_host = paired(kHybrid, kHost), ft_hybrid = paired(kFt, kHybrid);
    L.e2e("hybrid_over_host.p50", median(hybrid_host), "ratio", hybrid_host.size());
    L.e2e("ft_over_hybrid.p50", median(ft_hybrid), "ratio", ft_hybrid.size());
  }
  for (const Driver d : {kHost, kHybrid, kFt}) {
    const std::string base = std::string(kDriverName[d]) + "_s.";
    const std::size_t ns = t_untraced[d].size();
    L.info(base + "p50", median(t_untraced[d]), "s", ns);
    L.info(base + "p90", percentile(t_untraced[d], 0.9), "s", ns);
  }

  // Per-reduction counts and driver phases, over every timed sample.
  for (const Driver d : {kFt, kHybrid}) {
    const std::string sfx = std::string(".") + kDriverName[d];
    std::vector<double> tasks, transfers, mb, depth, panel, update, accounted;
    for (const Run& r : samples[d]) {
      const hybrid::HybridGehrdStats& st = r.st;
      tasks.push_back(static_cast<double>(r.tasks));
      transfers.push_back(static_cast<double>(st.h2d_count + st.d2h_count));
      mb.push_back(static_cast<double>(st.h2d_bytes + st.d2h_bytes) / 1e6);
      depth.push_back(static_cast<double>(st.peak_queue_depth));
      panel.push_back(ratio(st.panel_seconds, st.total_seconds));
      update.push_back(ratio(st.update_seconds, st.total_seconds));
      accounted.push_back(
          ratio(st.panel_seconds + st.update_seconds + st.finish_seconds, st.total_seconds));
    }
    const std::size_t ns = samples[d].size();
    L.layer("hybrid.tasks" + sfx, median(tasks), "count", ns);
    L.layer("hybrid.transfers" + sfx, median(transfers), "count", ns);
    L.layer("hybrid.mb_moved" + sfx, median(mb), "MB", ns);
    L.layer("hybrid.peak_queue_depth" + sfx, median(depth), "count", ns);
    L.layer("drv.panel_frac" + sfx, median(panel), "ratio", ns);
    L.layer("drv.update_frac" + sfx, median(update), "ratio", ns);
    L.layer("drv.accounted_frac" + sfx, median(accounted), "ratio", ns);
  }
  if (!samples[kFt].empty())
    L.layer("hybrid.dev_peak_mb.ft",
            static_cast<double>(samples[kFt].back().st.dev_peak_bytes) / 1e6, "MB", 1);

  // The FT cost split: FtReport seconds summed over the untraced FT samples,
  // over their summed wall time (a sum, not a median, because recovery is
  // zero on most runs of the fault workload).
  {
    const auto frac = [&](auto&& part) {
      double num = 0.0, den = 0.0;
      for (const Run& r : samples[kFt])
        if (!r.traced) {
          num += part(r.rep);
          den += r.st.total_seconds;
        }
      return ratio(num, den);
    };
    const std::size_t nf = t_untraced[kFt].size();
    L.layer("ft.overhead_pct",
            100.0 * (ratio(median(t_untraced[kFt]), median(t_untraced[kHybrid])) - 1.0), "%", nf);
    L.layer("ft.encode_frac", frac([](const ft::FtReport& r) { return r.encode_seconds; }),
            "ratio", nf);
    L.layer("ft.chk_update_frac",
            frac([](const ft::FtReport& r) { return r.checksum_update_seconds; }), "ratio", nf);
    L.layer("ft.detect_frac", frac([](const ft::FtReport& r) { return r.detect_seconds; }),
            "ratio", nf);
    L.layer("ft.q_frac", frac([](const ft::FtReport& r) { return r.q_seconds; }), "ratio", nf);
    L.layer("ft.recovery_frac", frac([](const ft::FtReport& r) { return r.recovery_seconds; }),
            "ratio", nf);
    double margin = 0.0;
    long rollbacks = 0, injected = 0;
    for (const Run& r : samples[kFt]) {
      margin = std::max(margin, ratio(r.rep.max_fault_free_gap, r.rep.threshold));
      rollbacks += r.rep.rollbacks;
      injected += static_cast<long>(r.faults);
    }
    const std::size_t all_ft = samples[kFt].size();
    L.layer("ft.gap_margin", margin, "ratio", all_ft);
    L.layer("ft.false_alarms", static_cast<double>(chk.false_alarms), "count", all_ft);
    L.layer("ft.detect_rate",
            ratio(static_cast<double>(chk.detected_runs), static_cast<double>(chk.faulted_runs)),
            "ratio", static_cast<std::size_t>(chk.faulted_runs));
    L.layer("ft.rollbacks_per_fault",
            ratio(static_cast<double>(rollbacks), static_cast<double>(injected)), "count",
            all_ft);
    L.layer("ft.err_vs_clean_max", chk.err_vs_clean_max, "1",
            static_cast<std::size_t>(chk.faulted_runs));
    L.layer("fault.injected", static_cast<double>(injected), "count", all_ft);
  }

  if (traced) {
    const std::size_t nt = static_cast<std::size_t>(2 * tt.pairs);
    L.layer("drv.overlap_fraction", ratio(tt.overlapped, tt.busy), "ratio", nt);
    L.layer("drv.host_wait_frac", ratio(tt.host_wait, tt.prof_wall), "ratio", nt);
    L.layer("drv.device_busy_frac", ratio(tt.busy, tt.prof_wall), "ratio", nt);
    std::string top_site = "none";
    double top_s = 0.0;
    for (const auto& [site, sec] : tt.wait_by_site)
      if (sec > top_s) {
        top_site = site;
        top_s = sec;
      }
    L.layer("drv.top_wait_frac", ratio(top_s, tt.dag_wall), "ratio", nt);
    L.note("drv.top_wait_site", top_site);
    L.layer("drv.syncs_per_red", ratio(static_cast<double>(tt.syncs), static_cast<double>(nt)),
            "count", nt);
    L.layer("drv.critical_path_frac", ratio(tt.critical, tt.dag_wall), "ratio", nt);
    L.layer("drv.whatif_la1_speedup", ratio(tt.dag_wall, tt.la1_wall), "x", nt);
    const double untraced_sum = median(t_untraced[kHybrid]) + median(t_untraced[kFt]);
    const double traced_sum = median(t_traced[kHybrid]) + median(t_traced[kFt]);
    L.layer("obs.trace_overhead_pct", 100.0 * (ratio(traced_sum, untraced_sum) - 1.0), "%", nt);
    L.layer("check.residual_max", chk.residual_max, "1", static_cast<std::size_t>(chk.full_checks));
    L.layer("check.orth_max", chk.orth_max, "1", static_cast<std::size_t>(chk.full_checks));
    if (trace_written) L.note("chrome_trace", trace_file);
  } else {
    L.e2e("peak_rss_mb", peak_rss_mb(), "MB", 1);
  }
  L.note("bitwise_mismatches", static_cast<double>(chk.bitwise_mismatches));
  L.note("full_checks", static_cast<double>(chk.full_checks));
  L.note("residual_max", chk.residual_max);
  L.note("orth_max", chk.orth_max);
  L.note("fail_frac", ratio(static_cast<double>(chk.failed), static_cast<double>(chk.attempted)));

  // --- output ---------------------------------------------------------------
  std::printf("fth_bench workload=%s n=%lld seed=%llu mode=%s\n", w.name,
              static_cast<long long>(w.n), static_cast<unsigned long long>(seed),
              traced ? "traced" : "untraced");
  for (const Metric& m : L.metrics)
    std::printf("  %-30s %16.8g %-6s (n=%zu) %s\n", m.name.c_str(), m.value, m.unit.c_str(),
                m.samples, kKindName[static_cast<int>(m.kind)]);
  std::printf("  %-30s %16ld of %ld attempted (fail_frac %.4g)\n", "failed", chk.failed,
              chk.attempted,
              ratio(static_cast<double>(chk.failed), static_cast<double>(chk.attempted)));
  for (const std::string& f : chk.failures) std::printf("  failure: %s\n", f.c_str());
  if (opt.has("report")) write_report(opt.get("report", "fth_bench.json"), w, seed, traced, chk, L);

  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, \"metrics\": %s}\n",
              chk.failed == 0 ? "true" : "false", chk.attempted, chk.failed,
              metrics_json(L.metrics, traced ? Kind::Layer : Kind::EndToEnd).c_str());
  std::fflush(stdout);
  return chk.failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  refuse_unless_clean_build();
  try {
    return run(Options(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fth_bench: %s\n", e.what());
    return 1;
  }
}
