// Pool scaling study: the sharded multi-device reduction (ft::pool_gehrd)
// across pool widths D, clean and while absorbing one injected device loss.
//
// Not a paper figure — the paper's platform is a single GPU. This bench
// extends its Section VI methodology to the coded multi-device driver
// (DESIGN.md §13): per (D, N) it reports the clean pool rate, the rate with
// one mid-run hard-death loss, the loss overhead, and the driver's
// deterministic recovery ledger (losses / reconstructions / remaps), which
// the CI gate pins exactly. D=1 is the degenerate pool (no parity member,
// a loss would escalate), so its loss columns are dashes.
//
//   --devices a,b,c  pool widths to sweep (default 1,3)
//   --sizes a,b,c    matrix sizes (default 128,256)
//   --nb             panel width (default 32)
//   --trials         timing repetitions per point (default 3, min taken)
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "common/options.hpp"
#include "fault/fault_plane.hpp"
#include "ft/pool_gehrd.hpp"
#include "hybrid/pool.hpp"
#include "la/generate.hpp"

using namespace fth;

namespace {

double run_pool(int devices, const Matrix<double>& a0, index_t nb,
                fault::FaultPlane* plane, ft::PoolGehrdReport* rep) {
  hybrid::DevicePool pool({.devices = devices});
  Matrix<double> a(a0.cview());
  std::vector<double> tau(static_cast<std::size_t>(a0.rows() - 1));
  ft::PoolGehrdOptions opt;
  opt.nb = nb;
  opt.plane = plane;
  WallTimer t;
  ft::pool_gehrd(pool, a.view(), VectorView<double>(tau.data(), a0.rows() - 1), opt, rep);
  return t.seconds();
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt(argc, argv);
  const auto devices = opt.get_sizes("devices", {1, 3});
  const auto sizes = opt.get_sizes("sizes", {128, 256});
  const index_t nb = opt.get_long("nb", 32);
  const int trials = static_cast<int>(opt.get_long("trials", 3));
  const std::uint64_t seed = static_cast<std::uint64_t>(opt.get_long("seed", 2016));

  bench::Report report(opt);
  report.note("nb", nb);
  report.note("trials", trials);
  report.note("seed", static_cast<long long>(seed));

  bench::banner("Pool scaling — sharded multi-device reduction under device loss",
                "extension of Section VI to the coded device pool (DESIGN.md §13)");
  std::printf("nb = %lld, trials = %d (minimum taken). The loss run arms one\n"
              "hard-death strike mid-schedule on device 0; recovery reconstructs\n"
              "the shard from parity + survivors and remaps it — no rollback.\n",
              static_cast<long long>(nb), trials);
  std::printf("\n%4s %8s %12s %12s %12s %8s %8s %8s\n", "D", "N", "clean GF/s",
              "loss GF/s", "loss ovh (%)", "losses", "rebuilt", "remaps");

  for (const index_t d : devices) {
    const int dd = static_cast<int>(d);
    for (const index_t n : sizes) {
      const obs::TraceSpan span(
          "bench", obs::intern_name("d=" + std::to_string(dd) + ",n=" + std::to_string(n)));
      const Matrix<double> a0 =
          random_matrix(n, n, seed + static_cast<std::uint64_t>(13 * dd + n));

      // Clean timing — the first rep doubles as the strike-schedule
      // calibration run (an idle plane rides along counting tasks).
      double clean_best = 1e300;
      std::uint64_t victim_tasks = 0;
      ft::PoolGehrdReport crep;
      for (int rep = 0; rep < trials; ++rep) {
        if (rep == 0 && dd >= 2) {
          fault::FaultPlane counter(seed);
          clean_best = std::min(clean_best, run_pool(dd, a0, nb, &counter, &crep));
          victim_tasks = counter.pool_task_count(0);
        } else {
          clean_best = std::min(clean_best, run_pool(dd, a0, nb, nullptr, &crep));
        }
      }

      auto& row = report.row()
                      .set("devices", dd)
                      .set("n", n)
                      .set("clean_seconds", clean_best)
                      .set("clean_gflops", bench::gehrd_gflops(n, clean_best));
      std::printf("%4d %8lld %12.2f", dd, static_cast<long long>(n),
                  bench::gehrd_gflops(n, clean_best));

      if (dd >= 2 && victim_tasks >= 2) {
        // One hard death on device 0 halfway through its schedule, every rep.
        double loss_best = 1e300;
        ft::PoolGehrdReport lrep;
        for (int rep = 0; rep < trials; ++rep) {
          fault::FaultPlane plane(seed ^ 0xDEADull);
          plane.arm_device_loss({.kind = fault::LossKind::HardDeath,
                                 .device = 0,
                                 .countdown = victim_tasks / 2});
          loss_best = std::min(loss_best, run_pool(dd, a0, nb, &plane, &lrep));
        }
        const double ovh = 100.0 * (loss_best - clean_best) / clean_best;
        std::printf(" %12.2f %12.2f %8d %8d %8d\n", bench::gehrd_gflops(n, loss_best), ovh,
                    lrep.losses, lrep.reconstructions, lrep.remaps);
        row.set("loss_seconds", loss_best)
            .set("loss_gflops", bench::gehrd_gflops(n, loss_best))
            .set("loss_overhead_pct", ovh)
            .set("losses", lrep.losses)
            .set("reconstructions", lrep.reconstructions)
            .set("remaps", lrep.remaps)
            .set("degraded", lrep.degraded ? 1 : 0);
      } else {
        std::printf(" %12s %12s %8s %8s %8s\n", "-", "-", "-", "-", "-");
      }
    }
  }
  return 0;
}
