// fth::obs profiler: the offline aggregation core (ProfileBuilder over
// synthetic timestamps, where every expected number can be computed by
// hand), the live window around a real FT run, name interning, and the
// JSON emission round-tripped through the in-repo json reader.
#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hpp"
#include "fault/injector.hpp"
#include "ft/ft_gehrd.hpp"
#include "ft/pool_gehrd.hpp"
#include "hybrid/hybrid_gehrd.hpp"
#include "hybrid/pool.hpp"
#include "hybrid/stream.hpp"
#include "la/generate.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"

namespace fth {
namespace {

const obs::ProfilePhase* find_phase(const obs::ProfileReport& rep, const std::string& track,
                                    const std::string& cat, const std::string& name) {
  for (const auto& p : rep.phases) {
    if (p.track == track && p.cat == cat && p.name == name) return &p;
  }
  return nullptr;
}

// ---- ProfileBuilder: hand-computable synthetic trace ------------------------

TEST(ProfileBuilder, AttributionOverlapAndCriticalPath) {
  obs::ProfileBuilder b;
  // Host track (tid 0): panel [0,100), then update [100,300) with a nested
  // synchronize [150,200). Device track (tid 1): one task [50,250).
  b.begin(0, "hybrid", "panel", 0.0);
  b.end(0, 100.0);
  b.begin(0, "hybrid", "update", 100.0);
  b.begin(0, "stream", "synchronize", 150.0);
  b.end(0, 200.0);
  b.end(0, 300.0);
  b.begin(1, "stream", "task", 50.0, /*arg=*/0.0, /*flops=*/0);
  b.end(1, 250.0, /*flops=*/2000000);

  const obs::ProfileReport rep = b.finish(/*roofline=*/1.0);

  // Window length derives from the event range: 300 µs.
  EXPECT_NEAR(rep.wall_s, 300e-6, 1e-12);

  // Per-phase inclusive/self times.
  const auto* panel = find_phase(rep, "host", "hybrid", "panel");
  ASSERT_NE(panel, nullptr);
  EXPECT_EQ(panel->calls, 1u);
  EXPECT_NEAR(panel->wall_s, 100e-6, 1e-12);
  EXPECT_NEAR(panel->self_s, 100e-6, 1e-12);

  const auto* update = find_phase(rep, "host", "hybrid", "update");
  ASSERT_NE(update, nullptr);
  EXPECT_NEAR(update->wall_s, 200e-6, 1e-12);
  EXPECT_NEAR(update->self_s, 150e-6, 1e-12);  // minus the nested synchronize

  const auto* task = find_phase(rep, "device", "stream", "task");
  ASSERT_NE(task, nullptr);
  EXPECT_NEAR(task->wall_s, 200e-6, 1e-12);
  EXPECT_EQ(task->flops, 2000000u);
  // 2 MFLOP in 200 µs = 10 GF/s; against a 1 GF/s roofline that is 10x.
  EXPECT_NEAR(task->gflops, 0.01 * 1000.0, 1e-6);
  EXPECT_NEAR(task->roofline_frac, task->gflops, 1e-9);

  // Overlap: device busy [50,250) = 200 µs; host waits [150,200) = 50 µs of
  // it, so 150 µs of device work overlapped useful host work.
  EXPECT_NEAR(rep.device_busy_s, 200e-6, 1e-12);
  EXPECT_NEAR(rep.host_wait_s, 50e-6, 1e-12);
  EXPECT_NEAR(rep.overlapped_s, 150e-6, 1e-12);
  EXPECT_NEAR(rep.overlap_fraction, 0.75, 1e-9);
  EXPECT_NEAR(rep.stream_occupancy, 200.0 / 300.0, 1e-9);

  // Critical path: panel begin (0) → update end (300).
  EXPECT_EQ(rep.iterations, 1u);
  EXPECT_NEAR(rep.iter_avg_s, 300e-6, 1e-12);
  EXPECT_NEAR(rep.iter_max_s, 300e-6, 1e-12);
  EXPECT_NEAR(rep.iter_avg_panel_s, 100e-6, 1e-12);
  EXPECT_NEAR(rep.iter_avg_update_s, 200e-6, 1e-12);
}

TEST(ProfileBuilder, PerDeviceOccupancySplitsAcrossDeviceTracks) {
  // Two device workers with very different duty cycles inside a 400 µs
  // window: the aggregate occupancy unions them. Only a live run splits it
  // per device (by pool ordinal, ProfileLive.OrdinalKeyed*).
  obs::ProfileBuilder b;
  b.begin(0, "hybrid", "panel", 0.0);
  b.end(0, 400.0);
  b.begin(1, "stream", "task", 0.0);  // busy 300/400
  b.end(1, 300.0);
  b.begin(2, "stream", "task", 100.0);  // busy 100/400, overlapping track 1
  b.end(2, 200.0);
  const obs::ProfileReport rep = b.finish(0.0);
  EXPECT_NEAR(rep.wall_s, 400e-6, 1e-12);
  EXPECT_NEAR(rep.device_busy_s, 300e-6, 1e-12);  // union, not sum
  EXPECT_NEAR(rep.stream_occupancy, 0.75, 1e-9);

  // JSON spells the aggregate as one number.
  const json::Value v = json::parse(rep.to_json());
  const auto& occ = v.at("overlap").at("stream_occupancy");
  ASSERT_TRUE(occ.is_number());
  EXPECT_NEAR(occ.as_number(), 0.75, 1e-9);

  // A replayed trace has no ordinal channel: the ordinal-keyed map stays
  // empty and its JSON key is omitted.
  EXPECT_TRUE(rep.per_device_by_ordinal.empty());
  EXPECT_EQ(v.at("overlap").find("stream_occupancy_by_device"), nullptr);
}

TEST(ProfileBuilder, HostOnlyWindowStillEmitsTheOccupancyArray) {
  obs::ProfileBuilder b;
  b.begin(0, "test", "work", 0.0);
  b.end(0, 100.0);
  const obs::ProfileReport rep = b.finish(0.0);
  EXPECT_TRUE(rep.per_device_by_ordinal.empty());
  const json::Value v = json::parse(rep.to_json());
  const auto& occ = v.at("overlap").at("stream_occupancy");
  ASSERT_TRUE(occ.is_number()) << "the aggregate is emitted with no device work";
  EXPECT_EQ(occ.as_number(), 0.0);
  EXPECT_EQ(v.at("overlap").find("stream_occupancy_by_device"), nullptr);
}

TEST(ProfileBuilder, UnmatchedEndsIgnoredAndLiteralInternedNamesMerge) {
  obs::ProfileBuilder b;
  b.end(0, 5.0);  // stray end before any begin: dropped, not a crash
  // Same (cat, name) content through a literal and an interned copy must
  // aggregate into one phase (pointer identity is not the key).
  b.begin(0, "test", "phase", 10.0);
  b.end(0, 20.0);
  b.begin(0, obs::intern_name(std::string("te") + "st"),
          obs::intern_name(std::string("pha") + "se"), 30.0);
  b.end(0, 40.0);
  const obs::ProfileReport rep = b.finish(0.0);
  ASSERT_EQ(rep.phases.size(), 1u);
  EXPECT_EQ(rep.phases[0].calls, 2u);
  EXPECT_NEAR(rep.phases[0].wall_s, 20e-6, 1e-12);
}

TEST(ProfileBuilder, OpenSpansAreClosedAtFinish) {
  obs::ProfileBuilder b;
  b.begin(0, "test", "open", 0.0);
  b.begin(0, "test", "inner", 40.0);
  // finish() with no explicit wall hint closes both at the last seen ts.
  const obs::ProfileReport rep = b.finish(0.0);
  const auto* open = find_phase(rep, "host", "test", "open");
  const auto* inner = find_phase(rep, "host", "test", "inner");
  ASSERT_NE(open, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(open->calls, 1u);
  EXPECT_EQ(inner->calls, 1u);
}

// ---- name interning ---------------------------------------------------------

TEST(InternName, StableAndDeduplicated) {
  const std::string dynamic = "n=" + std::to_string(128);
  const char* a = obs::intern_name(dynamic);
  const char* b = obs::intern_name("n=128");
  const char* c = obs::intern_name("n=256");
  EXPECT_STREQ(a, "n=128");
  EXPECT_EQ(a, b) << "equal content must intern to one pointer";
  EXPECT_NE(a, c);
  // The pointer outlives the source string (copied into interned storage).
  EXPECT_NE(static_cast<const void*>(a), static_cast<const void*>(dynamic.c_str()));
}

// ---- live profiler over a real FT run ---------------------------------------

TEST(ProfileLive, FtRunProducesAttributedReport) {
  const index_t n = 64, nb = 16;
  hybrid::Device dev;
  Matrix<double> a = random_matrix(n, n, 5);
  std::vector<double> tau(static_cast<std::size_t>(n - 1));
  fault::FaultSpec spec;
  spec.area = fault::Area::LowerTrailing;
  fault::Injector inj(spec, 5);
  ft::FtReport ftrep;

  obs::set_profile_roofline(25.0);
  obs::profile_start();
  ASSERT_TRUE(obs::profile_enabled());
  ft::ft_gehrd(dev, a.view(), VectorView<double>(tau.data(), n - 1), {.nb = nb}, &inj, &ftrep);
  const obs::ProfileReport rep = obs::profile_stop();
  EXPECT_FALSE(obs::profile_enabled());
  ASSERT_GE(ftrep.detections, 1);

  EXPECT_GT(rep.wall_s, 0.0);
  EXPECT_GT(rep.total_flops, 0u);
  EXPECT_DOUBLE_EQ(rep.roofline_gflops, 25.0);
  ASSERT_FALSE(rep.phases.empty());

  // The driver's panel/update loop and the device worker must both show up.
  EXPECT_NE(find_phase(rep, "host", "hybrid", "panel"), nullptr);
  EXPECT_NE(find_phase(rep, "host", "hybrid", "update"), nullptr);
  // Device worker spans land on a device track, one phase per task label
  // ("dev.gemm", "h2d", "ft.detect", ...).
  std::uint64_t dev_calls = 0;
  std::uint64_t dev_flops = 0;
  bool dev_any_throughput = false;
  for (const auto& p : rep.phases) {
    if (p.track != "device" || p.cat != "stream") continue;
    dev_calls += p.calls;
    dev_flops += p.flops;
    if (p.gflops > 0.0 && p.roofline_frac > 0.0) dev_any_throughput = true;
  }
  EXPECT_GT(dev_calls, 0u) << "device worker spans must land on a device track";
  EXPECT_GT(dev_flops, 0u) << "trailing-update FLOPs execute inside stream tasks";
  EXPECT_TRUE(dev_any_throughput);
  EXPECT_NE(find_phase(rep, "device", "stream", "dev.gemm"), nullptr)
      << "per-label attribution of device kernels";

  // Overlap quantities are well-formed.
  EXPECT_GT(rep.device_busy_s, 0.0);
  EXPECT_GE(rep.overlap_fraction, 0.0);
  EXPECT_LE(rep.overlap_fraction, 1.0);
  EXPECT_GT(rep.stream_occupancy, 0.0);
  EXPECT_LE(rep.overlapped_s, rep.device_busy_s + 1e-12);

  // One blocked iteration per panel, and the critical path bounds its parts.
  EXPECT_GT(rep.iterations, 0u);
  EXPECT_GT(rep.iter_avg_s, 0.0);
  EXPECT_GE(rep.iter_max_s, rep.iter_avg_s - 1e-12);

  // Self time never exceeds inclusive time.
  for (const auto& p : rep.phases) {
    EXPECT_LE(p.self_s, p.wall_s + 1e-9) << p.cat << "/" << p.name;
    EXPECT_GT(p.calls, 0u);
  }

  // The emitted JSON parses with the repo's reader and carries the schema
  // EXPERIMENTS.md documents.
  json::Value v;
  ASSERT_NO_THROW(v = json::parse(rep.to_json()));
  EXPECT_GT(v.at("wall_s").as_number(), 0.0);
  EXPECT_EQ(v.at("roofline_gflops").as_number(), 25.0);
  EXPECT_GT(v.at("total_flops").as_number(), 0.0);
  EXPECT_GE(v.at("overlap").at("overlap_fraction").as_number(), 0.0);
  EXPECT_GT(v.at("iterations").at("count").as_number(), 0.0);
  ASSERT_TRUE(v.at("phases").is_array());
  EXPECT_EQ(v.at("phases").as_array().size(), rep.phases.size());
}

TEST(ProfileLive, OrdinalKeyedOccupancyAttributesPoolMembers) {
  // A live pool run: each member's worker self-reports its pool ordinal, so
  // the report splits the aggregate occupancy by ordinal.
  const index_t n = 96;
  hybrid::DevicePool pool({.devices = 2});
  Matrix<double> a = random_matrix(n, n, 11);
  std::vector<double> tau(static_cast<std::size_t>(n - 1));
  obs::profile_start();
  ft::pool_gehrd(pool, a.view(), VectorView<double>(tau.data(), n - 1), {.nb = 16});
  const obs::ProfileReport rep = obs::profile_stop();

  EXPECT_GT(rep.stream_occupancy, 0.0);
  EXPECT_LE(rep.stream_occupancy, 1.0);
  ASSERT_EQ(rep.per_device_by_ordinal.size(), 2u);
  EXPECT_EQ(rep.per_device_by_ordinal[0].first, 0);
  EXPECT_EQ(rep.per_device_by_ordinal[1].first, 1);
  for (const auto& [ordinal, occ] : rep.per_device_by_ordinal) {
    EXPECT_GT(occ, 0.0) << "dev" << ordinal;
    EXPECT_LE(occ, 1.0) << "dev" << ordinal;
    // A member's busy time lies inside the union of all device tracks.
    EXPECT_LE(occ, rep.stream_occupancy + 1e-9) << "dev" << ordinal;
  }

  const json::Value v = json::parse(rep.to_json());
  EXPECT_NEAR(v.at("overlap").at("stream_occupancy").as_number(), rep.stream_occupancy, 1e-9);
  const json::Value* by_dev = v.at("overlap").find("stream_occupancy_by_device");
  ASSERT_NE(by_dev, nullptr);
  ASSERT_TRUE(by_dev->is_object());
  ASSERT_EQ(by_dev->as_object().size(), 2u);
  EXPECT_NEAR(by_dev->at("0").as_number(), rep.per_device_by_ordinal[0].second, 1e-9);
  EXPECT_NEAR(by_dev->at("1").as_number(), rep.per_device_by_ordinal[1].second, 1e-9);
}

TEST(ProfileLive, WaitPhasesSplitByCallSite) {
  const index_t n = 48, nb = 16;
  hybrid::Device dev;
  Matrix<double> a = random_matrix(n, n, 9);
  std::vector<double> tau(static_cast<std::size_t>(n - 1));
  obs::profile_start();
  hybrid::hybrid_gehrd(dev, a.view(), VectorView<double>(tau.data(), n - 1),
                       {.nb = nb, .nx = nb}, nullptr);
  const obs::ProfileReport rep = obs::profile_stop();

  // With an observability window open, host wait spans carry their interned
  // call-site label ("synchronize@file:line"), so the formerly aggregated
  // stream.synchronize phase splits per site — and the prefix-matched wait
  // classification still counts every one of them as blocked host time.
  bool split = false;
  for (const auto& p : rep.phases) {
    if (p.track != "host" || p.cat != "stream") continue;
    if (p.name.rfind("synchronize@", 0) == 0 &&
        p.name.find(':') != std::string::npos)
      split = true;
  }
  EXPECT_TRUE(split) << "synchronize phases must be keyed by call site";
  EXPECT_EQ(find_phase(rep, "host", "stream", "synchronize"), nullptr)
      << "no aggregated site-less synchronize phase should remain";
  EXPECT_GT(rep.host_wait_s, 0.0)
      << "per-site wait names must still classify as waits";
}

TEST(ProfileLive, AWorkersCrossStreamWaitIsDeviceTimeNotHostWait) {
  // Stream B's worker waits on stream A (Stream::wait_event) while the host
  // computes without waiting. B's wait runs inside a task, so it is device
  // time: host_wait stays near zero and the device work overlaps the host.
  using namespace std::chrono_literals;
  hybrid::Stream a, b;
  obs::profile_start();
  a.enqueue("dev.sleep", [] { std::this_thread::sleep_for(40ms); });
  const hybrid::Event on_a = a.record();
  b.wait_event(on_a);
  const hybrid::Event on_b = b.record();
  // Host work: poll (never block) until both streams are done and 60 ms
  // have passed, so the closing synchronize() calls find drained queues.
  const auto t0 = std::chrono::steady_clock::now();
  while (!on_a.ready() || !on_b.ready() || std::chrono::steady_clock::now() - t0 < 60ms) {
  }
  a.synchronize();
  b.synchronize();
  const obs::ProfileReport rep = obs::profile_stop();

  bool worker_wait = false;
  for (const auto& p : rep.phases)
    if (p.track == "device" && p.name.rfind("event_wait@", 0) == 0) worker_wait = true;
  EXPECT_TRUE(worker_wait) << "B's wait is still a phase of its device track";
  EXPECT_GT(rep.device_busy_s, 0.03);
  EXPECT_LT(rep.host_wait_s, 0.005) << "a worker's wait is not host wait";
  EXPECT_GT(rep.overlap_fraction, 0.9);
}

TEST(ProfileJson, RooflineFracOmittedWhenNoRooflineConfigured) {
  obs::ProfileBuilder b;
  b.begin(0, "stream", "task", 0.0, /*arg=*/0.0, /*flops=*/0);
  b.end(0, 100.0, /*flops=*/1000);
  {
    const obs::ProfileReport rep = b.finish(/*roofline=*/0.0);
    const json::Value v = json::parse(rep.to_json());
    ASSERT_FALSE(v.at("phases").as_array().empty());
    EXPECT_EQ(v.at("phases").as_array()[0].find("roofline_frac"), nullptr)
        << "a meaningless roofline_frac=0 would gate as a catastrophic "
           "regression in bench_compare";
  }
  obs::ProfileBuilder b2;
  b2.begin(0, "stream", "task", 0.0, 0.0, 0);
  b2.end(0, 100.0, 1000);
  {
    const obs::ProfileReport rep = b2.finish(/*roofline=*/25.0);
    const json::Value v = json::parse(rep.to_json());
    ASSERT_FALSE(v.at("phases").as_array().empty());
    EXPECT_NE(v.at("phases").as_array()[0].find("roofline_frac"), nullptr)
        << "with a roofline the fraction is still emitted";
  }
}

TEST(ProfileLive, WindowsAreIndependent) {
  obs::profile_start();
  {
    obs::TraceSpan span("test", "first-window");
  }
  const obs::ProfileReport first = obs::profile_stop();
  EXPECT_NE(find_phase(first, "host", "test", "first-window"), nullptr);

  obs::profile_start();
  const obs::ProfileReport second = obs::profile_stop();
  EXPECT_EQ(find_phase(second, "host", "test", "first-window"), nullptr)
      << "a new window must not inherit the previous window's spans";

  // Stopping without a window open is a harmless no-op.
  const obs::ProfileReport none = obs::profile_stop();
  EXPECT_TRUE(none.phases.empty());
}

}  // namespace
}  // namespace fth
