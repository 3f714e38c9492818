// Device-loss soak acceptance (ISSUE 7): n=256, D=3, one injected loss per
// trial cycling silent-stall / poisoned-output / hard-death across random
// victims and strike times. Every strike must land, every run must finish
// (one loss is inside the code's correction radius), and the result must
// match the fault-free factorization to roundoff — i.e. recovery leaves no
// fault-shaped error and no cross-shard corruption behind.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "common/json.hpp"
#include "fault/campaign.hpp"
#include "obs/incident.hpp"
#include "obs/journal.hpp"

namespace fth::fault {
namespace {

TEST(DeviceLossSoak, OneLossPerTrialIsAlwaysAbsorbedAtN256D3) {
  DeviceLossSoakConfig cfg;
  cfg.n = 256;
  cfg.nb = 32;
  cfg.devices = 3;
  cfg.trials = 9;  // 3 full cycles through the three loss kinds
  cfg.seed = 0x5eed2026ull;
  cfg.timeout_ms = 400.0;

  const DeviceLossSoakResult r = run_device_loss_soak(cfg);
  ASSERT_EQ(r.trials.size(), 9u);
  EXPECT_EQ(r.fired_count, 9) << "a countdown drawn inside the schedule must fire";
  EXPECT_EQ(r.recovered_count, 9);
  EXPECT_EQ(r.correct_count, 9);

  for (const auto& t : r.trials) {
    EXPECT_TRUE(t.failure.empty()) << to_string(t.kind) << " dev" << t.device << ": "
                                   << t.failure;
    EXPECT_TRUE(t.result_correct)
        << to_string(t.kind) << " dev" << t.device << " countdown=" << t.countdown
        << " err=" << t.max_error_vs_clean;
    // The loss is charged once: detected, the group degraded, and — for a
    // data member — exactly one reconstruction and one remap, no rollback
    // beyond at most the in-flight panel.
    EXPECT_EQ(t.report.losses, 1);
    EXPECT_TRUE(t.report.degraded);
    EXPECT_EQ(t.report.lost_device, t.device);
    if (t.device != 2) {
      EXPECT_EQ(t.report.reconstructions, 1);
      EXPECT_EQ(t.report.remaps, 1);
    }
    EXPECT_EQ(t.report.outcome.status, ft::RecoveryStatus::Recovered);
  }
}

/// Puts the incident and journal sinks back as a test found them, however
/// it leaves: an FTH_INCIDENT armed from the environment keeps writing
/// capsules for the tests after it.
class SinkRestore {
 public:
  SinkRestore() : dir_(obs::incident_dir()), journal_(obs::journal_enabled()) {}
  ~SinkRestore() {
    if (!dir_.empty()) {
      obs::incident_set_dir(dir_);
    } else if (journal_ && !obs::journal_enabled()) {
      obs::journal_start();
    }
  }
  SinkRestore(const SinkRestore&) = delete;
  SinkRestore& operator=(const SinkRestore&) = delete;

 private:
  std::string dir_;
  bool journal_;
};

// Incident forensics acceptance (ISSUE 8): with capsule emission armed,
// the n=256 D=3 soak must write exactly one valid capsule per injected
// loss, and fth_incident's timing derivation must see a nonzero detection
// latency (strike → loss_detected) and recovery cost (loss_detected →
// repair_done) in each. One cycle through the three loss kinds keeps the
// runtime bounded; the 9-trial soak above covers the absorption maths.
TEST(DeviceLossSoak, EveryInjectedLossYieldsAValidCapsuleWithTimings) {
  const SinkRestore restore;
  const std::string dir = ::testing::TempDir() + "fth_soak_capsules";
  std::filesystem::remove_all(dir);
  obs::incident_set_dir(dir);

  DeviceLossSoakConfig cfg;
  cfg.n = 256;
  cfg.nb = 32;
  cfg.devices = 3;
  cfg.trials = 3;  // one silent-stall, one poisoned-output, one hard-death
  cfg.seed = 0xCAB5013ull;
  cfg.timeout_ms = 400.0;
  const DeviceLossSoakResult r = run_device_loss_soak(cfg);

  obs::incident_stop();
  obs::journal_stop();

  ASSERT_EQ(r.trials.size(), 3u);
  EXPECT_EQ(r.fired_count, 3);
  EXPECT_EQ(r.recovered_count, 3);
  for (const auto& t : r.trials) {
    EXPECT_GT(t.report.run_id, 0u) << "the faulty run must stamp a journal run";
    ASSERT_EQ(t.report.incidents.size(), 1u)
        << to_string(t.kind) << " dev" << t.device << ": one capsule per absorbed loss";
    const json::Value capsule = json::parse_file(t.report.incidents[0]);
    EXPECT_EQ(obs::incident_validate(capsule), "") << t.report.incidents[0];
    EXPECT_EQ(capsule.at("trigger").as_string(), "device_loss");
    EXPECT_EQ(capsule.at("device").as_number(), static_cast<double>(t.device));
    const obs::IncidentTiming tm = obs::incident_timing(capsule);
    EXPECT_GT(tm.detection_latency_us, 0.0)
        << to_string(t.kind) << ": the strike precedes its detection";
    EXPECT_GT(tm.recovery_cost_us, 0.0)
        << to_string(t.kind) << ": reconstruction happens after detection";
  }
  std::filesystem::remove_all(dir);
}

TEST(DeviceLossSoak, WiderPoolsAbsorbALossToo) {
  DeviceLossSoakConfig cfg;
  cfg.n = 128;
  cfg.nb = 16;
  cfg.devices = 4;
  cfg.trials = 3;
  cfg.seed = 0xD4ull;
  const DeviceLossSoakResult r = run_device_loss_soak(cfg);
  EXPECT_EQ(r.fired_count, 3);
  EXPECT_EQ(r.correct_count, 3);
}

}  // namespace
}  // namespace fth::fault
