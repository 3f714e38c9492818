// fth::obs incident: capsule rendering, schema validation, atomic writing,
// and the timing derivation (detection latency / recovery cost) that
// fth_incident and the EXPERIMENTS.md tables are built on.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <limits>
#include <string>

#include "common/json.hpp"
#include "obs/incident.hpp"
#include "obs/journal.hpp"

namespace fth::obs {
namespace {

/// Every test leaves the journal and capsule emission disarmed.
struct ObsGuard {
  ~ObsGuard() {
    incident_stop();
    journal_stop();
  }
};

IncidentReport sample_report() {
  IncidentReport rep;
  rep.trigger = "device_loss";
  rep.who = "pool_gehrd";
  rep.run_id = 7;
  rep.device = 1;
  rep.boundary = 3;
  rep.outcome.status = "recovered";
  rep.outcome.reason = "device_lost";
  rep.outcome.detail = "loss absorbed by coded reconstruction";
  rep.outcome.attempts = 1;
  rep.metrics_delta.emplace_back("fault.device_loss.detected", 1);
  rep.metrics_delta.emplace_back("fault.device_loss.reconstructions", 1);
  JournalEvent strike;
  strike.t_us = 1000.0;
  strike.run_id = 7;
  strike.component = "fault";
  strike.event = "device_loss";
  strike.device = 1;
  strike.severity = JournalSeverity::Error;
  JournalEvent detect = strike;
  detect.t_us = 1450.0;
  detect.component = "pool";
  detect.event = "loss_detected";
  detect.severity = JournalSeverity::Warn;
  detect.value = std::numeric_limits<double>::quiet_NaN();  // a poisoned detection's gap
  JournalEvent repair = strike;
  repair.t_us = 3200.0;
  repair.component = "pool";
  repair.event = "repair_done";
  repair.severity = JournalSeverity::Info;
  rep.journal = {strike, detect, repair};
  DeviceHealthSnapshot h;
  h.device = 1;
  h.state = DeviceState::Lost;
  rep.health.push_back(h);
  rep.strikes_json = R"({"faults":[],"losses":[{"kind":"hard-death","device":1,"trigger_index":12}]})";
  return rep;
}

TEST(Incident, RenderedCapsuleParsesAndValidates) {
  const std::string body = render_incident_json(sample_report());
  const json::Value capsule = json::parse(body);
  EXPECT_EQ(incident_validate(capsule), "");
  EXPECT_EQ(capsule.at("schema").as_string(), "fth-incident-v1");
  EXPECT_EQ(capsule.at("trigger").as_string(), "device_loss");
  EXPECT_EQ(capsule.at("who").as_string(), "pool_gehrd");
  EXPECT_EQ(capsule.at("run").as_number(), 7.0);
  EXPECT_EQ(capsule.at("device").as_number(), 1.0);
  EXPECT_EQ(capsule.at("outcome").at("status").as_string(), "recovered");
  EXPECT_EQ(capsule.at("metrics_delta").at("fault.device_loss.detected").as_number(), 1.0);
  EXPECT_EQ(capsule.at("journal").as_array().size(), 3u);
  EXPECT_TRUE(capsule.at("journal").as_array()[1].at("value").is_null())
      << "a NaN journal value is written as null";
  EXPECT_EQ(capsule.at("health").as_array().size(), 1u);
  EXPECT_EQ(capsule.at("health").as_array()[0].at("state").as_string(), "lost");
  EXPECT_EQ(capsule.at("strikes").at("losses").as_array().size(), 1u);
}

TEST(Incident, ValidateRejectsMalformedCapsules) {
  EXPECT_NE(incident_validate(json::parse("[]")), "");
  EXPECT_NE(incident_validate(json::parse(R"({"schema":"other"})")), "");
  // Valid capsule with the trigger blanked out.
  IncidentReport rep = sample_report();
  rep.trigger = "";
  EXPECT_NE(incident_validate(json::parse(render_incident_json(rep))), "");
  // Journal entries must be structured records, not bare strings.
  std::string body = render_incident_json(sample_report());
  const std::string::size_type at = body.find("\"journal\":[");
  ASSERT_NE(at, std::string::npos);
  body.replace(at, 11, "\"journal\":[\"x\",");
  EXPECT_NE(incident_validate(json::parse(body)), "");
}

TEST(Incident, TimingDerivesLatencyAndCostFromTheJournal) {
  const json::Value capsule = json::parse(render_incident_json(sample_report()));
  const IncidentTiming t = incident_timing(capsule);
  EXPECT_DOUBLE_EQ(t.strike_us, 1000.0);
  EXPECT_DOUBLE_EQ(t.detect_us, 1450.0);
  EXPECT_DOUBLE_EQ(t.repair_done_us, 3200.0);
  EXPECT_DOUBLE_EQ(t.detection_latency_us, 450.0);
  EXPECT_DOUBLE_EQ(t.recovery_cost_us, 1750.0);
}

TEST(Incident, TimingIsUndefinedWithoutTheMarkers) {
  IncidentReport rep = sample_report();
  rep.journal.clear();
  const IncidentTiming t = incident_timing(json::parse(render_incident_json(rep)));
  EXPECT_LT(t.strike_us, 0.0);
  EXPECT_LT(t.detection_latency_us, 0.0);
  EXPECT_LT(t.recovery_cost_us, 0.0);
}

TEST(Incident, WriteIsArmedByDirAndLandsAValidFile) {
  ObsGuard guard;
  EXPECT_FALSE(incident_enabled());
  EXPECT_EQ(write_incident(sample_report()), "") << "disarmed: no file, no path";

  const std::string dir = ::testing::TempDir() + "fth_incident_test_dir";
  std::filesystem::remove_all(dir);
  incident_set_dir(dir);
  EXPECT_TRUE(incident_enabled());
  EXPECT_TRUE(journal_enabled()) << "arming incidents arms the journal too";
  EXPECT_EQ(incident_dir(), dir);

  const std::string path = write_incident(sample_report());
  ASSERT_FALSE(path.empty());
  EXPECT_EQ(path.rfind(dir + "/fth_incident_run7_", 0), 0u) << path;
  const json::Value capsule = json::parse_file(path);
  EXPECT_EQ(incident_validate(capsule), "");

  // A second capsule gets a fresh sequence number, not an overwrite.
  const std::string path2 = write_incident(sample_report());
  ASSERT_FALSE(path2.empty());
  EXPECT_NE(path2, path);

  incident_stop();
  EXPECT_FALSE(incident_enabled());
  EXPECT_EQ(incident_dir(), "");
  std::filesystem::remove_all(dir);
}

// Every (component, event) pair the emitters journal, against its role in
// the causal chain — the one table incident_timing() and fth_incident read.
TEST(IncidentRoles, EveryJournaledEventHasItsRole) {
  const struct {
    const char* component;
    const char* event;
    const char* role;
  } kTable[] = {
      {"fault", "strike", "strike"},          {"fault", "device_loss", "strike"},
      {"ft", "detect", "detect"},             {"ft", "rollback", "repair"},
      {"ft", "reexec", "repair"},             {"ft", "reconstructed", "repair"},
      {"ft", "ckpt_rederived", "repair"},     {"ft", "panel_abort", ""},
      {"ft", "abort", ""},                    {"pool", "started", ""},
      {"pool", "panel_retry", "repair"},      {"pool", "loss_detected", "detect"},
      {"pool", "parity_degraded", "repair"},  {"pool", "reconstructed", "repair"},
      {"pool", "remapped", "repair"},         {"pool", "repair_done", "repair"},
      {"pool", "escalated", ""},              {"pool", "finished", "verify"},
      {"health", "near_miss", ""},            {"health", "wait_timeout", "detect"},
      {"health", "marked_lost", ""},          {"check", "TransferRace", ""},
  };
  for (const auto& row : kTable)
    EXPECT_STREQ(incident_role(row.component, row.event), row.role)
        << row.component << "/" << row.event;
}

}  // namespace
}  // namespace fth::obs
