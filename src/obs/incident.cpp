#include "obs/incident.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <mutex>
#include <string_view>

#include "common/json.hpp"
#include "obs/dag.hpp"
#include "obs/trace.hpp"

namespace fth::obs {

namespace incident_detail {
std::atomic<bool> g_on{false};
}  // namespace incident_detail

namespace {

std::mutex g_dir_m;
std::string g_dir;                       // guarded by g_dir_m
std::atomic<std::uint64_t> g_seq{0};     // capsule sequence (process-wide)

void append_str_field(std::string& out, const char* key, std::string_view v) {
  out += ",\"";
  out += key;
  out += "\":\"";
  json::append_escaped(out, v);
  out += "\"";
}

std::string health_entry_json(const DeviceHealthSnapshot& s) {
  std::string out;
  out.reserve(220);
  out += "{\"device\":" + std::to_string(s.device);
  out += ",\"state\":\"";
  out += to_string(s.state);
  out += "\",\"waits\":" + std::to_string(s.waits);
  out += ",\"timeouts\":" + std::to_string(s.timeouts);
  out += ",\"near_misses\":" + std::to_string(s.near_misses);
  out += ",\"latency_ewma_ms\":";
  json::append_number(out, s.latency_ewma_ms, 9);
  out += ",\"occupancy_ewma\":";
  json::append_number(out, s.occupancy_ewma, 9);
  out += ",\"window_max_ms\":";
  json::append_number(out, s.window_max_ms, 9);
  out += ",\"last_wait_ms\":";
  json::append_number(out, s.last_wait_ms, 9);
  out += ",\"worst_frac\":";
  json::append_number(out, s.worst_frac, 9);
  out += ",\"allowed_ms\":";
  json::append_number(out, s.allowed_ms, 9);
  out += ",\"heartbeat_age_ms\":";
  json::append_number(out, s.heartbeat_age_ms, 9);
  out += "}";
  return out;
}

// Honour FTH_INCIDENT for any binary linking the library.
[[maybe_unused]] const bool g_env_init = [] {
  incident_init_from_env();
  return true;
}();

}  // namespace

void incident_set_dir(const std::string& dir) {
  {
    std::lock_guard lock(g_dir_m);
    g_dir = dir;
  }
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);  // best effort; write reports failures
  if (!journal_enabled()) journal_start();
  incident_detail::g_on.store(true, std::memory_order_relaxed);
}

void incident_stop() {
  incident_detail::g_on.store(false, std::memory_order_relaxed);
  std::lock_guard lock(g_dir_m);
  g_dir.clear();
}

std::string incident_dir() {
  std::lock_guard lock(g_dir_m);
  return g_dir;
}

IncidentReport incident_for_run(std::uint64_t run_id,
                                const Registry::CounterValues& counters_before) {
  IncidentReport inc;
  inc.run_id = run_id;
  const auto now = Registry::global().counter_values();
  for (const auto& [name, delta] : Registry::counter_delta(now, counters_before))
    inc.metrics_delta.emplace_back(name, delta);
  inc.journal = journal_snapshot(run_id);
  inc.flight_json = flight_tail_json(512);
  inc.dag_json = dag::tail_json(128);
  return inc;
}

std::string render_incident_json(const IncidentReport& rep) {
  std::string out;
  out.reserve(4096);
  out += "{\"schema\":\"fth-incident-v1\"";
  append_str_field(out, "trigger", rep.trigger);
  append_str_field(out, "who", rep.who);
  out += ",\"run\":" + std::to_string(rep.run_id);
  out += ",\"device\":" + std::to_string(rep.device);
  out += ",\"boundary\":" + std::to_string(rep.boundary);
  out += ",\"t_us\":";
  json::append_number(out, detail::now_us(), 9);
  out += ",\"outcome\":{\"status\":\"";
  json::append_escaped(out, rep.outcome.status);
  out += "\"";
  append_str_field(out, "reason", rep.outcome.reason);
  append_str_field(out, "detail", rep.outcome.detail);
  out += ",\"attempts\":" + std::to_string(rep.outcome.attempts);
  out += "}";
  out += ",\"metrics_delta\":{";
  for (std::size_t i = 0; i < rep.metrics_delta.size(); ++i) {
    if (i > 0) out += ',';
    out += "\"";
    json::append_escaped(out, rep.metrics_delta[i].first);
    out += "\":" + std::to_string(rep.metrics_delta[i].second);
  }
  out += "}";
  out += ",\"journal\":[";
  for (std::size_t i = 0; i < rep.journal.size(); ++i) {
    if (i > 0) out += ',';
    out += journal_event_json(rep.journal[i]);
  }
  out += "]";
  out += ",\"health\":[";
  for (std::size_t i = 0; i < rep.health.size(); ++i) {
    if (i > 0) out += ',';
    out += health_entry_json(rep.health[i]);
  }
  out += "]";
  if (!rep.strikes_json.empty()) out += ",\"strikes\":" + rep.strikes_json;
  if (!rep.ledger_json.empty()) out += ",\"ledger\":" + rep.ledger_json;
  if (!rep.flight_json.empty()) out += ",\"flight\":" + rep.flight_json;
  if (!rep.dag_json.empty()) out += ",\"dag\":" + rep.dag_json;
  out += "}";
  return out;
}

std::string write_incident(const IncidentReport& rep) {
  if (!incident_enabled()) return "";
  const std::string dir = incident_dir();
  if (dir.empty()) return "";
  const std::uint64_t seq = g_seq.fetch_add(1, std::memory_order_relaxed);
  const std::string path = dir + "/fth_incident_run" + std::to_string(rep.run_id) + "_" +
                           std::to_string(seq) + ".json";
  const std::string tmp =
      path + ".tmp" + std::to_string(static_cast<long>(::getpid()));
  const std::string body = render_incident_json(rep);
  std::FILE* f = std::fopen(tmp.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "fth::obs: cannot open incident capsule '%s'\n", tmp.c_str());
    return "";
  }
  const bool wrote = std::fwrite(body.data(), 1, body.size(), f) == body.size() &&
                     std::fputc('\n', f) != EOF;
  const bool closed = std::fclose(f) == 0;
  if (!wrote || !closed || std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    std::fprintf(stderr, "fth::obs: failed writing incident capsule '%s'\n", path.c_str());
    return "";
  }
  return path;
}

void incident_init_from_env() {
  static bool armed = false;
  const char* dir = std::getenv("FTH_INCIDENT");
  if (armed || dir == nullptr || dir[0] == '\0') return;
  armed = true;
  incident_set_dir(dir);
}

std::string incident_validate(const json::Value& capsule) {
  if (!capsule.is_object()) return "capsule is not a JSON object";
  const json::Value* schema = capsule.find("schema");
  if (schema == nullptr || !schema->is_string()) return "missing string 'schema'";
  if (schema->as_string() != "fth-incident-v1")
    return "unknown schema '" + schema->as_string() + "'";
  const auto need_string = [&](const char* key) -> std::string {
    const json::Value* v = capsule.find(key);
    if (v == nullptr || !v->is_string()) return std::string("missing string '") + key + "'";
    return "";
  };
  const auto need_number = [&](const char* key) -> std::string {
    const json::Value* v = capsule.find(key);
    if (v == nullptr || !v->is_number()) return std::string("missing number '") + key + "'";
    return "";
  };
  for (const char* key : {"trigger", "who"})
    if (std::string err = need_string(key); !err.empty()) return err;
  if (capsule.at("trigger").as_string().empty()) return "'trigger' is empty";
  for (const char* key : {"run", "device", "boundary", "t_us"})
    if (std::string err = need_number(key); !err.empty()) return err;
  const json::Value* outcome = capsule.find("outcome");
  if (outcome == nullptr || !outcome->is_object()) return "missing object 'outcome'";
  const json::Value* status = outcome->find("status");
  if (status == nullptr || !status->is_string() || status->as_string().empty())
    return "'outcome.status' missing or empty";
  const json::Value* metrics = capsule.find("metrics_delta");
  if (metrics == nullptr || !metrics->is_object()) return "missing object 'metrics_delta'";
  for (const auto& [name, value] : metrics->as_object())
    if (!value.is_number()) return "non-numeric metrics_delta entry '" + name + "'";
  const json::Value* journal = capsule.find("journal");
  if (journal == nullptr || !journal->is_array()) return "missing array 'journal'";
  for (std::size_t i = 0; i < journal->as_array().size(); ++i) {
    const json::Value& e = journal->as_array()[i];
    const std::string where = "journal[" + std::to_string(i) + "]";
    if (!e.is_object()) return where + " is not an object";
    for (const char* key : {"severity", "component", "event"}) {
      const json::Value* v = e.find(key);
      if (v == nullptr || !v->is_string())
        return where + " missing string '" + key + "'";
    }
    for (const char* key : {"t_us", "run", "device"}) {
      const json::Value* v = e.find(key);
      if (v == nullptr || !v->is_number())
        return where + " missing number '" + key + "'";
    }
  }
  const json::Value* health = capsule.find("health");
  if (health == nullptr || !health->is_array()) return "missing array 'health'";
  for (std::size_t i = 0; i < health->as_array().size(); ++i) {
    const json::Value& e = health->as_array()[i];
    const std::string where = "health[" + std::to_string(i) + "]";
    if (!e.is_object()) return where + " is not an object";
    const json::Value* state = e.find("state");
    if (state == nullptr || !state->is_string()) return where + " missing string 'state'";
    const json::Value* device = e.find("device");
    if (device == nullptr || !device->is_number()) return where + " missing number 'device'";
  }
  for (const char* key : {"strikes", "ledger", "flight", "dag"}) {
    const json::Value* v = capsule.find(key);
    if (v != nullptr && !v->is_array() && !v->is_object())
      return std::string("'") + key + "' is neither array nor object";
  }
  return "";
}

const char* incident_role(std::string_view component, std::string_view event) {
  if (component == "fault" && (event == "strike" || event == "device_loss")) return "strike";
  if ((component == "pool" && event == "loss_detected") ||
      (component == "ft" && event == "detect") ||
      (component == "health" && event == "wait_timeout"))
    return "detect";
  if (component == "pool" &&
      (event == "reconstructed" || event == "remapped" || event == "parity_degraded" ||
       event == "repair_done" || event == "panel_retry"))
    return "repair";
  if (component == "ft" && (event == "rollback" || event == "reexec" ||
                            event == "reconstructed" || event == "ckpt_rederived"))
    return "repair";
  if (component == "pool" && event == "finished") return "verify";
  return "";
}

IncidentTiming incident_timing(const json::Value& capsule) {
  IncidentTiming t;
  const json::Value* journal = capsule.find("journal");
  if (journal == nullptr || !journal->is_array()) return t;
  for (const json::Value& e : journal->as_array()) {
    if (!e.is_object()) continue;
    const json::Value* component = e.find("component");
    const json::Value* event = e.find("event");
    const json::Value* ts = e.find("t_us");
    if (component == nullptr || !component->is_string() || event == nullptr ||
        !event->is_string() || ts == nullptr || !ts->is_number())
      continue;
    const std::string_view role = incident_role(component->as_string(), event->as_string());
    const double us = ts->as_number();
    if (role == "strike" && (t.strike_us < 0.0 || us < t.strike_us)) t.strike_us = us;
    if (role == "detect" && (t.detect_us < 0.0 || us < t.detect_us)) t.detect_us = us;
    if (role == "repair" && us > t.repair_done_us) t.repair_done_us = us;
  }
  if (t.strike_us >= 0.0 && t.detect_us >= 0.0)
    t.detection_latency_us = t.detect_us - t.strike_us;
  if (t.detect_us >= 0.0 && t.repair_done_us >= 0.0)
    t.recovery_cost_us = t.repair_done_us - t.detect_us;
  return t;
}

}  // namespace fth::obs
