#include "obs/journal.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>

#include "common/json.hpp"
#include "obs/log.hpp"

namespace fth::obs {

namespace {

std::atomic<std::uint64_t> g_run{0};
std::atomic<std::uint64_t> g_next_run{0};

// Honour FTH_JOURNAL for any binary linking the library (same pattern as
// the trace recorder's env hook).
[[maybe_unused]] const bool g_env_init = [] {
  journal_init_from_env();
  return true;
}();

}  // namespace

const char* to_string(JournalSeverity s) noexcept {
  switch (s) {
    case JournalSeverity::Info: return "info";
    case JournalSeverity::Warn: return "warn";
    case JournalSeverity::Error: return "error";
  }
  return "?";
}

void journal_start(std::size_t capacity) {
  log::journal_open(std::max<std::size_t>(capacity, 64));
}

void journal_stop() { log::journal_close(); }

void detail::log_event(JournalSeverity sev, const char* component, const char* event,
                       int device, double value, std::int64_t boundary,
                       const char* detail) noexcept {
  log::append(log::Record{.value = value,
                          .stream = g_run.load(std::memory_order_relaxed),
                          .ticket = static_cast<std::uint64_t>(boundary),
                          .cat = component,
                          .name = event,
                          .arg_key = detail,
                          .kind = log::Kind::Event,
                          .severity = static_cast<std::uint8_t>(sev),
                          .device = static_cast<std::int16_t>(device)});
}

std::uint64_t journal_new_run() noexcept {
  const std::uint64_t id = g_next_run.fetch_add(1, std::memory_order_relaxed) + 1;
  g_run.store(id, std::memory_order_relaxed);
  return id;
}

void journal_set_run(std::uint64_t id) noexcept {
  g_run.store(id, std::memory_order_relaxed);
}

std::uint64_t journal_run() noexcept { return g_run.load(std::memory_order_relaxed); }

std::vector<JournalEvent> journal_snapshot() {
  std::vector<JournalEvent> out;
  for (const log::Record& r : log::journal_window())
    out.push_back({.t_us = r.ts_us,
                   .run_id = r.stream,
                   .value = r.value,
                   .boundary = static_cast<std::int64_t>(r.ticket),
                   .component = r.cat,
                   .event = r.name,
                   .device = r.device,
                   .severity = static_cast<JournalSeverity>(r.severity),
                   .detail = r.arg_key});
  return out;
}

std::vector<JournalEvent> journal_snapshot(std::uint64_t run_id) {
  std::vector<JournalEvent> out = journal_snapshot();
  std::erase_if(out, [run_id](const JournalEvent& e) { return e.run_id != run_id; });
  return out;
}

std::string journal_event_json(const JournalEvent& e) {
  std::string out;
  out.reserve(160);
  out += "{\"t_us\":";
  json::append_number(out, e.t_us, 9);
  out += ",\"severity\":\"";
  out += to_string(e.severity);
  out += "\",\"run\":" + std::to_string(e.run_id);
  out += ",\"component\":\"";
  json::append_escaped(out, e.component);
  out += "\",\"event\":\"";
  json::append_escaped(out, e.event);
  out += "\",\"device\":" + std::to_string(e.device);
  out += ",\"boundary\":" + std::to_string(e.boundary);
  out += ",\"value\":";
  json::append_number(out, e.value, 9);
  if (e.detail[0] != '\0') {
    out += ",\"detail\":\"";
    json::append_escaped(out, e.detail);
    out += "\"";
  }
  out += "}";
  return out;
}

std::string journal_to_jsonl(const std::vector<JournalEvent>& events) {
  std::string out;
  bool first = true;
  for (const JournalEvent& e : events) {
    if (!first) out += '\n';
    first = false;
    out += journal_event_json(e);
  }
  return out;
}

bool journal_write(const std::string& path) {
  if (!journal_enabled()) return false;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "fth::obs: cannot open journal output '%s'\n", path.c_str());
    return false;
  }
  const std::string body = journal_to_jsonl(journal_snapshot());
  if (!body.empty()) std::fprintf(f, "%s\n", body.c_str());
  std::fclose(f);
  return true;
}

void journal_init_from_env() {
  static bool armed = false;
  const char* path = std::getenv("FTH_JOURNAL");
  if (armed || path == nullptr || path[0] == '\0') return;
  armed = true;
  journal_start();
  static std::string dump_path;
  dump_path = path;
  std::atexit([] { journal_write(dump_path); });
}

}  // namespace fth::obs
