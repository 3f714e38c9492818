// fth_incident — render and check the incident capsules the obs layer
// writes (obs/incident.hpp). A capsule is one JSON document bundling the
// journal slice, health timeline, strike ledger, metrics deltas and the
// flight/DAG fragments around one FT incident; this tool turns it back
// into a causal story and the two numbers EXPERIMENTS.md tables:
// detection latency (first strike → first detection) and recovery cost
// (first detection → last repair record).
//
//   fth_incident <capsule.json | dir>...    causal timeline per capsule +
//                                           an aggregate latency/cost table
//   fth_incident --check <paths...>         schema-validate only; exit 1 on
//                                           any invalid/unreadable capsule
//                                           (the CI gate over soak output)
//   fth_incident --json <paths...>          machine-readable summary
//
// Directories are scanned (non-recursively) for fth_incident_*.json, so
// pointing the tool at FTH_INCIDENT's directory consumes a whole soak.
// Exit status is nonzero whenever any capsule fails to parse or validate,
// in every mode.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "obs/incident.hpp"

namespace {

using fth::json::Value;

struct CapsuleSummary {
  std::string path;
  std::string trigger;
  std::string who;
  std::string status;
  std::uint64_t run = 0;
  int device = -1;
  fth::obs::IncidentTiming timing;
};

/// Expand an argument into capsule paths: files pass through, directories
/// are scanned for the writer's fth_incident_*.json naming scheme.
void expand_arg(const std::string& arg, std::vector<std::string>& out) {
  std::error_code ec;
  if (std::filesystem::is_directory(arg, ec)) {
    std::vector<std::string> found;
    for (const auto& entry : std::filesystem::directory_iterator(arg, ec)) {
      const std::string name = entry.path().filename().string();
      if (name.rfind("fth_incident_", 0) == 0 && name.size() > 5 &&
          name.compare(name.size() - 5, 5, ".json") == 0)
        found.push_back(entry.path().string());
    }
    std::sort(found.begin(), found.end());
    out.insert(out.end(), found.begin(), found.end());
  } else {
    out.push_back(arg);
  }
}

std::string string_or(const Value& v, const char* key, const char* fallback) {
  const Value* f = v.find(key);
  return f != nullptr && f->is_string() ? f->as_string() : fallback;
}

double number_or(const Value& v, const char* key, double fallback) {
  const Value* f = v.find(key);
  return f != nullptr && f->is_number() ? f->as_number() : fallback;
}

void print_timeline(const Value& capsule, const CapsuleSummary& s) {
  std::printf("== %s ==\n", s.path.c_str());
  std::printf("trigger %s by %s, run %llu, device %d, outcome %s",
              s.trigger.c_str(), s.who.c_str(), static_cast<unsigned long long>(s.run),
              s.device, s.status.c_str());
  const Value* outcome = capsule.find("outcome");
  if (outcome != nullptr && outcome->is_object()) {
    const std::string reason = string_or(*outcome, "reason", "");
    if (!reason.empty()) std::printf(" (%s)", reason.c_str());
  }
  std::printf("\n");

  const Value* journal = capsule.find("journal");
  if (journal != nullptr && journal->is_array() && !journal->as_array().empty()) {
    // Anchor the timeline at the earliest record so times read as +ms.
    double t0 = 0.0;
    bool have_t0 = false;
    for (const Value& e : journal->as_array()) {
      const double t = number_or(e, "t_us", -1.0);
      if (t >= 0.0 && (!have_t0 || t < t0)) {
        t0 = t;
        have_t0 = true;
      }
    }
    std::printf("timeline (%zu records):\n", journal->as_array().size());
    for (const Value& e : journal->as_array()) {
      if (!e.is_object()) continue;
      const std::string component = string_or(e, "component", "?");
      const std::string event = string_or(e, "event", "?");
      const double t = number_or(e, "t_us", -1.0);
      const int device = static_cast<int>(number_or(e, "device", -1.0));
      const char* role = fth::obs::incident_role(component, event);
      char dev[16] = "";
      if (device >= 0) std::snprintf(dev, sizeof dev, " dev%d", device);
      std::printf("  %+10.3f ms  %-7s %-5s %s/%s%s", have_t0 ? (t - t0) / 1e3 : 0.0, role,
                  string_or(e, "severity", "?").c_str(),
                  component.c_str(), event.c_str(), dev);
      const std::string detail = string_or(e, "detail", "");
      if (!detail.empty()) std::printf("  %s", detail.c_str());
      std::printf("\n");
    }
  }

  const Value* health = capsule.find("health");
  if (health != nullptr && health->is_array() && !health->as_array().empty()) {
    std::printf("health:");
    for (const Value& h : health->as_array()) {
      if (!h.is_object()) continue;
      std::printf(" dev%d=%s", static_cast<int>(number_or(h, "device", -1.0)),
                  string_or(h, "state", "?").c_str());
    }
    std::printf("\n");
  }

  if (s.timing.detection_latency_us >= 0.0)
    std::printf("detection latency: %.3f ms\n", s.timing.detection_latency_us / 1e3);
  if (s.timing.recovery_cost_us >= 0.0)
    std::printf("recovery cost:     %.3f ms\n", s.timing.recovery_cost_us / 1e3);
  std::printf("\n");
}

void print_aggregate(const std::vector<CapsuleSummary>& all) {
  std::vector<double> lat, cost;
  for (const CapsuleSummary& s : all) {
    if (s.timing.detection_latency_us >= 0.0) lat.push_back(s.timing.detection_latency_us);
    if (s.timing.recovery_cost_us >= 0.0) cost.push_back(s.timing.recovery_cost_us);
  }
  const auto stats = [](std::vector<double>& v, double& mn, double& avg, double& mx) {
    mn = avg = mx = 0.0;
    if (v.empty()) return;
    std::sort(v.begin(), v.end());
    mn = v.front();
    mx = v.back();
    for (const double x : v) avg += x;
    avg /= static_cast<double>(v.size());
  };
  double lmn, lavg, lmx, cmn, cavg, cmx;
  stats(lat, lmn, lavg, lmx);
  stats(cost, cmn, cavg, cmx);
  std::printf("-- aggregate over %zu capsule(s) --\n", all.size());
  std::printf("%-22s %8s %10s %10s %10s\n", "metric", "n", "min (ms)", "avg (ms)", "max (ms)");
  std::printf("%-22s %8zu %10.3f %10.3f %10.3f\n", "detection latency", lat.size(), lmn / 1e3,
              lavg / 1e3, lmx / 1e3);
  std::printf("%-22s %8zu %10.3f %10.3f %10.3f\n", "recovery cost", cost.size(), cmn / 1e3,
              cavg / 1e3, cmx / 1e3);
}

void append_escaped(std::string& out, const std::string& s) {
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char hex[8];
      std::snprintf(hex, sizeof hex, "\\u%04x", c);
      out += hex;
    } else {
      out.push_back(c);
    }
  }
}

void print_json(const std::vector<CapsuleSummary>& all) {
  std::string out = "[";
  for (std::size_t i = 0; i < all.size(); ++i) {
    const CapsuleSummary& s = all[i];
    if (i > 0) out += ',';
    out += "{\"path\":\"";
    append_escaped(out, s.path);
    out += "\",\"trigger\":\"";
    append_escaped(out, s.trigger);
    out += "\",\"who\":\"";
    append_escaped(out, s.who);
    out += "\",\"status\":\"";
    append_escaped(out, s.status);
    out += "\",\"run\":" + std::to_string(s.run);
    out += ",\"device\":" + std::to_string(s.device);
    char buf[64];
    std::snprintf(buf, sizeof buf, ",\"detection_latency_us\":%.9g",
                  s.timing.detection_latency_us);
    out += buf;
    std::snprintf(buf, sizeof buf, ",\"recovery_cost_us\":%.9g", s.timing.recovery_cost_us);
    out += buf;
    out += "}";
  }
  out += "]\n";
  std::fputs(out.c_str(), stdout);
}

}  // namespace

int main(int argc, char** argv) {
  bool check_only = false;
  bool as_json = false;
  std::vector<std::string> paths;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--check") == 0) check_only = true;
    else if (std::strcmp(argv[i], "--json") == 0) as_json = true;
    else expand_arg(argv[i], paths);
  }
  if (paths.empty()) {
    std::fprintf(stderr,
                 "usage: fth_incident [--check] [--json] <capsule.json | dir>...\n"
                 "(directories are scanned for fth_incident_*.json)\n");
    return 2;
  }

  int bad = 0;
  std::vector<CapsuleSummary> all;
  for (const std::string& path : paths) {
    Value capsule;
    try {
      capsule = fth::json::parse_file(path);
    } catch (const fth::json::parse_error& e) {
      std::fprintf(stderr, "fth_incident: %s: %s\n", path.c_str(), e.what());
      ++bad;
      continue;
    }
    const std::string err = fth::obs::incident_validate(capsule);
    if (!err.empty()) {
      std::fprintf(stderr, "fth_incident: %s: invalid capsule: %s\n", path.c_str(),
                   err.c_str());
      ++bad;
      continue;
    }
    CapsuleSummary s;
    s.path = path;
    s.trigger = string_or(capsule, "trigger", "?");
    s.who = string_or(capsule, "who", "?");
    s.run = static_cast<std::uint64_t>(number_or(capsule, "run", 0.0));
    s.device = static_cast<int>(number_or(capsule, "device", -1.0));
    const fth::json::Value* outcome = capsule.find("outcome");
    s.status = outcome != nullptr && outcome->is_object() ? string_or(*outcome, "status", "?")
                                                          : "?";
    s.timing = fth::obs::incident_timing(capsule);
    all.push_back(s);
    if (check_only) std::printf("%s: ok (%s, run %llu)\n", path.c_str(), s.trigger.c_str(),
                                static_cast<unsigned long long>(s.run));
    else if (!as_json) print_timeline(capsule, s);
  }

  if (as_json) print_json(all);
  else if (!check_only && all.size() > 1) print_aggregate(all);
  if (bad > 0) {
    std::fprintf(stderr, "fth_incident: %d invalid capsule(s)\n", bad);
    return 1;
  }
  return 0;
}
