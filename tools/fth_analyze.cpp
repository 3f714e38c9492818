// fth_analyze — static transfer/Event-discipline gate (engine in
// src/check/analyze.hpp, rules in DESIGN.md §11).
//
//   fth_analyze [--sarif out.json] [--perf] [--perf-error] [--rule=<name>]
//               [--dag graph.json] [--stats-out stats.txt] [repo-root]
//
// Walks src/hybrid/, src/ft/, examples/, bench/ under the given root
// (default: the current directory), runs the fth::analyze symbolic
// dataflow pass over every .hpp/.cpp (their quoted `.inc` fragments
// expanded in place, read from the tree), prints each finding as
// file:line: [rule] message (+ the happens-before edge that would fix
// it), and exits non-zero when anything fired. Registered as the
// `analyze.repo` ctest: deleting an Event wait, a synchronize(), or a
// task's FTH_TASK_EFFECTS declaration fails the suite before any test
// executes the broken path. `--sarif` additionally writes the findings
// as a SARIF 2.1.0 log (for CI upload / inline annotations); the text
// output is unchanged by the flag.
//
// The §11.5 performance plane:
//   --perf        also compute the advisory overlap rules
//                 (redundant-wait, coarse-synchronize,
//                 false-serialization, over-wide-effects,
//                 dead-transfer). Perf findings print with a
//                 `suggested:` fix-it and NEVER change the exit code;
//                 without the flag the output is byte-identical to the
//                 correctness gate.
//   --perf-error  promote *unexpected* perf findings (no matching
//                 `// fth-perf: expect` marker) to the exit code.
//   --rule=<name> print only findings of one rule (display filter; the
//                 exit code is still computed from the full set).
//   --dag <file>  a recorded execution DAG (fth_why / Graph::to_json):
//                 false-serialization findings are annotated with the
//                 measured duration of the named task pair — the
//                 critical-path savings an overlap could buy.
//   --stats-out <file>  write the whole-tree stats as key=value lines
//                 (the tests/check/analyze_golden.txt format).
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "check/analyze.hpp"
#include "common/json.hpp"
#include "obs/dag.hpp"

namespace fs = std::filesystem;

namespace {

std::string slurp(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Repo-relative path with forward slashes.
std::string rel_slash(const fs::path& p, const fs::path& root) {
  return p.lexically_relative(root).generic_string();
}

/// Total measured duration per task label in a recorded DAG.
std::map<std::string, double> label_durations(const std::string& dag_text) {
  std::map<std::string, double> dur;
  const fth::obs::dag::Graph g = fth::obs::dag::parse_graph(fth::json::parse(dag_text));
  for (const auto& node : g.nodes)
    if (!node.label.empty()) dur[node.label] += node.dur_us();
  return dur;
}

int usage() {
  std::fprintf(stderr,
               "fth_analyze: usage: fth_analyze [--sarif out.json] [--perf] [--perf-error] "
               "[--rule=<name>] [--dag graph.json] [--stats-out stats.txt] [repo-root]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  fs::path root;
  std::string sarif_path, dag_path, stats_path, rule_filter;
  fth::check::analyze::Options opts;
  bool perf_error = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--sarif") == 0 && i + 1 < argc) {
      sarif_path = argv[++i];
    } else if (std::strcmp(argv[i], "--perf") == 0) {
      opts.perf = true;
    } else if (std::strcmp(argv[i], "--perf-error") == 0) {
      opts.perf = true;
      perf_error = true;
    } else if (std::strncmp(argv[i], "--rule=", 7) == 0) {
      rule_filter = argv[i] + 7;
    } else if (std::strcmp(argv[i], "--dag") == 0 && i + 1 < argc) {
      dag_path = argv[++i];
    } else if (std::strcmp(argv[i], "--stats-out") == 0 && i + 1 < argc) {
      stats_path = argv[++i];
    } else if (root.empty() && argv[i][0] != '-') {
      root = fs::path(argv[i]);
    } else {
      return usage();
    }
  }
  if (root.empty()) root = fs::current_path();
  if (!fs::exists(root / "src")) {
    std::fprintf(stderr, "fth_analyze: %s does not look like the repo root (no src/)\n",
                 root.string().c_str());
    return 2;
  }

  const auto fragments = [&root](const std::string& rel, std::string& text) {
    const fs::path p = root / rel;
    if (!fs::is_regular_file(p)) return false;
    text = slurp(p);
    return true;
  };

  std::vector<fth::check::analyze::Finding> findings;
  fth::check::analyze::Stats stats;
  std::size_t files = 0;
  for (const char* dir : {"src/hybrid", "src/ft", "examples", "bench"}) {
    const fs::path top = root / dir;
    if (!fs::exists(top)) continue;
    for (const auto& entry : fs::recursive_directory_iterator(top)) {
      if (!entry.is_regular_file()) continue;
      const std::string rel = rel_slash(entry.path(), root);
      if (!fth::check::analyze::in_scope(rel)) continue;
      ++files;
      auto found =
          fth::check::analyze::analyze_source(rel, slurp(entry.path()), &stats, opts, fragments);
      findings.insert(findings.end(), found.begin(), found.end());
    }
  }

  // --dag: price each false-serialization pair from the recorded graph.
  if (opts.perf && !dag_path.empty()) {
    std::map<std::string, double> dur;
    try {
      dur = label_durations(slurp(dag_path));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "fth_analyze: cannot read DAG %s: %s\n", dag_path.c_str(),
                   e.what());
      return 2;
    }
    for (auto& f : findings) {
      if (!f.perf || f.rule != "false-serialization" || f.tasks.size() != 2) continue;
      const auto a = dur.find(f.tasks[0]);
      const auto b = dur.find(f.tasks[1]);
      if (a == dur.end() || b == dur.end()) continue;
      // Overlapping the pair saves up to the shorter side's time.
      const double saved = std::min(a->second, b->second);
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    " [measured: \"%s\" %.1f us, \"%s\" %.1f us; overlap saves up to "
                    "%.1f us/occurrence on the critical path]",
                    f.tasks[0].c_str(), a->second, f.tasks[1].c_str(), b->second, saved);
      f.message += buf;
    }
  }

  std::size_t correctness = 0, perf_expected = 0, perf_unexpected = 0;
  for (const auto& finding : findings) {
    if (finding.perf) {
      ++(finding.expected ? perf_expected : perf_unexpected);
    } else {
      ++correctness;
    }
    if (!rule_filter.empty() && finding.rule != rule_filter) continue;
    std::fprintf(stderr, "%s\n", fth::check::analyze::format(finding).c_str());
  }
  std::printf(
      "fth_analyze: %zu file(s), %zu function(s), %zu task(s), %zu transfer(s), "
      "%zu event(s)/%zu wait(s), %zu sync(s), %zu spliced call(s) analyzed, %zu finding(s)\n",
      files, stats.functions, stats.enqueues, stats.transfers, stats.records, stats.waits,
      stats.syncs, stats.calls, correctness);
  if (opts.perf)
    std::printf("fth_analyze: perf plane: %zu advisory finding(s), %zu expected exemplar(s)\n",
                perf_unexpected, perf_expected);

  if (!stats_path.empty()) {
    std::ofstream out(stats_path, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "fth_analyze: cannot write %s\n", stats_path.c_str());
      return 2;
    }
    out << fth::check::analyze::stats_lines(stats, files);
  }
  if (!sarif_path.empty()) {
    std::ofstream out(sarif_path, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "fth_analyze: cannot write %s\n", sarif_path.c_str());
      return 2;
    }
    out << fth::check::analyze::to_sarif(findings);
  }
  if (correctness > 0) return 1;
  return perf_error && perf_unexpected > 0 ? 1 : 0;
}
