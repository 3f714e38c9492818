#include "obs/compare.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace fth::obs {

bool glob_match(const std::string& pattern, const std::string& text) {
  // Iterative '*' backtracking (the classic two-pointer glob).
  std::size_t p = 0, t = 0, star = std::string::npos, mark = 0;
  while (t < text.size()) {
    if (p < pattern.size() && (pattern[p] == '?' || pattern[p] == text[t])) {
      ++p;
      ++t;
    } else if (p < pattern.size() && pattern[p] == '*') {
      star = p++;
      mark = t;
    } else if (star != std::string::npos) {
      p = star + 1;
      t = ++mark;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '*') ++p;
  return p == pattern.size();
}

void flatten_numbers(const json::Value& v, const std::string& prefix,
                     std::map<std::string, double>& out) {
  switch (v.type()) {
    case json::Type::Number: out[prefix] = v.as_number(); break;
    case json::Type::Object:
      for (const auto& [key, child] : v.as_object())
        flatten_numbers(child, prefix.empty() ? key : prefix + "." + key, out);
      break;
    case json::Type::Array: {
      std::size_t i = 0;
      for (const auto& child : v.as_array())
        flatten_numbers(child, prefix + "." + std::to_string(i++), out);
      break;
    }
    default: break;  // bools, strings and nulls are not gateable metrics
  }
}

std::vector<ThresholdRule> parse_thresholds(std::istream& in) {
  std::vector<ThresholdRule> rules;
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (const auto hash = line.find('#'); hash != std::string::npos) line.resize(hash);
    std::istringstream ls(line);
    std::string pattern, mode;
    if (!(ls >> pattern)) continue;  // blank / comment-only line
    if (!(ls >> mode))
      throw json::parse_error("thresholds line " + std::to_string(lineno) + ": missing mode");
    ThresholdRule r;
    r.pattern = pattern;
    if (mode == "rel") r.mode = ThresholdRule::Mode::Rel;
    else if (mode == "abs") r.mode = ThresholdRule::Mode::Abs;
    else if (mode == "max_increase") r.mode = ThresholdRule::Mode::MaxIncrease;
    else if (mode == "max_decrease") r.mode = ThresholdRule::Mode::MaxDecrease;
    else if (mode == "ignore") r.mode = ThresholdRule::Mode::Ignore;
    else
      throw json::parse_error("thresholds line " + std::to_string(lineno) + ": unknown mode '" +
                              mode + "'");
    if (r.mode != ThresholdRule::Mode::Ignore && !(ls >> r.tol))
      throw json::parse_error("thresholds line " + std::to_string(lineno) +
                              ": missing tolerance");
    rules.push_back(std::move(r));
  }
  return rules;
}

CompareResult compare_reports(const json::Value& base, const json::Value& cand,
                              const std::vector<ThresholdRule>& rules) {
  std::map<std::string, double> b, c;
  flatten_numbers(base, "", b);
  flatten_numbers(cand, "", c);

  CompareResult res;
  for (const auto& [path, bv] : b) {
    const ThresholdRule* rule = nullptr;
    for (const auto& r : rules) {
      if (glob_match(r.pattern, path)) {
        rule = &r;
        break;
      }
    }
    if (rule == nullptr || rule->mode == ThresholdRule::Mode::Ignore) continue;

    Comparison cmp;
    cmp.path = path;
    cmp.base = bv;
    cmp.rule = rule->pattern;
    const auto it = c.find(path);
    if (it == c.end()) {
      cmp.missing = true;
      cmp.violated = true;  // a gated metric disappearing IS a regression
    } else {
      cmp.cand = it->second;
      const double denom = std::max({std::fabs(bv), std::fabs(cmp.cand), 1e-12});
      cmp.rel_delta = (cmp.cand - bv) / denom;
      switch (rule->mode) {
        case ThresholdRule::Mode::Rel:
          cmp.violated = std::fabs(cmp.rel_delta) > rule->tol;
          break;
        case ThresholdRule::Mode::Abs:
          cmp.violated = std::fabs(cmp.cand - bv) > rule->tol;
          break;
        case ThresholdRule::Mode::MaxIncrease:
          cmp.violated = cmp.cand - bv > rule->tol * std::max(std::fabs(bv), 1e-12);
          break;
        case ThresholdRule::Mode::MaxDecrease:
          cmp.violated = bv - cmp.cand > rule->tol * std::max(std::fabs(bv), 1e-12);
          break;
        case ThresholdRule::Mode::Ignore: break;
      }
    }
    if (cmp.violated) ++res.violations;
    res.gated.push_back(std::move(cmp));
  }
  return res;
}

void print_comparison(const CompareResult& res, std::FILE* out) {
  std::fprintf(out, "%-52s %14s %14s %9s  %s\n", "metric", "baseline", "candidate", "delta",
               "verdict");
  for (const auto& g : res.gated) {
    if (g.missing) {
      std::fprintf(out, "%-52s %14.6g %14s %9s  VIOLATION (missing)\n", g.path.c_str(), g.base,
                   "-", "-");
      continue;
    }
    std::fprintf(out, "%-52s %14.6g %14.6g %+8.2f%%  %s\n", g.path.c_str(), g.base, g.cand,
                 100.0 * g.rel_delta, g.violated ? "VIOLATION" : "ok");
  }
  std::fprintf(out, "%d gated metric(s), %d violation(s)\n",
               static_cast<int>(res.gated.size()), res.violations);
}

}  // namespace fth::obs
