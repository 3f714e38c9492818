// fth_lint — repo source lint gate (rules in src/check/lint_rules.hpp).
//
//   fth_lint [repo-root]
//
// Walks src/, tests/, tools/, examples/, bench/ under the given root
// (default: the current directory), applies the fth::check::lint rules to
// every .hpp/.cpp/.inc, prints each finding as file:line: [rule] message, and
// exits non-zero when anything fired. Registered as the `lint.repo` ctest,
// so a discipline regression fails the suite, not just a review.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "check/lint_rules.hpp"

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
  std::string s = p.lexically_relative(root).generic_string();
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  const fs::path root = argc > 1 ? fs::path(argv[1]) : fs::current_path();
  if (!fs::exists(root / "src")) {
    std::fprintf(stderr, "fth_lint: %s does not look like the repo root (no src/)\n",
                 root.string().c_str());
    return 2;
  }

  std::vector<fth::check::lint::Issue> issues;
  std::size_t files = 0;
  for (const char* dir : {"src", "tests", "tools", "examples", "bench"}) {
    const fs::path top = root / dir;
    if (!fs::exists(top)) continue;
    for (const auto& entry : fs::recursive_directory_iterator(top)) {
      if (!entry.is_regular_file()) continue;
      const std::string rel = rel_slash(entry.path(), root);
      if (!fth::check::lint::in_scope(rel)) continue;
      ++files;
      auto found = fth::check::lint::lint_file(rel, slurp(entry.path()));
      issues.insert(issues.end(), found.begin(), found.end());
    }
  }

  for (const auto& issue : issues)
    std::fprintf(stderr, "%s\n", fth::check::lint::format(issue).c_str());
  std::printf("fth_lint: %zu file(s) scanned, %zu finding(s)\n", files, issues.size());
  return issues.empty() ? 0 : 1;
}
