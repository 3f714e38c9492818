// fth::check::lint — the repo's source-lint rules as a pure library.
//
// The rules enforce the coding discipline CLAUDE.md documents, so the
// invariants stop living only in prose:
//
//   device-unwrap      The unchecked device-view escape hatches
//                      (.unchecked_host_view(), .raw_data(), the hook-free
//                      detail::unchecked_view constructor tag) appear only
//                      in the allowlisted runtime layers (src/hybrid/, the
//                      view definitions themselves, the checker, the fault
//                      plane's worker-thread fire paths, and the seeded
//                      checker self-tests). Everyone else goes through the
//                      checked gates: .in_task() or hybrid::host_view().
//   int-index          LAPACK-subset / hybrid / FT signatures take index_t
//                      for dimensions and leading dimensions, never int —
//                      i + j*ld overflows 32 bits well inside the paper's
//                      10110-sized sweep, and a lone int parameter poisons
//                      that arithmetic silently.
//   naked-new-array    No `new T[...]`; storage is Matrix<T>, std::vector,
//                      or Device::raw_allocate (tracked, checker-visible).
//   panel-impl         The blocked panel loops (lahr2_panel, latrd_panel,
//                      labrd_panel) are *defined* only in *_impl.hpp
//                      headers templated on the trailing-matrix operation;
//                      drivers call them, they never re-implement them.
//
// tools/fth_lint walks the tree and applies these; tests/check/test_lint.cpp
// feeds seeded-bad snippets through the same entry points, so a rule that
// stops firing fails a unit test, not just a code review.
#pragma once

#include <string>
#include <vector>

namespace fth::check::lint {

/// One lint finding. `line` is 1-based; `rule` is the stable rule id.
struct Issue {
  std::string file;     ///< repo-relative path (forward slashes)
  int line = 0;         ///< 1-based line number
  std::string rule;     ///< "device-unwrap", "int-index", ...
  std::string message;  ///< human-readable explanation
  std::string excerpt;  ///< the offending source line, trimmed
};

/// True when `rel_path` is a C++ source the lint scans at all
/// (.hpp/.cpp/.inc under src/, tests/, tools/, examples/, bench/).
bool in_scope(const std::string& rel_path);

/// Apply every rule to one file's content. `rel_path` must be
/// repo-relative with forward slashes (it drives the per-rule scopes and
/// allowlists). Comment text (// and /* */) is not scanned.
std::vector<Issue> lint_file(const std::string& rel_path, const std::string& content);

/// Format one issue as "file:line: [rule] message" plus the excerpt.
std::string format(const Issue& issue);

}  // namespace fth::check::lint
