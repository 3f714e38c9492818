#include "check/lint_rules.hpp"

#include <cctype>
#include <regex>

namespace fth::check::lint {

namespace {

bool starts_with(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

bool ends_with(const std::string& s, const char* suffix) {
  const std::size_t n = std::char_traits<char>::length(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

std::string trim(const std::string& s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b])) != 0) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])) != 0) --e;
  return s.substr(b, e - b);
}

/// Split into lines with comments AND string/char-literal contents blanked
/// out (replaced by spaces so column positions survive). Handles // and
/// /* */ spanning lines. Literal contents are not code: a rule token quoted
/// in a message or a test seed must not fire the rule.
std::vector<std::string> code_lines(const std::string& content) {
  std::vector<std::string> lines;
  std::string cur;
  enum class St { Code, Slash, Line, Block, BlockStar, Str, StrEsc, Chr, ChrEsc, RawDelim, Raw };
  St st = St::Code;
  std::string raw_delim;      // delimiter of the raw literal being scanned
  std::size_t raw_match = 0;  // delimiter chars matched after a ')' (Raw state)
  bool raw_matching = false;  // a ')' opened a close-sequence candidate
  // A '"' opens a *raw* literal iff the identifier characters immediately
  // before it are exactly a raw-string prefix (R, LR, uR, UR, u8R). A longer
  // identifier ending in R (e.g. FOOR"x") is an ordinary literal after a
  // macro/identifier token.
  const auto is_raw_prefix = [](const std::string& code) {
    std::size_t b = code.size();
    while (b > 0 && (std::isalnum(static_cast<unsigned char>(code[b - 1])) != 0 ||
                     code[b - 1] == '_'))
      --b;
    const std::string id = code.substr(b);
    return id == "R" || id == "LR" || id == "uR" || id == "UR" || id == "u8R";
  };
  for (const char c : content) {
    if (c == '\n') {
      // Line comments end; block comments (and raw literals) continue
      // across the newline.
      if (st == St::Line || st == St::Slash) st = St::Code;
      lines.push_back(cur);
      cur.clear();
      continue;
    }
    switch (st) {
      case St::Code:
        if (c == '/') {
          st = St::Slash;
        } else {
          if (c == '"') {
            if (is_raw_prefix(cur)) {
              st = St::RawDelim;
              raw_delim.clear();
            } else {
              st = St::Str;
            }
          }
          if (c == '\'') st = St::Chr;
          cur.push_back(c);
        }
        break;
      case St::Slash:
        if (c == '/') {
          st = St::Line;
        } else if (c == '*') {
          st = St::Block;
          cur.push_back(' ');  // the '/' we held back
          cur.push_back(' ');
        } else {
          cur.push_back('/');
          if (c == '"') {
            if (is_raw_prefix(cur)) {
              st = St::RawDelim;
              raw_delim.clear();
            } else {
              st = St::Str;
            }
          } else if (c == '\'')
            st = St::Chr;
          else
            st = St::Code;
          if (st != St::Slash) cur.push_back(c);
        }
        break;
      case St::Line:
        break;  // drop
      case St::Block:
        if (c == '*') st = St::BlockStar;
        cur.push_back(' ');
        break;
      case St::BlockStar:
        if (c == '/') st = St::Code;
        else if (c != '*') st = St::Block;
        cur.push_back(' ');
        break;
      case St::Str:
        if (c == '\\') st = St::StrEsc;
        else if (c == '"') st = St::Code;
        cur.push_back(c == '"' ? c : ' ');
        break;
      case St::StrEsc:
        st = St::Str;
        cur.push_back(' ');
        break;
      case St::Chr:
        if (c == '\\') st = St::ChrEsc;
        else if (c == '\'') st = St::Code;
        cur.push_back(c == '\'' ? c : ' ');
        break;
      case St::ChrEsc:
        st = St::Chr;
        cur.push_back(' ');
        break;
      case St::RawDelim:
        // Collect the d-char-seq of R"delim( — everything up to the '('.
        if (c == '(') {
          st = St::Raw;
          raw_matching = false;
          raw_match = 0;
        } else {
          raw_delim.push_back(c);
        }
        cur.push_back(' ');
        break;
      case St::Raw:
        // No escapes inside a raw literal: it ends only at )delim". The
        // delimiter cannot contain ')', so a ')' always (re)opens the
        // close-sequence candidate.
        if (raw_matching && raw_match == raw_delim.size() && c == '"') {
          st = St::Code;
          cur.push_back('"');
          break;
        }
        if (raw_matching && raw_match < raw_delim.size() && c == raw_delim[raw_match]) {
          ++raw_match;
        } else {
          raw_matching = c == ')';
          raw_match = 0;
        }
        cur.push_back(' ');
        break;
    }
  }
  if (!cur.empty() || content.empty() || content.back() != '\n') lines.push_back(cur);
  return lines;
}

// ---- rule scopes ------------------------------------------------------------

/// Files allowed to spell the unchecked device-view escape hatches.
bool device_unwrap_allowed(const std::string& p) {
  return p == "src/la/matrix.hpp" ||          // defines the gates
         starts_with(p, "src/check/") ||      // the checker + these rules
         starts_with(p, "src/hybrid/") ||     // the runtime that owns the discipline
         p == "src/fault/fault_plane.hpp" ||  // worker-thread fire paths
         p == "src/fault/fault_plane.cpp" ||
         starts_with(p, "tests/check/");  // seeded-violation self-tests
}

/// Directories whose function signatures must use index_t for dimensions.
bool int_index_scoped(const std::string& p) {
  return starts_with(p, "src/la/") || starts_with(p, "src/lapack/") ||
         starts_with(p, "src/hybrid/") || starts_with(p, "src/ft/");
}

}  // namespace

bool in_scope(const std::string& rel_path) {
  if (!(ends_with(rel_path, ".hpp") || ends_with(rel_path, ".cpp") || ends_with(rel_path, ".inc")))
    return false;
  return starts_with(rel_path, "src/") || starts_with(rel_path, "tests/") ||
         starts_with(rel_path, "tools/") || starts_with(rel_path, "examples/") ||
         starts_with(rel_path, "bench/");
}

std::vector<Issue> lint_file(const std::string& rel_path, const std::string& content) {
  std::vector<Issue> issues;
  if (!in_scope(rel_path)) return issues;

  // device-unwrap tokens. Plain substring search: these identifiers are
  // unambiguous and never legitimate outside the allowlist.
  static const struct {
    const char* token;
    const char* what;
  } kUnwrapTokens[] = {
      {".unchecked_host_view(", "unchecked device-view unwrap"},
      {".raw_data(", "raw device base-address access"},
      {"detail::unchecked_view", "hook-free view construction"},
      {"unchecked_view_t", "hook-free view constructor tag"},
  };

  // int-index: `int` in a parameter slot ("(" or "," directly before) with a
  // dimension-flavoured name and no initializer. Loop headers (`for (int k =
  // 0;`) carry the `=` and do not match.
  static const std::regex int_index_re(
      R"re([(,]\s*(?:const\s+)?int\s+(?:m|n|k|nb|ib|ld[a-z]{0,2}|rows|cols|row|col|inc[a-z]?|offset)\s*[,)])re");

  // naked-new-array: `new T[...]` (any type spelling).
  static const std::regex new_array_re(R"re(\bnew\s+[A-Za-z_][\w:<>,\s]*\[)re");

  // panel-impl: a `*_panel(` reference in src/lapack/ that is not a
  // qualified call (`detail::lahr2_panel(`). Unqualified spellings only
  // occur at the definitions, which belong in *_impl.hpp.
  static const std::regex panel_re(R"re((?:^|[^:\w])(\w+_panel)\s*\()re");

  const bool check_unwrap = !device_unwrap_allowed(rel_path);
  const bool check_int = int_index_scoped(rel_path);
  const bool check_panel =
      starts_with(rel_path, "src/lapack/") && !ends_with(rel_path, "_impl.hpp");

  const std::vector<std::string> lines = code_lines(content);
  for (std::size_t li = 0; li < lines.size(); ++li) {
    const std::string& line = lines[li];
    const int lineno = static_cast<int>(li) + 1;

    if (check_unwrap) {
      for (const auto& t : kUnwrapTokens) {
        if (line.find(t.token) != std::string::npos) {
          issues.push_back({rel_path, lineno, "device-unwrap",
                            std::string(t.what) +
                                " outside the src/hybrid allowlist; use .in_task() "
                                "inside a stream task or hybrid::host_view() after "
                                "the stream drained",
                            trim(line)});
          break;  // one report per line is enough
        }
      }
    }

    if (check_int && std::regex_search(line, int_index_re)) {
      issues.push_back({rel_path, lineno, "int-index",
                        "dimension/stride parameter typed int; LAPACK-subset "
                        "signatures take index_t (int64)",
                        trim(line)});
    }

    if (std::regex_search(line, new_array_re)) {
      issues.push_back({rel_path, lineno, "naked-new-array",
                        "naked new[]; use Matrix<T>/std::vector or "
                        "Device::raw_allocate so the storage is tracked",
                        trim(line)});
    }

    if (check_panel && std::regex_search(line, panel_re)) {
      issues.push_back({rel_path, lineno, "panel-impl",
                        "panel loop referenced unqualified outside *_impl.hpp; "
                        "panel kernels are defined only in the templated "
                        "*_impl.hpp headers and called as lapack::detail::*",
                        trim(line)});
    }
  }
  return issues;
}

std::string format(const Issue& issue) {
  std::string out = issue.file;
  out += ':';
  out += std::to_string(issue.line);
  out += ": [";
  out += issue.rule;
  out += "] ";
  out += issue.message;
  if (!issue.excerpt.empty()) {
    out += "\n    ";
    out += issue.excerpt;
  }
  return out;
}

}  // namespace fth::check::lint
