#include "check/analyze_lex.hpp"

#include <cctype>

namespace fth::check::analyze {

namespace {

bool ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// Exactly a raw-string prefix (R"..), not an identifier merely ending in R.
bool is_raw_prefix(const std::string& id) {
  return id == "R" || id == "LR" || id == "uR" || id == "UR" || id == "u8R";
}

/// Multi-character punctuators, longest first within each length bucket.
const char* const kPunct3[] = {"<<=", ">>=", "->*", "..."};
const char* const kPunct2[] = {"::", "->", "++", "--", "+=", "-=", "*=", "/=",
                               "%=", "&=", "|=", "^=", "==", "!=", "<=", ">=",
                               "&&", "||", "<<", ">>"};

/// The path of a `#include "<path>.inc"` directive (the whole logical
/// line, `#` included), or empty for any other directive. Headers and
/// angle-bracket includes are not fragments: the analyzer never expands
/// them.
std::string fragment_path(const std::string& directive) {
  std::size_t k = 1;
  const auto skip_blanks = [&] {
    while (k < directive.size() && (directive[k] == ' ' || directive[k] == '\t')) ++k;
  };
  skip_blanks();
  if (directive.compare(k, 7, "include") != 0) return {};
  k += 7;
  skip_blanks();
  if (k >= directive.size() || directive[k] != '"') return {};
  const std::size_t close = directive.find('"', k + 1);
  if (close == std::string::npos) return {};
  std::string path = directive.substr(k + 1, close - k - 1);
  const std::size_t n = path.size();
  return n > 4 && path.compare(n - 4, 4, ".inc") == 0 ? path : std::string{};
}

}  // namespace

bool is_loop_keyword(const std::string& ident) {
  return ident == "for" || ident == "while" || ident == "do";
}

std::vector<Token> lex(const std::string& src) {
  std::vector<Token> out;
  const std::size_t n = src.size();
  std::size_t i = 0;
  int line = 1;
  bool line_start = true;  // only whitespace seen since the last newline

  while (i < n) {
    const char c = src[i];
    if (c == '\n') {
      ++line;
      ++i;
      line_start = true;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c)) != 0) {
      ++i;
      continue;
    }
    // Preprocessor directive: drop the logical line (honoring \-continuations),
    // keeping only a fragment include as one token.
    if (line_start && c == '#') {
      const std::size_t b = i;
      const int start_line = line;
      while (i < n) {
        if (src[i] == '\\' && i + 1 < n && src[i + 1] == '\n') {
          ++line;
          i += 2;
          continue;
        }
        if (src[i] == '\n') break;  // newline handled by the main loop
        ++i;
      }
      std::string path = fragment_path(src.substr(b, i - b));
      if (!path.empty()) out.push_back({Tok::Include, std::move(path), start_line});
      continue;
    }
    line_start = false;

    // Comments.
    if (c == '/' && i + 1 < n && src[i + 1] == '/') {
      while (i < n && src[i] != '\n') ++i;
      continue;
    }
    if (c == '/' && i + 1 < n && src[i + 1] == '*') {
      i += 2;
      while (i < n) {
        if (src[i] == '*' && i + 1 < n && src[i + 1] == '/') {
          i += 2;
          break;
        }
        if (src[i] == '\n') ++line;
        ++i;
      }
      continue;
    }

    // Identifier (possibly a raw-string prefix).
    if (ident_start(c)) {
      const std::size_t b = i;
      while (i < n && ident_char(src[i])) ++i;
      const std::string id = src.substr(b, i - b);
      if (i < n && src[i] == '"' && is_raw_prefix(id)) {
        // R"delim( ... )delim" — no escapes inside.
        ++i;  // opening quote
        std::string delim;
        while (i < n && src[i] != '(') delim.push_back(src[i++]);
        if (i < n) ++i;  // '('
        const std::string close = ")" + delim + "\"";
        const std::size_t pos = src.find(close, i);
        const int start_line = line;
        std::string contents;
        if (pos == std::string::npos) {
          contents = src.substr(i);
          i = n;
        } else {
          contents = src.substr(i, pos - i);
          i = pos + close.size();
        }
        for (const char cc : contents)
          if (cc == '\n') ++line;
        out.push_back({Tok::String, std::move(contents), start_line});
        continue;
      }
      out.push_back({Tok::Ident, id, line});
      continue;
    }

    // Number (loose pp-number: digits, letters, dots, digit separators,
    // sign after an exponent marker).
    if (std::isdigit(static_cast<unsigned char>(c)) != 0 ||
        (c == '.' && i + 1 < n && std::isdigit(static_cast<unsigned char>(src[i + 1])) != 0)) {
      const std::size_t b = i;
      while (i < n) {
        const char d = src[i];
        if (ident_char(d) || d == '.' || d == '\'') {
          ++i;
          continue;
        }
        if ((d == '+' || d == '-') && i > b) {
          const char prev = src[i - 1];
          if (prev == 'e' || prev == 'E' || prev == 'p' || prev == 'P') {
            ++i;
            continue;
          }
        }
        break;
      }
      out.push_back({Tok::Number, src.substr(b, i - b), line});
      continue;
    }

    // Ordinary string literal (a u8/u/U/L prefix was emitted as an Ident
    // token just above, which the analyzer ignores).
    if (c == '"') {
      ++i;
      const int start_line = line;
      std::string contents;
      while (i < n && src[i] != '"') {
        if (src[i] == '\\' && i + 1 < n) {
          contents.push_back(src[i + 1]);
          if (src[i + 1] == '\n') ++line;
          i += 2;
          continue;
        }
        if (src[i] == '\n') ++line;  // unterminated; keep line counts sane
        contents.push_back(src[i++]);
      }
      if (i < n) ++i;  // closing quote
      out.push_back({Tok::String, std::move(contents), start_line});
      continue;
    }
    if (c == '\'') {
      ++i;
      const int start_line = line;
      std::string contents;
      while (i < n && src[i] != '\'') {
        if (src[i] == '\\' && i + 1 < n) {
          contents.push_back(src[i + 1]);
          i += 2;
          continue;
        }
        contents.push_back(src[i++]);
      }
      if (i < n) ++i;
      out.push_back({Tok::Char, std::move(contents), start_line});
      continue;
    }

    // Punctuation, longest match first.
    bool matched = false;
    if (i + 2 < n) {
      for (const char* p : kPunct3) {
        if (src.compare(i, 3, p) == 0) {
          out.push_back({Tok::Punct, p, line});
          i += 3;
          matched = true;
          break;
        }
      }
    }
    if (!matched && i + 1 < n) {
      for (const char* p : kPunct2) {
        if (src.compare(i, 2, p) == 0) {
          out.push_back({Tok::Punct, p, line});
          i += 2;
          matched = true;
          break;
        }
      }
    }
    if (!matched) {
      out.push_back({Tok::Punct, std::string(1, c), line});
      ++i;
    }
  }
  return out;
}

}  // namespace fth::check::analyze
