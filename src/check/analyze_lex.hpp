#pragma once
// Tokenizer for the fth::analyze static dataflow pass (DESIGN.md §11).
//
// A deliberately small C++-subset lexer: identifiers, numbers,
// string/char literals (including raw strings and encoding prefixes),
// and punctuation with the multi-character operators the analyzer must
// tell apart (`=` vs `==`, `.` vs `...`). Comments and preprocessor
// lines are dropped, except a quoted `#include` of a `.inc` fragment,
// which becomes one Include token the analyzer expands in place; every
// token carries the 1-based source line it started on so findings point
// at real locations.
//
// This is not a conforming C++ lexer — it only has to be faithful on
// the repo's own sources, which the analyze.repo ctest gate keeps
// honest.

#include <string>
#include <vector>

namespace fth::check::analyze {

enum class Tok {
  Ident,   ///< identifier or keyword
  Number,  ///< numeric literal (pp-number, loosely)
  String,  ///< string literal; text = contents without quotes/delimiters
  Char,    ///< character literal; text = contents
  Punct,   ///< operator / punctuator, longest-match
  Include, ///< `#include "<path>.inc"`; text = the spelled path
};

struct Token {
  Tok kind;
  std::string text;
  int line = 0;  ///< 1-based line the token starts on (a unit position once expanded)
};

/// Lex `content` into tokens. Never fails: unrecognized bytes become
/// single-character Punct tokens.
std::vector<Token> lex(const std::string& content);

/// True for the keywords that open an iteration statement (`for`,
/// `while`, `do`). The loop-carried happens-before pass (DESIGN.md
/// §11.3) walks the bodies of these twice; everything else — including
/// `if`/`else`/`switch` — is walked as straight-line code (may-union).
bool is_loop_keyword(const std::string& ident);

}  // namespace fth::check::analyze
