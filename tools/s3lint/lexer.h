// Token-aware C++ scanner for s3lint. Not a real C++ lexer — just enough to
// see through comments, string literals, and preprocessor lines so the rule
// engine can reason about identifier/operator sequences without regex
// false-positives (a `%` inside a format string, `std::cout` in a comment).
//
// Dependency-free C++17; no project headers on purpose — the linter must
// build even when the tree it lints does not.
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

namespace s3lint {

enum class TokKind {
  kIdent,    // identifiers and keywords
  kNumber,   // pp-number (includes 0x.., 1e-5, digit separators)
  kString,   // "..." / R"(...)" / '...' (text is the raw literal)
  kPunct,    // operators and punctuation, longest-match (e.g. "::", "->")
  kDirective // one whole preprocessor line (continuations folded in)
};

struct Token {
  TokKind kind;
  std::string text;
  int line = 1;  // 1-based line the token starts on
};

struct Comment {
  std::string text;  // without the // or /* */ markers
  int line = 1;      // line the comment starts on
  bool own_line = false;  // no code token precedes it on its line
};

struct TokenizedFile {
  std::vector<Token> tokens;
  std::vector<Comment> comments;
  int num_lines = 0;
};

TokenizedFile tokenize(const std::string& source);

// Suppression comments:
//   // s3lint: disable(rule-a, rule-b)   — suppresses on this line and the
//                                          next (so it works trailing or on
//                                          the line above the construct)
//   // s3lint: disable-file(rule-a)      — suppresses for the whole file
// The rule name "all" disables every rule. Other tools built on this lexer
// (s3lockcheck, s3viewcheck) reuse the same syntax under their own tag, e.g.
// "// s3lockcheck: disable(lock-cycle)".
class Suppressions {
 public:
  static Suppressions parse(const std::vector<Comment>& comments,
                            const std::string& tag = "s3lint:");

  [[nodiscard]] bool suppressed(const std::string& rule, int line) const;

 private:
  std::set<std::string> file_rules_;
  std::map<int, std::set<std::string>> line_rules_;
};

}  // namespace s3lint
