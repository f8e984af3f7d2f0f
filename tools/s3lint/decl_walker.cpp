#include "s3lint/decl_walker.h"

#include <algorithm>
#include <cctype>
#include <cstdlib>

#include "s3lint/scope.h"

namespace s3lint {

bool is_ident(const Token& t) { return t.kind == TokKind::kIdent; }

bool is_punct(const Token& t, const char* text) {
  return t.kind == TokKind::kPunct && t.text == text;
}

bool is_macro_name(const std::string& s) {
  if (s.size() < 2) return false;
  bool has_upper = false;
  for (const char c : s) {
    if (std::islower(static_cast<unsigned char>(c))) return false;
    if (std::isupper(static_cast<unsigned char>(c))) has_upper = true;
  }
  return has_upper;
}

bool is_decl_qualifier(const std::string& s) {
  return s == "const" || s == "mutable" || s == "static" || s == "inline" ||
         s == "constexpr" || s == "volatile" || s == "typename" ||
         s == "unsigned" || s == "signed" || s == "explicit" ||
         s == "virtual" || s == "friend" || s == "using" || s == "extern";
}

std::size_t skip_balanced(const std::vector<Token>& toks, std::size_t i) {
  int paren = 0, brace = 0, bracket = 0;
  for (; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokKind::kPunct) continue;
    if (t.text == "(") ++paren;
    if (t.text == ")") --paren;
    if (t.text == "{") ++brace;
    if (t.text == "}") --brace;
    if (t.text == "[") ++bracket;
    if (t.text == "]") --bracket;
    if (paren == 0 && brace == 0 && bracket == 0) return i + 1;
  }
  return toks.size();
}

std::size_t skip_angles(const std::vector<Token>& toks, std::size_t i) {
  int depth = 0;
  for (std::size_t j = i; j < toks.size(); ++j) {
    const Token& t = toks[j];
    if (t.kind == TokKind::kPunct) {
      if (t.text == "<") ++depth;
      if (t.text == ">") --depth;
      if (t.text == ">>") depth -= 2;
      if (t.text == ";" || t.text == "{") break;  // never spans a statement
      if (depth <= 0 && (t.text == ">" || t.text == ">>")) return j + 1;
    }
  }
  return i + 1;
}

namespace {

// A class-ish identifier: what a declared type's last name can be.
bool is_type_name(const Token& t) {
  return is_ident(t) && !is_decl_qualifier(t.text) && !is_macro_name(t.text) &&
         !is_keyword(t.text) && t.text != "std";
}

struct HeaderParse {
  FunctionHeader fn;
  std::size_t next = 0;  // index after the header (past `{` or `;`)
};

// Parses the identifier arguments of an annotation macro like
// S3_REQUIRES(mu_) or S3_EXCLUDES(mu_, other_mu_); each top-level argument
// becomes its identifier chain joined with '.'.
void parse_annotation_args(const std::vector<Token>& toks, std::size_t open,
                           std::size_t close, std::vector<std::string>* out) {
  std::string cur;
  for (std::size_t j = open + 1; j < close; ++j) {
    if (is_ident(toks[j]) && !is_keyword(toks[j].text)) {
      if (!cur.empty()) cur += '.';
      cur += toks[j].text;
    } else if (is_punct(toks[j], ",")) {
      if (!cur.empty()) out->push_back(cur);
      cur.clear();
    }
  }
  if (!cur.empty()) out->push_back(cur);
}

// Attempts to parse a function declaration or definition whose first token
// is at `start`. `class_path` is the enclosing class ("" at namespace
// scope). Returns nullopt when the statement is not recognizably a
// function.
std::optional<HeaderParse> parse_function(const std::vector<Token>& toks,
                                          std::size_t start,
                                          const std::string& class_path,
                                          const std::string& path) {
  // 1. Find "name (" with the name chain immediately before the paren.
  std::size_t i = start;
  std::size_t name_pos = 0;
  int angle = 0;
  bool found = false;
  for (; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind == TokKind::kPunct) {
      if (t.text == ";" || t.text == "{" || t.text == "}" || t.text == "=")
        return std::nullopt;
      if (t.text == "<") ++angle;
      if (t.text == ">") angle = std::max(0, angle - 1);
      if (t.text == ">>") angle = std::max(0, angle - 2);
      if (t.text == "(" && angle == 0 && i > start && is_ident(toks[i - 1]) &&
          !is_keyword(toks[i - 1].text)) {
        name_pos = i - 1;
        found = true;
        break;
      }
      // A paren not preceded by a plain identifier (function pointer,
      // parenthesized initializer): not a function we model.
      if (t.text == "(" && angle == 0) return std::nullopt;
    }
  }
  if (!found) return std::nullopt;
  const std::string& name = toks[name_pos].text;
  if (name == "operator" || is_macro_name(name)) return std::nullopt;

  FunctionHeader fn;
  fn.name = name;
  fn.file = path;
  fn.line = toks[name_pos].line;
  // Qualified out-of-class definition: collect A::B before the name.
  std::string quals;
  std::size_t qual_begin = name_pos;
  for (std::size_t j = name_pos; j >= 2 && is_punct(toks[j - 1], "::") &&
                                 is_ident(toks[j - 2]);
       j -= 2) {
    quals = quals.empty() ? toks[j - 2].text : toks[j - 2].text + "::" + quals;
    qual_begin = j - 2;
  }
  fn.class_name = !quals.empty() ? quals : class_path;
  if (is_punct(toks[name_pos >= 1 ? name_pos - 1 : 0], "~")) {
    fn.name = "~" + fn.name;  // destructor
  }
  fn.display =
      fn.class_name.empty() ? fn.name : fn.class_name + "::" + fn.name;
  // Return type: last class-ish identifier before the (qualified) name.
  for (std::size_t j = start; j < qual_begin; ++j) {
    if (is_type_name(toks[j])) fn.return_type = toks[j].text;
    if (is_ident(toks[j]) && toks[j].text == "auto") fn.return_type = "auto";
  }

  // 2. Parameters: the name is the last angle-0 identifier, the type the
  // class-ish identifier before it at any angle depth.
  const std::size_t params_end = skip_balanced(toks, i);  // past ')'
  {
    std::vector<std::size_t> all;  // class-ish idents at any angle depth
    std::vector<std::size_t> top;  // angle-0 idents (declarator candidates)
    int depth = 0;
    auto flush = [&] {
      if (!top.empty() && all.size() >= 2 && all.back() == top.back()) {
        Param p;
        p.name = toks[top.back()].text;
        p.type = toks[all[all.size() - 2]].text;
        fn.params.push_back(std::move(p));
      }
      all.clear();
      top.clear();
    };
    for (std::size_t j = i + 1; j + 1 < params_end; ++j) {
      const Token& t = toks[j];
      if (t.kind == TokKind::kPunct) {
        if (t.text == "(" || t.text == "[" || t.text == "{") {
          j = skip_balanced(toks, j) - 1;
          continue;
        }
        if (t.text == "," && depth == 0) flush();
        if (t.text == "<") ++depth;
        if (t.text == ">") depth = std::max(0, depth - 1);
        if (t.text == ">>") depth = std::max(0, depth - 2);
        if (t.text == "=" && depth == 0) {
          // Default argument: the declarator is complete; skip the value.
          flush();
          while (j + 1 < params_end && !is_punct(toks[j], ",")) ++j;
          --j;
        }
      } else if (is_type_name(t)) {
        all.push_back(j);
        if (depth == 0) top.push_back(j);
      }
    }
    flush();
  }

  // 3. Qualifiers, annotations, trailing return, ctor init list.
  i = params_end;
  while (i < toks.size()) {
    const Token& t = toks[i];
    if (is_ident(t)) {
      // const / noexcept / override / final / annotation macros; only the
      // arguments of S3_REQUIRES(...) and S3_EXCLUDES(...) are kept.
      ++i;
      if (i < toks.size() && is_punct(toks[i], "(")) {
        const std::size_t close = skip_balanced(toks, i);
        if (t.text == "S3_EXCLUDES") {
          parse_annotation_args(toks, i, close - 1, &fn.excludes_args);
        } else if (t.text == "S3_REQUIRES" || t.text == "S3_REQUIRES_SHARED") {
          parse_annotation_args(toks, i, close - 1, &fn.requires_args);
        }
        i = close;
      }
      continue;
    }
    if (is_punct(t, "->")) {  // trailing return type
      ++i;
      while (i < toks.size() && !is_punct(toks[i], "{") &&
             !is_punct(toks[i], ";")) {
        if (is_ident(toks[i]) && !is_keyword(toks[i].text) &&
            toks[i].text != "std") {
          fn.return_type = toks[i].text;
        }
        if (is_punct(toks[i], "(")) {
          i = skip_balanced(toks, i);
        } else {
          ++i;
        }
      }
      continue;
    }
    if (is_punct(t, ":")) {  // ctor initializer list
      ++i;
      while (i < toks.size()) {
        while (i < toks.size() && !is_punct(toks[i], "(") &&
               !is_punct(toks[i], "{") && !is_punct(toks[i], ";")) {
          ++i;
        }
        if (i >= toks.size() || is_punct(toks[i], ";")) return std::nullopt;
        // Peek: a `{` directly after a complete initializer is the body.
        if (is_punct(toks[i], "{") && i >= 1 &&
            (is_punct(toks[i - 1], ")") || is_punct(toks[i - 1], "}"))) {
          break;
        }
        i = skip_balanced(toks, i);
        if (i < toks.size() && is_punct(toks[i], ",")) {
          ++i;
          continue;
        }
        break;
      }
      continue;
    }
    if (is_punct(t, "=")) {  // = default / = delete / pure virtual
      while (i < toks.size() && !is_punct(toks[i], ";")) ++i;
      continue;
    }
    if (is_punct(t, ";") || is_punct(t, "{")) {
      fn.has_body = is_punct(t, "{");
      return HeaderParse{std::move(fn), i + 1};
    }
    return std::nullopt;  // unexpected shape: bail out conservatively
  }
  return std::nullopt;
}

}  // namespace

DeclWalker::DeclWalker(const std::string& path, const std::vector<Token>& toks)
    : toks_(toks), path_(path) {}

void DeclWalker::walk(FileDecls* decls) {
  decls_ = decls;
  decls_->path = path_;
  walk_outer(0, toks_.size(), "");
}

// Walks [begin, end) at namespace/top or class scope.
void DeclWalker::walk_outer(std::size_t begin, std::size_t end,
                            const std::string& class_path) {
  std::size_t i = begin;
  while (i < end) {
    const Token& t = toks_[i];
    if (is_ident(t) && t.text == "template") {
      i = (i + 1 < end && is_punct(toks_[i + 1], "<"))
              ? skip_angles(toks_, i + 1)
              : i + 1;
      continue;
    }
    if (is_ident(t) && t.text == "namespace") {
      std::size_t j = i + 1;
      while (j < end && !is_punct(toks_[j], "{") && !is_punct(toks_[j], ";"))
        ++j;
      if (j < end && is_punct(toks_[j], "{")) {
        const std::size_t close = skip_balanced(toks_, j);
        walk_outer(j + 1, close - 1, class_path);
        i = close;
      } else {
        i = j + 1;
      }
      continue;
    }
    if (is_ident(t) && t.text == "enum") {
      i = parse_enum(i, end);
      continue;
    }
    if (is_ident(t) && (t.text == "class" || t.text == "struct")) {
      const std::size_t next = parse_class(i, end, class_path, nullptr);
      if (next != i) {
        i = next;
        continue;
      }
      // Forward declaration or elaborated type: fall through.
    }
    if (is_ident(t) &&
        (t.text == "using" || t.text == "typedef" || t.text == "friend" ||
         t.text == "static_assert" || t.text == "extern")) {
      while (i < end && !is_punct(toks_[i], ";")) {
        if (is_punct(toks_[i], "{")) {
          i = skip_balanced(toks_, i);
          continue;
        }
        ++i;
      }
      ++i;
      continue;
    }
    if (is_ident(t) && (t.text == "public" || t.text == "private" ||
                        t.text == "protected")) {
      i += 2;  // "public" ":"
      continue;
    }
    if (t.kind == TokKind::kDirective || t.kind == TokKind::kString ||
        t.kind == TokKind::kNumber) {
      ++i;
      continue;
    }
    if (t.kind == TokKind::kPunct) {
      // A stray block (e.g. extern "C") is skipped whole.
      i = t.text == "{" ? skip_balanced(toks_, i) : i + 1;
      continue;
    }
    // Identifier: a declaration. Function or member/variable?
    i = parse_declaration(i, end, class_path);
  }
}

// Parses `enum [class] Name ... { ... };` starting at the `enum` token.
// Harvests LockRank enumerator values. Returns index past the enum.
std::size_t DeclWalker::parse_enum(std::size_t i, std::size_t end) {
  std::size_t j = i + 1;
  if (j < end && is_ident(toks_[j]) &&
      (toks_[j].text == "class" || toks_[j].text == "struct")) {
    ++j;
  }
  std::string name;
  if (j < end && is_ident(toks_[j])) name = toks_[j].text;
  while (j < end && !is_punct(toks_[j], "{") && !is_punct(toks_[j], ";")) ++j;
  if (j >= end || is_punct(toks_[j], ";")) return j + 1;
  const std::size_t close = skip_balanced(toks_, j);
  if (name == "LockRank") {
    int next_value = 0;
    for (std::size_t k = j + 1; k + 1 < close; ++k) {
      if (!is_ident(toks_[k])) continue;
      const std::string& enumerator = toks_[k].text;
      int value = next_value;
      if (k + 2 < close && is_punct(toks_[k + 1], "=") &&
          toks_[k + 2].kind == TokKind::kNumber) {
        value = std::atoi(toks_[k + 2].text.c_str());
        k += 2;
      }
      decls_->rank_values[enumerator] = value;
      next_value = value + 1;
      while (k + 1 < close && !is_punct(toks_[k + 1], ",")) ++k;
    }
  }
  return close;
}

std::size_t DeclWalker::parse_class(std::size_t i, std::size_t end,
                                    const std::string& outer,
                                    LocalInstance* instance) {
  // The name is the last identifier before `final`, the base clause or `{`;
  // an attribute macro and its argument list (`S3_SCOPED_CAPABILITY`,
  // `S3_CAPABILITY("mutex")`) are skipped.
  std::string name;
  std::size_t j = i + 1;
  while (j < end && is_ident(toks_[j]) && toks_[j].text != "final") {
    if (is_macro_name(toks_[j].text)) {
      ++j;
      if (j < end && is_punct(toks_[j], "(")) j = skip_balanced(toks_, j);
      continue;
    }
    name = toks_[j].text;
    ++j;
  }
  if (name.empty()) return i;
  // Skip "final", base clause — up to `{` or `;`.
  while (j < end && !is_punct(toks_[j], "{") && !is_punct(toks_[j], ";") &&
         !is_punct(toks_[j], "(") && !is_punct(toks_[j], "=")) {
    if (is_punct(toks_[j], "<")) {
      j = skip_angles(toks_, j);
      continue;
    }
    ++j;
  }
  if (j >= end || !is_punct(toks_[j], "{")) return i;  // not a definition
  const std::string class_path = outer.empty() ? name : outer + "::" + name;
  const std::size_t close = skip_balanced(toks_, j);
  walk_outer(j + 1, close - 1, class_path);
  // `} var;` — a function-local struct instance.
  std::size_t k = close;
  if (instance != nullptr && k < end && is_ident(toks_[k]) &&
      !is_keyword(toks_[k].text) && k + 1 < end &&
      (is_punct(toks_[k + 1], ";") || is_punct(toks_[k + 1], "{"))) {
    instance->type = class_path;
    instance->name = toks_[k].text;
  }
  while (k < end && !is_punct(toks_[k], ";")) ++k;
  return k + 1;
}

// Parses one declaration at class/namespace scope starting at `i`: either a
// function (declaration or definition) or a data member.
std::size_t DeclWalker::parse_declaration(std::size_t i, std::size_t end,
                                          const std::string& class_path) {
  if (auto parsed = parse_function(toks_, i, class_path, path_)) {
    const std::size_t begin = parsed->next;
    if (!parsed->fn.has_body) {
      on_function(std::move(parsed->fn), begin, begin);
      return begin;
    }
    const std::size_t body_end = find_close(begin);
    on_function(std::move(parsed->fn), begin, body_end);
    return body_end + 1;
  }
  // Data member / variable: scan to `;`, balancing groups.
  std::size_t stmt_end = i;
  while (stmt_end < end && !is_punct(toks_[stmt_end], ";")) {
    if (is_punct(toks_[stmt_end], "{") || is_punct(toks_[stmt_end], "(") ||
        is_punct(toks_[stmt_end], "[")) {
      stmt_end = skip_balanced(toks_, stmt_end);
      continue;
    }
    ++stmt_end;
  }
  parse_member(i, stmt_end, class_path);
  return stmt_end + 1;
}

// Extracts the member name/type (and MutexDecl) from a data-member statement
// spanning [i, stmt_end).
void DeclWalker::parse_member(std::size_t i, std::size_t stmt_end,
                              const std::string& class_path) {
  // Walk to the declarator boundary: `=`, brace-init, annotation macro, or
  // the `;`. The member name is the last top-level identifier before the
  // boundary; its type is the last class-ish identifier before that,
  // including template arguments.
  std::vector<std::size_t> all;  // candidate type idents, any angle depth
  std::vector<std::size_t> top;  // angle-0 idents (declarator candidates)
  bool pointer_or_ref = false;
  std::size_t init_begin = stmt_end;
  int angle = 0;
  for (std::size_t j = i; j < stmt_end; ++j) {
    const Token& t = toks_[j];
    if (t.kind == TokKind::kPunct) {
      if (t.text == "<") ++angle;
      if (t.text == ">") angle = std::max(0, angle - 1);
      if (t.text == ">>") angle = std::max(0, angle - 2);
      if (angle > 0) continue;
      if (t.text == "*" || t.text == "&") pointer_or_ref = true;
      if (t.text == "=" || t.text == "{") {
        init_begin = j;
        break;
      }
      continue;
    }
    if (!is_ident(t)) continue;
    if (angle == 0 && is_macro_name(t.text)) {
      init_begin = j;
      break;
    }
    if (!is_type_name(t)) continue;
    all.push_back(j);
    if (angle == 0) top.push_back(j);
  }
  if (top.empty() || all.size() < 2) return;
  const std::size_t name_pos = top.back();
  const std::string member = toks_[name_pos].text;
  std::string type;
  for (const std::size_t j : all) {
    if (j < name_pos) type = toks_[j].text;
  }
  if (type.empty()) return;
  decls_->members[class_path][member] = type;
  if (pointer_or_ref ||
      (type != "AnnotatedMutex" && type != "AnnotatedSharedMutex")) {
    return;
  }
  MutexDecl m;
  m.class_name = class_path;
  m.member = member;
  m.id = class_path.empty() ? member : class_path + "::" + member;
  m.shared = type == "AnnotatedSharedMutex";
  m.file = path_;
  m.line = toks_[name_pos].line;
  // Rank: `{LockRank::kX}` or `= AnnotatedMutex(LockRank::kX)` style
  // initializers — find `LockRank :: ident` in the init tokens.
  for (std::size_t j = init_begin; j + 2 < stmt_end; ++j) {
    if (is_ident(toks_[j]) && toks_[j].text == "LockRank" &&
        is_punct(toks_[j + 1], "::") && is_ident(toks_[j + 2])) {
      m.rank = toks_[j + 2].text;
      break;
    }
  }
  decls_->mutexes.push_back(std::move(m));
}

std::size_t DeclWalker::find_close(std::size_t body_begin) const {
  int depth = 1;
  for (std::size_t j = body_begin; j < toks_.size(); ++j) {
    if (is_punct(toks_[j], "{")) ++depth;
    if (is_punct(toks_[j], "}")) {
      if (--depth == 0) return j;
    }
  }
  return toks_.size();
}

void DeclWalker::build_chain(std::size_t pos, std::size_t begin,
                             std::vector<std::string>* chain) const {
  std::size_t j = pos;
  while (j > begin + 1) {
    const Token& sep = toks_[j - 1];
    if (!(is_punct(sep, ".") || is_punct(sep, "->") || is_punct(sep, "::")))
      break;
    std::size_t k = j - 2;
    // Skip balanced groups backwards: a[i]->, f()., etc.
    while (k > begin &&
           (is_punct(toks_[k], "]") || is_punct(toks_[k], ")"))) {
      const std::string closer = toks_[k].text;
      const char* open = closer == "]" ? "[" : "(";
      int d = 1;
      --k;
      while (k > begin && d > 0) {
        if (toks_[k].kind == TokKind::kPunct) {
          if (toks_[k].text == closer) ++d;
          if (toks_[k].text == open) --d;
        }
        if (d > 0) --k;
      }
      if (k > begin) --k;
    }
    if (!is_ident(toks_[k])) break;
    chain->insert(chain->begin(), toks_[k].text);
    j = k;
  }
}

std::optional<LambdaShape> DeclWalker::lambda_at(std::size_t i,
                                                 std::size_t end) const {
  // `[` is a lambda intro unless it follows a value (subscript).
  if (i > 0) {
    const Token& prev = toks_[i - 1];
    if (is_ident(prev) && !is_keyword(prev.text)) return std::nullopt;
    if (prev.kind == TokKind::kPunct &&
        (prev.text == "]" || prev.text == ")")) {
      return std::nullopt;
    }
  }
  LambdaShape shape;
  std::size_t j = skip_balanced(toks_, i);  // past ']'
  if (j < end && is_punct(toks_[j], "(")) {
    shape.params_open = j;
    shape.params_close = skip_balanced(toks_, j);
    j = shape.params_close;
  }
  while (j < end && is_ident(toks_[j]) &&
         (toks_[j].text == "mutable" || toks_[j].text == "noexcept" ||
          toks_[j].text == "constexpr")) {
    ++j;
  }
  if (j < end && is_punct(toks_[j], "->")) {
    while (j < end && !is_punct(toks_[j], "{") && !is_punct(toks_[j], ";") &&
           !is_punct(toks_[j], ",") && !is_punct(toks_[j], ")")) {
      ++j;
    }
  }
  if (j >= end || !is_punct(toks_[j], "{")) return std::nullopt;
  const std::size_t close = find_close(j + 1);
  shape.body_begin = j + 1;
  shape.body_end = std::min(close, end);
  shape.next = std::min(close + 1, end);
  return shape;
}

}  // namespace s3lint
