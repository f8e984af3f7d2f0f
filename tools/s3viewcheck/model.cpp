#include "s3viewcheck/model.h"

#include <algorithm>
#include <optional>
#include <set>

#include "s3lint/scope.h"

namespace s3viewcheck {
namespace {

using s3lint::is_decl_qualifier;
using s3lint::is_ident;
using s3lint::is_macro_name;
using s3lint::is_punct;
using s3lint::skip_angles;
using s3lint::skip_balanced;
using s3lint::TokKind;
using s3lint::Token;

bool is_view_type(const std::string& t) {
  return t == "string_view" || t == "ArenaView" || t == "DebugView" ||
         t == "basic_string_view";
}

// The view-lifetime pass's function-body visitor over the shared walker.
class Extractor : public s3lint::DeclWalker {
 public:
  using DeclWalker::DeclWalker;

  FileModel run() {
    walk(&fm_);
    return std::move(fm_);
  }

 private:
  void on_function(s3lint::FunctionHeader header, std::size_t body_begin,
                   std::size_t body_end) override {
    FunctionModel fn;
    static_cast<s3lint::FunctionHeader&>(fn) = std::move(header);
    if (fn.has_body) {
      begin_function(&fn);
      walk_body(body_begin, body_end, &fn);
    }
    fm_.functions.push_back(std::move(fn));
  }

  void begin_function(FunctionModel* fn) {
    seq_ = 0;
    stmt_ = 0;
    lambda_count_ = 0;
    local_names_.clear();
    use_candidates_.clear();
    submit_ranges_.clear();
    for (const Param& p : fn->params) {
      local_names_.insert(p.name);
      if (is_view_type(p.type)) {
        use_candidates_.insert(p.name);
        bind_borrowed(fn, p.name, fn->line, -1, "borrowed parameter");
      }
    }
  }

  // Appends an event at the next lexical position of the current statement.
  Event& add_event(FunctionModel* fn, EventKind kind, int line, int lambda) {
    Event ev;
    ev.kind = kind;
    ev.line = line;
    ev.seq = seq_++;
    ev.stmt = stmt_;
    ev.lambda = lambda;
    fn->events.push_back(std::move(ev));
    return fn->events.back();
  }

  // A view-typed parameter is a borrowed view: the Emitter::emit / GroupFn /
  // Reducer contract — valid only for the duration of the call.
  void bind_borrowed(FunctionModel* fn, const std::string& name, int line,
                     int lambda, const char* via) {
    Event& ev = add_event(fn, EventKind::kBind, line, lambda);
    ev.view = name;
    ev.batch = "<param:" + name + ">";
    ev.via = via;
  }

  // Walks a function body in [begin, end) (end = matching `}`).
  void walk_body(std::size_t begin, std::size_t end, FunctionModel* fn,
                 int lambda = -1) {
    bool stmt_start = true;
    std::size_t i = begin;
    while (i < end) {
      const Token& t = toks_[i];
      if (t.kind == TokKind::kPunct) {
        if (t.text == "{" || t.text == "}" || t.text == ";") {
          end_statement();
          stmt_start = true;
          ++i;
          continue;
        }
        if (t.text == "[") {
          if (const auto next = try_lambda(i, end, fn)) {
            i = *next;
            stmt_start = false;
            continue;
          }
        }
        stmt_start = false;
        ++i;
        continue;
      }
      if (t.kind != TokKind::kIdent) {
        ++i;
        stmt_start = false;
        continue;
      }

      // for (...) opens a fresh declaration context inside the parens
      // (range-for batch references: `for (KVBatch& run : runs)`).
      if ((t.text == "for" || t.text == "if" || t.text == "while") &&
          i + 1 < end && is_punct(toks_[i + 1], "(")) {
        i += 2;
        stmt_start = true;
        continue;
      }

      if (t.text == "return" && lambda == -1) {
        // Calls and candidate uses inside the return expression are flagged
        // as escaping. Lambda returns are not function returns.
        in_return_ = true;
        pending_bind_ = "<return>";
        pending_type_ = fn->return_type;
        add_event(fn, EventKind::kReturn, t.line, lambda);
        ++i;
        stmt_start = false;
        continue;
      }

      // Function-local struct/class definition.
      if ((t.text == "struct" || t.text == "class") && stmt_start) {
        s3lint::LocalInstance instance;
        const std::size_t next = parse_class(i, end, "", &instance);
        if (next != i) {
          if (!instance.name.empty()) {
            fn->locals.push_back({instance.type, instance.name, stmt_});
            local_names_.insert(instance.name);
          }
          i = next;
          stmt_start = true;
          continue;
        }
      }

      // Local declaration at statement start.
      if (stmt_start && !is_macro_name(t.text) &&
          (t.text == "auto" || !s3lint::is_keyword(t.text))) {
        const std::size_t next = try_local_decl(i, end, fn);
        if (next != i) {
          i = next;
          stmt_start = false;
          continue;
        }
      }

      // Assignment / member store at statement start: `NAME = RHS;` or a
      // container store `NAME.push_back(v)` (calls handle the latter).
      if (stmt_start && !is_macro_name(t.text) &&
          !s3lint::is_keyword(t.text) && i + 1 < end &&
          is_punct(toks_[i + 1], "=")) {
        i = handle_assignment(i, end, fn, lambda);
        stmt_start = false;
        continue;
      }

      // Call site: ident followed by '('.
      if (i + 1 < end && is_punct(toks_[i + 1], "(") &&
          !s3lint::is_keyword(t.text) && !is_macro_name(t.text)) {
        record_call(i, fn, lambda);
        i = i + 1;  // descend into the argument list for nested calls
        stmt_start = false;
        continue;
      }

      if (is_macro_name(t.text) && i + 1 < end && is_punct(toks_[i + 1], "(")) {
        i = skip_balanced(toks_, i + 1);  // macro invocation: opaque
        stmt_start = false;
        continue;
      }

      // Candidate view use (not a declaration name in this statement, not a
      // member/method name after . -> ::).
      if (use_candidates_.count(t.text) != 0 &&
          stmt_declared_.count(t.text) == 0 &&
          !(i > begin && (is_punct(toks_[i - 1], ".") ||
                          is_punct(toks_[i - 1], "->") ||
                          is_punct(toks_[i - 1], "::")))) {
        add_event(fn, in_return_ ? EventKind::kReturn : EventKind::kUse,
                  t.line, lambda)
            .view = t.text;
      }

      ++i;
      stmt_start = false;
    }
    end_statement();
  }

  void end_statement() {
    ++stmt_;
    pending_bind_.clear();
    pending_type_.clear();
    stmt_declared_.clear();
    in_return_ = false;
  }

  // Records the call whose callee token is at `i` (followed by '(').
  void record_call(std::size_t i, FunctionModel* fn, int lambda) {
    const std::size_t open = i + 1;
    const std::size_t close = skip_balanced(toks_, open);  // past ')'
    CallSite site;
    site.callee = toks_[i].text;
    site.line = toks_[i].line;
    site.seq = seq_++;
    site.stmt = stmt_;
    site.lambda = lambda;
    site.bound_to = pending_bind_;
    site.bound_type = pending_type_;
    build_chain(i, 0, &site.chain);
    // Top-level arguments: first meaningful identifier each (the std::move
    // operand when wrapped), whether it was moved, whether it is bare.
    {
      std::string first;
      bool moved = false;
      int tokens = 0;
      bool bare_ident = false;
      int depth = 0;
      auto flush = [&] {
        if (tokens > 0) {
          site.args.push_back(first);
          site.moved.push_back(moved);
          site.lone.push_back(bare_ident && tokens == 1);
        }
        first.clear();
        moved = false;
        tokens = 0;
        bare_ident = false;
      };
      for (std::size_t j = open + 1; j + 1 < close; ++j) {
        const Token& a = toks_[j];
        if (a.kind == TokKind::kPunct) {
          if (a.text == "," && depth == 0) {
            flush();
            continue;
          }
          if (a.text == "(" || a.text == "[" || a.text == "{") ++depth;
          if (a.text == ")" || a.text == "]" || a.text == "}") --depth;
          if (a.text != "::" && a.text != "&" && a.text != "*") ++tokens;
          continue;
        }
        ++tokens;
        if (!is_ident(a)) continue;
        if (a.text == "std") {
          --tokens;  // std::move / std::string qualifiers are glue
          continue;
        }
        if (a.text == "move" && j + 1 < close && is_punct(toks_[j + 1], "(")) {
          moved = true;
          --tokens;
          continue;
        }
        if (s3lint::is_keyword(a.text)) continue;
        if (first.empty()) {
          first = a.text;
          bare_ident = true;
        }
      }
      flush();
    }
    if (site.callee == "submit" || site.callee == "submit_to") {
      submit_ranges_.push_back({open, close});
    }
    fn->calls.push_back(std::move(site));
  }

  // Recognizes `Type [&|*] name` declarations at statement start. Returns
  // the index just past the declarator name (the main loop then scans the
  // initializer, attributing calls to the new local via pending_bind_), or
  // `i` when the statement is not a declaration.
  std::size_t try_local_decl(std::size_t i, std::size_t end,
                             FunctionModel* fn) {
    std::size_t j = i;
    std::vector<std::size_t> all;  // class-ish idents at any angle depth
    std::vector<std::size_t> top;  // angle-0 idents
    bool saw_auto = false;
    while (j < end) {
      const Token& t = toks_[j];
      if (is_ident(t)) {
        if (t.text == "auto") {
          saw_auto = true;
          ++j;
          continue;
        }
        if (s3lint::is_keyword(t.text)) return i;
        if (is_macro_name(t.text)) return i;
        if (!is_decl_qualifier(t.text) && t.text != "std") top.push_back(j);
        ++j;
        continue;
      }
      if (is_punct(t, "<")) {
        const std::size_t after = skip_angles(toks_, j);
        for (std::size_t k = j + 1; k + 1 < after; ++k) {
          if (is_ident(toks_[k]) && !is_decl_qualifier(toks_[k].text) &&
              !s3lint::is_keyword(toks_[k].text) && toks_[k].text != "std") {
            all.push_back(k);
          }
        }
        j = after;
        continue;
      }
      if (is_punct(t, "::") || is_punct(t, "&") || is_punct(t, "*")) {
        ++j;
        continue;
      }
      break;
    }
    if (j >= end) return i;
    const Token& boundary = toks_[j];
    if (!(is_punct(boundary, "=") || is_punct(boundary, ";") ||
          is_punct(boundary, "(") || is_punct(boundary, "{") ||
          is_punct(boundary, ":"))) {
      return i;
    }
    // Declarator name = last angle-0 ident; type = last class-ish ident
    // before it at any depth (so vector<KVBatch> reads as KVBatch).
    if (top.empty()) return i;
    if (!saw_auto && top.size() < 2) return i;
    const std::size_t name_pos = top.back();
    if (name_pos + 1 != j) return i;  // name must sit against the boundary
    std::string type = saw_auto ? "auto" : "";
    for (std::size_t k = 0; k + 1 < top.size(); ++k) all.push_back(top[k]);
    std::sort(all.begin(), all.end());
    for (const std::size_t k : all) {
      if (k < name_pos) type = toks_[k].text;
    }
    if (type.empty()) return i;
    const std::string name = toks_[name_pos].text;
    fn->locals.push_back({type, name, stmt_});
    local_names_.insert(name);
    stmt_declared_.insert(name);
    if (is_view_type(type) || type == "auto") use_candidates_.insert(name);
    // Attribute initializer calls to this local (the graph resolves which
    // call, if any, is the binding source).
    pending_bind_ = name;
    pending_type_ = type;
    return is_punct(boundary, ";") ? j : j + 1;
  }

  // `NAME = RHS;` at statement start where NAME was not matched as a
  // declaration. Known local: kAssign (view untrack / arena overwrite) and
  // the RHS may rebind through pending_bind_. Unknown name: candidate
  // member store (the graph checks it resolves to a member of the enclosing
  // class).
  std::size_t handle_assignment(std::size_t i, std::size_t end,
                                FunctionModel* fn, int lambda) {
    const std::string& name = toks_[i].text;
    if (local_names_.count(name) != 0) {
      add_event(fn, EventKind::kAssign, toks_[i].line, lambda).view = name;
      pending_bind_ = name;
      pending_type_.clear();  // graph falls back to the declared type
      return i + 2;           // past NAME =; main loop scans the RHS
    }
    // RHS of a non-local store: a bare tracked view (`member_ = v;`) is an
    // event; a direct source call (`member_ = batch_.key(0);`) flows through
    // pending_bind_ as "<store:NAME>".
    Event& ev = add_event(fn, EventKind::kMemberStore, toks_[i].line, lambda);
    ev.via = name;
    const std::size_t j = i + 2;
    if (j < end && is_ident(toks_[j]) && j + 1 < end &&
        is_punct(toks_[j + 1], ";") && use_candidates_.count(toks_[j].text)) {
      ev.view = toks_[j].text;
      return j + 1;
    }
    // Recorded with an empty view: only meaningful if a source call in the
    // RHS binds to "<store:NAME>"; the graph drops it otherwise.
    pending_bind_ = "<store:" + name + ">";
    pending_type_.clear();
    return i + 2;
  }

  // Records the lambda introduced at `[` (index i), with its submit
  // association, and walks its body under the new lambda id. View-typed
  // lambda parameters become borrowed views inside. Returns where the walk
  // resumes, or nullopt when the `[` is not a lambda.
  std::optional<std::size_t> try_lambda(std::size_t i, std::size_t end,
                                        FunctionModel* fn) {
    const std::optional<s3lint::LambdaShape> lambda = lambda_at(i, end);
    if (!lambda) return std::nullopt;
    // Minimal param harvest: `type name` pairs at angle depth 0.
    std::vector<std::pair<std::string, std::string>> lambda_params;
    if (lambda->params_open != 0) {
      std::vector<std::size_t> idents;
      int depth = 0;
      auto flush = [&] {
        if (idents.size() >= 2) {
          lambda_params.emplace_back(toks_[idents[idents.size() - 2]].text,
                                     toks_[idents.back()].text);
        }
        idents.clear();
      };
      for (std::size_t k = lambda->params_open + 1;
           k + 1 < lambda->params_close; ++k) {
        const Token& t = toks_[k];
        if (t.kind == TokKind::kPunct) {
          if (t.text == "<") ++depth;
          if (t.text == ">") depth = std::max(0, depth - 1);
          if (t.text == ",") flush();
          continue;
        }
        if (is_ident(t) && depth == 0 && !is_decl_qualifier(t.text) &&
            !s3lint::is_keyword(t.text) && t.text != "std") {
          idents.push_back(k);
        }
      }
      flush();
    }

    LambdaInfo info;
    info.id = lambda_count_++;
    info.line = toks_[i].line;
    for (const auto& [open, close] : submit_ranges_) {
      if (i > open && i < close) info.submitted = true;
    }
    fn->lambdas.push_back(info);

    // The lambda body is a new statement context; initializer attribution
    // from the enclosing statement must not leak in.
    const std::string saved_bind = pending_bind_;
    const std::string saved_type = pending_type_;
    const bool saved_return = in_return_;
    pending_bind_.clear();
    pending_type_.clear();
    in_return_ = false;
    for (const auto& [type, pname] : lambda_params) {
      local_names_.insert(pname);
      if (is_view_type(type)) {
        use_candidates_.insert(pname);
        bind_borrowed(fn, pname, toks_[i].line, info.id,
                      "borrowed lambda parameter");
      }
    }
    walk_body(lambda->body_begin, lambda->body_end, fn, info.id);
    pending_bind_ = saved_bind;
    pending_type_ = saved_type;
    in_return_ = saved_return;
    return lambda->next;
  }

  FileModel fm_;

  // Per-function walk state.
  int seq_ = 0;
  int stmt_ = 0;
  int lambda_count_ = 0;
  bool in_return_ = false;
  std::string pending_bind_;
  std::string pending_type_;
  std::set<std::string> local_names_;
  std::set<std::string> use_candidates_;
  std::set<std::string> stmt_declared_;
  std::vector<std::pair<std::size_t, std::size_t>> submit_ranges_;
};

}  // namespace

FileModel extract_model(const std::string& path,
                        const s3lint::TokenizedFile& file) {
  return Extractor(path, file.tokens).run();
}

}  // namespace s3viewcheck
