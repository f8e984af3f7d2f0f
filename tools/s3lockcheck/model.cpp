#include "s3lockcheck/model.h"

#include "s3lint/scope.h"

namespace s3lockcheck {
namespace {

using s3lint::is_decl_qualifier;
using s3lint::is_ident;
using s3lint::is_macro_name;
using s3lint::is_punct;
using s3lint::skip_angles;
using s3lint::skip_balanced;
using s3lint::TokKind;
using s3lint::Token;

bool is_guard_class(const std::string& s) {
  return s == "MutexLock" || s == "WriterMutexLock" || s == "ReaderMutexLock";
}

bool is_std_guard_class(const std::string& s) {
  return s == "lock_guard" || s == "unique_lock" || s == "scoped_lock" ||
         s == "shared_lock";
}

// The lock-order pass's function-body visitor over the shared walker.
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
    if (fn.has_body) walk_body(body_begin, body_end, &fn);
    fm_.functions.push_back(std::move(fn));
  }

  struct ActiveGuard {
    int site = 0;   // index into fn->acquires
    int depth = 0;  // brace depth at declaration
    std::string var;
  };

  // Walks a function body in [begin, end) (end = matching `}`), recording
  // acquire/call sites into `fn`. `in_lambda` marks sites inside deferred
  // lambda bodies.
  void walk_body(std::size_t begin, std::size_t end, FunctionModel* fn,
                 bool in_lambda = false) {
    std::vector<ActiveGuard> active;
    int depth = 0;
    bool stmt_start = true;
    std::size_t i = begin;
    while (i < end) {
      const Token& t = toks_[i];
      if (t.kind == TokKind::kPunct) {
        if (t.text == "{") {
          ++depth;
          ++i;
          stmt_start = true;
          continue;
        }
        if (t.text == "}") {
          --depth;
          while (!active.empty() && active.back().depth > depth) {
            active.pop_back();
          }
          ++i;
          stmt_start = true;
          continue;
        }
        if (t.text == ";") {
          stmt_start = true;
          ++i;
          continue;
        }
        if (t.text == "[") {
          // A lambda body starts with an empty held-set.
          if (const auto lambda = lambda_at(i, end)) {
            walk_body(lambda->body_begin, lambda->body_end, fn,
                      /*in_lambda=*/true);
            i = lambda->next;
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

      // Function-local struct/class definition.
      if ((t.text == "struct" || t.text == "class") && stmt_start) {
        s3lint::LocalInstance instance;
        const std::size_t next = parse_class(i, end, "", &instance);
        if (next != i) {
          if (!instance.name.empty()) {
            fn->locals.push_back({instance.type, instance.name});
          }
          i = next;
          stmt_start = true;
          continue;
        }
      }

      // RAII guard: `MutexLock lock(expr);` or a std:: guard template,
      // `std::lock_guard<...> g(expr);`. `var` is the guard variable.
      std::size_t var = 0;
      if (is_guard_class(t.text)) {
        var = i + 1;
      } else if (is_std_guard_class(t.text) && i >= 1 &&
                 is_punct(toks_[i - 1], "::")) {
        var = i + 1;
        if (var < end && is_punct(toks_[var], "<")) {
          var = skip_angles(toks_, var);
        }
      }
      if (var != 0 && var + 1 < end && is_ident(toks_[var]) &&
          is_punct(toks_[var + 1], "(")) {
        const std::size_t close = skip_balanced(toks_, var + 1);
        AcquireSite site;
        site.var = toks_[var].text;
        site.shared = t.text == "ReaderMutexLock" || t.text == "shared_lock";
        site.line = t.line;
        site.in_lambda = in_lambda;
        for (std::size_t j = var + 2; j + 1 < close; ++j) {
          if (is_ident(toks_[j]) && !s3lint::is_keyword(toks_[j].text)) {
            site.expr.push_back(toks_[j].text);
          }
        }
        for (const ActiveGuard& g : active) site.held.push_back(g.site);
        const int idx = static_cast<int>(fn->acquires.size());
        fn->acquires.push_back(std::move(site));
        active.push_back({idx, depth, toks_[var].text});
        i = close;
        stmt_start = false;
        continue;
      }

      // Local declaration (for receiver-type resolution). `auto` passes
      // through: try_local_decl resolves `auto& j = Foo::instance()`.
      if (stmt_start && !is_macro_name(t.text) &&
          (t.text == "auto" || !s3lint::is_keyword(t.text))) {
        try_local_decl(i, end, fn);
      }

      // Call site: ident followed by '('.
      if (i + 1 < end && is_punct(toks_[i + 1], "(") &&
          !s3lint::is_keyword(t.text) && !is_macro_name(t.text) &&
          !is_guard_class(t.text)) {
        CallSite site;
        site.callee = t.text;
        site.line = t.line;
        site.in_lambda = in_lambda;
        build_chain(i, begin, &site.chain);
        for (const ActiveGuard& g : active) site.held.push_back(g.site);
        // Mark own-guard cv waits so the graph can exempt the guard's lock.
        if ((t.text == "wait" || t.text == "wait_for" ||
             t.text == "wait_until") &&
            !site.chain.empty()) {
          for (const ActiveGuard& g : active) {
            if (g.var == site.chain.front()) {
              site.wait_guard = g.site;
              break;
            }
          }
        }
        fn->calls.push_back(std::move(site));
        i = i + 1;  // descend into the argument list for nested calls
        stmt_start = false;
        continue;
      }

      if (is_macro_name(t.text) && i + 1 < end && is_punct(toks_[i + 1], "(")) {
        i = skip_balanced(toks_, i + 1);  // macro invocation: opaque
        stmt_start = false;
        continue;
      }

      ++i;
      stmt_start = false;
    }
  }

  // Recognizes `Type [&|*] name [=;({]` local declarations at statement
  // start; also resolves `auto& x = Foo::instance()` to Foo.
  void try_local_decl(std::size_t i, std::size_t end, FunctionModel* fn) {
    std::size_t j = i;
    std::vector<std::size_t> idents;
    while (j < end) {
      const Token& t = toks_[j];
      if (is_ident(t)) {
        if (s3lint::is_keyword(t.text) && t.text != "auto") return;
        if (!is_decl_qualifier(t.text)) idents.push_back(j);
        ++j;
        continue;
      }
      if (is_punct(t, "<")) {
        j = skip_angles(toks_, j);
        continue;
      }
      if (is_punct(t, "::") || is_punct(t, "&") || is_punct(t, "*")) {
        ++j;
        continue;
      }
      break;
    }
    if (j >= end || idents.size() < 2) return;
    if (!(is_punct(toks_[j], "=") || is_punct(toks_[j], ";") ||
          is_punct(toks_[j], "(") || is_punct(toks_[j], "{"))) {
      return;
    }
    LocalDecl d;
    d.name = toks_[idents.back()].text;
    d.type = toks_[idents[idents.size() - 2]].text;
    if (d.type == "auto" ||
        (idents.size() >= 2 && toks_[idents.front()].text == "auto")) {
      // auto& x = obs::EventJournal::instance(); -> type EventJournal.
      d.type.clear();
      for (std::size_t k = j; k < end && !is_punct(toks_[k], ";"); ++k) {
        if (is_ident(toks_[k]) && toks_[k].text == "instance" && k >= 2 &&
            is_punct(toks_[k - 1], "::") && is_ident(toks_[k - 2])) {
          d.type = toks_[k - 2].text;
          break;
        }
      }
      if (d.type.empty()) return;
    }
    fn->locals.push_back(std::move(d));
  }

  FileModel fm_;
};

}  // namespace

FileModel extract_model(const std::string& path,
                        const s3lint::TokenizedFile& file) {
  return Extractor(path, file.tokens).run();
}

}  // namespace s3lockcheck
