#include "s3lint/rules.h"

#include <cstddef>
#include <set>
#include <sstream>
#include <unordered_set>

#include "s3lint/scope.h"

namespace s3lint {
namespace {

bool starts_with(const std::string& s, const std::string& prefix) {
  return s.compare(0, prefix.size(), prefix) == 0;
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

// Splits a snake_case identifier into lowercase-ish words; empty segments
// (leading/trailing/double underscores) are dropped.
std::vector<std::string> split_words(const std::string& ident) {
  std::vector<std::string> out;
  std::string cur;
  for (const char c : ident) {
    if (c == '_') {
      if (!cur.empty()) out.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(static_cast<char>(
          c >= 'A' && c <= 'Z' ? c - 'A' + 'a' : c));
    }
  }
  if (!cur.empty()) out.push_back(cur);
  return out;
}

// ---------------------------------------------------------------------------
// naked-mutex: raw std::mutex / std::shared_mutex members. The annotated
// wrappers in common/thread_annotations.h are the only sanctioned home.
void check_naked_mutex(const std::string& path, const TokenizedFile& file,
                       const std::vector<ScopeKind>& scope,
                       std::vector<Violation>* out) {
  if (path == "src/common/thread_annotations.h") return;
  static const std::unordered_set<std::string> kMutexTypes = {
      "mutex", "shared_mutex", "recursive_mutex", "timed_mutex",
      "recursive_timed_mutex", "shared_timed_mutex"};
  const std::vector<Token>& toks = file.tokens;
  int paren_depth = 0;
  for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
    if (toks[i].kind == TokKind::kPunct) {
      if (toks[i].text == "(") ++paren_depth;
      if (toks[i].text == ")") --paren_depth;
      continue;
    }
    if (paren_depth > 0 || scope[i] != ScopeKind::kClass) continue;
    if (toks[i].kind == TokKind::kIdent && toks[i].text == "std" &&
        toks[i + 1].kind == TokKind::kPunct && toks[i + 1].text == "::" &&
        toks[i + 2].kind == TokKind::kIdent &&
        kMutexTypes.count(toks[i + 2].text) > 0) {
      out->push_back(Violation{
          "naked-mutex", toks[i].line,
          "raw std::" + toks[i + 2].text +
              " member; use AnnotatedMutex/AnnotatedSharedMutex from "
              "common/thread_annotations.h so lock discipline is checkable"});
    }
  }
}

// ---------------------------------------------------------------------------
// status-discard: a bare expression statement whose value is a Status /
// StatusOr (per the project-wide declaration index) silently drops an error.
void check_status_discard(const TokenizedFile& file,
                          const std::vector<ScopeKind>& scope,
                          const DeclIndex& index, const DeclIndex& self,
                          std::vector<Violation>* out) {
  const std::vector<Token>& toks = file.tokens;
  for (std::size_t s = 0; s < toks.size(); ++s) {
    // Anchor at a statement start inside a function body.
    if (s > 0 && !(toks[s - 1].kind == TokKind::kPunct &&
                   (toks[s - 1].text == ";" || toks[s - 1].text == "{" ||
                    toks[s - 1].text == "}"))) {
      continue;
    }
    if (scope[s] != ScopeKind::kBlock) continue;
    if (toks[s].kind != TokKind::kIdent || is_keyword(toks[s].text)) continue;
    // Parse an `a::b.c->d(` chain; the callee is the last identifier.
    std::size_t i = s;
    std::string callee = toks[i].text;
    while (i + 2 < toks.size() && toks[i + 1].kind == TokKind::kPunct &&
           (toks[i + 1].text == "::" || toks[i + 1].text == "." ||
            toks[i + 1].text == "->") &&
           toks[i + 2].kind == TokKind::kIdent) {
      i += 2;
      callee = toks[i].text;
    }
    if (i + 1 >= toks.size() || toks[i + 1].kind != TokKind::kPunct ||
        toks[i + 1].text != "(") {
      continue;
    }
    // Balance the argument list; the statement must end right after it.
    std::size_t j = i + 1;
    int depth = 0;
    for (; j < toks.size(); ++j) {
      if (toks[j].kind != TokKind::kPunct) continue;
      if (toks[j].text == "(") ++depth;
      if (toks[j].text == ")" && --depth == 0) break;
    }
    if (j + 1 >= toks.size() || toks[j + 1].kind != TokKind::kPunct ||
        toks[j + 1].text != ";") {
      continue;
    }
    if (!index.unambiguously_returns_status(callee)) continue;
    if (self.returns_other(callee)) continue;  // local helper shadows name
    out->push_back(Violation{
        "status-discard", toks[s].line,
        "result of '" + callee +
            "' (returns Status/StatusOr) is discarded; check it, or cast "
            "to void with a comment if the error is truly ignorable"});
  }
}

// ---------------------------------------------------------------------------
// segment-modulo: raw `%` on segment/cursor arithmetic. The circular-scan
// helpers in sched/segment_planner.h are the sanctioned implementation; raw
// modulo there has twice produced off-by-one wraps in review.
void check_segment_modulo(const std::string& path, const TokenizedFile& file,
                          std::vector<Violation>* out) {
  if (starts_with(path, "src/sched/segment_planner.") ||
      starts_with(path, "src/dfs/segment.")) {
    return;
  }
  static const std::unordered_set<std::string> kTriggerWords = {
      "cursor", "rotation", "wave", "seg", "segment", "segments"};
  const std::vector<Token>& toks = file.tokens;
  auto triggers = [&](const std::string& ident) {
    const std::vector<std::string> words = split_words(ident);
    for (std::size_t w = 0; w < words.size(); ++w) {
      if (kTriggerWords.count(words[w]) > 0) return true;
      if (w + 1 < words.size() && words[w + 1] == "block" &&
          (words[w] == "next" || words[w] == "start")) {
        return true;
      }
    }
    return false;
  };
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kPunct ||
        (toks[i].text != "%" && toks[i].text != "%=")) {
      continue;
    }
    bool hit = false;
    std::string witness;
    // Scan a bounded window either side of the operator, stopping at
    // statement/argument boundaries.
    for (int dir = -1; dir <= 1 && !hit; dir += 2) {
      std::size_t k = i;
      for (int steps = 0; steps < 8; ++steps) {
        if (dir < 0 && k == 0) break;
        k = (dir < 0) ? k - 1 : k + 1;
        if (k >= toks.size()) break;
        const Token& t = toks[k];
        if (t.kind == TokKind::kPunct &&
            (t.text == ";" || t.text == "{" || t.text == "}" ||
             t.text == "," || (dir < 0 && t.text == "(") ||
             (dir > 0 && t.text == ")"))) {
          break;
        }
        if (t.kind == TokKind::kIdent && triggers(t.text)) {
          hit = true;
          witness = t.text;
          break;
        }
      }
    }
    if (hit) {
      out->push_back(Violation{
          "segment-modulo", toks[i].line,
          "raw '%' on '" + witness +
              "'; use sched::advance_cursor/wrap_index from "
              "sched/segment_planner.h for circular segment arithmetic"});
    }
  }
}

// ---------------------------------------------------------------------------
// view-retention: a class that touches KVBatch must not hold
// std::string_view members — batch arenas are recycled between waves.
void check_view_retention(const TokenizedFile& file,
                          const std::vector<ScopeKind>& scope,
                          std::vector<Violation>* out) {
  const std::vector<Token>& toks = file.tokens;
  for (std::size_t open = 0; open + 1 < toks.size(); ++open) {
    if (toks[open].kind != TokKind::kPunct || toks[open].text != "{") continue;
    if (scope[open + 1] != ScopeKind::kClass) continue;
    // Find the matching close brace.
    std::size_t close = open;
    int depth = 0;
    for (; close < toks.size(); ++close) {
      if (toks[close].kind != TokKind::kPunct) continue;
      if (toks[close].text == "{") ++depth;
      if (toks[close].text == "}" && --depth == 0) break;
    }
    bool consumes_kvbatch = false;
    for (std::size_t k = open + 1; k < close; ++k) {
      if (toks[k].kind == TokKind::kIdent && toks[k].text == "KVBatch") {
        consumes_kvbatch = true;
        break;
      }
    }
    if (!consumes_kvbatch) continue;
    // Walk direct class-body member declarations (inner depth 0).
    int inner = 0;
    std::vector<const Token*> run;
    auto flush = [&]() {
      bool has_view = false;
      bool skip = false;
      int line = 0;
      for (const Token* t : run) {
        if (t->kind == TokKind::kPunct && t->text == "(") skip = true;
        if (t->kind != TokKind::kIdent) continue;
        if (t->text == "using" || t->text == "typedef" ||
            t->text == "friend") {
          skip = true;
        }
        if (t->text == "string_view") {
          has_view = true;
          line = t->line;
        }
      }
      run.clear();
      if (has_view && !skip) {
        out->push_back(Violation{
            "view-retention", line,
            "std::string_view member in a class that consumes KVBatch; "
            "batch memory is recycled between waves — store std::string "
            "(s3viewcheck's view-outlives-arena rule traces the actual "
            "stores project-wide)"});
      }
    };
    for (std::size_t k = open + 1; k < close; ++k) {
      const Token& t = toks[k];
      if (t.kind == TokKind::kPunct && t.text == "{") {
        if (inner == 0) flush();  // brace-init / method body begins
        ++inner;
        continue;
      }
      if (t.kind == TokKind::kPunct && t.text == "}") {
        --inner;
        continue;
      }
      if (inner > 0) continue;
      if (t.kind == TokKind::kPunct && (t.text == ";" || t.text == ":")) {
        flush();
        continue;
      }
      run.push_back(&t);
    }
    flush();
    open = close;
  }
}

// ---------------------------------------------------------------------------
// Small hygiene rules.
void check_thread_detach(const TokenizedFile& file,
                         std::vector<Violation>* out) {
  const std::vector<Token>& toks = file.tokens;
  for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
    if (toks[i].kind == TokKind::kPunct &&
        (toks[i].text == "." || toks[i].text == "->") &&
        toks[i + 1].kind == TokKind::kIdent && toks[i + 1].text == "detach" &&
        toks[i + 2].kind == TokKind::kPunct && toks[i + 2].text == "(") {
      out->push_back(Violation{
          "thread-detach", toks[i + 1].line,
          "detached threads outlive shutdown and race teardown; join via "
          "PinnedThreadPool or keep the std::thread joinable"});
    }
  }
}

void check_stray_cout(const std::string& path, const TokenizedFile& file,
                      std::vector<Violation>* out) {
  if (starts_with(path, "tools/") || starts_with(path, "examples/") ||
      starts_with(path, "bench/")) {
    return;
  }
  const std::vector<Token>& toks = file.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdent) continue;
    const bool is_cout = toks[i].text == "cout";
    const bool is_printf =
        (toks[i].text == "printf" || toks[i].text == "puts") &&
        i + 1 < toks.size() && toks[i + 1].kind == TokKind::kPunct &&
        toks[i + 1].text == "(";
    if (!is_cout && !is_printf) continue;
    out->push_back(Violation{
        "stray-cout", toks[i].line,
        "'" + toks[i].text +
            "' outside tools/examples/bench; use S3_LOG so output honors "
            "the configured log level"});
  }
}

void check_sleep_in_src(const std::string& path, const TokenizedFile& file,
                        std::vector<Violation>* out) {
  if (!starts_with(path, "src/")) return;
  for (const Token& t : file.tokens) {
    if (t.kind == TokKind::kIdent &&
        (t.text == "sleep_for" || t.text == "sleep_until")) {
      out->push_back(Violation{
          "sleep-in-src", t.line,
          "'" + t.text +
              "' in src/; timing-based coordination belongs in tests or "
              "tools — use condition variables or the simulated clock"});
    }
  }
}

// wait-under-lock: blocking primitives lexically inside a RAII guard scope
// in src/. A condition wait through anything but the guard itself keeps the
// lock pinned while the thread parks; a pool handoff (submit / wait_idle)
// under a lock is the classic shared-scan stall — the submitted task may
// need the very lock the submitter is holding. This is the fast lexical
// sibling of s3lockcheck's whole-project blocking-under-lock analysis: it
// catches the obvious cases in a single file without building a call graph.
// src/common/thread_annotations.h is exempt — it implements the sanctioned
// MutexLock::wait wrapper this rule steers people toward.
void check_wait_under_lock(const std::string& path, const TokenizedFile& file,
                           std::vector<Violation>* out) {
  if (!starts_with(path, "src/")) return;
  if (path == "src/common/thread_annotations.h") return;
  const std::vector<Token>& toks = file.tokens;
  struct Guard {
    std::string var;
    int depth = 0;
  };
  std::vector<Guard> guards;
  int depth = 0;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind == TokKind::kPunct) {
      if (t.text == "{") ++depth;
      if (t.text == "}") {
        --depth;
        while (!guards.empty() && guards.back().depth > depth) {
          guards.pop_back();
        }
      }
      continue;
    }
    if (t.kind != TokKind::kIdent) continue;
    if ((t.text == "MutexLock" || t.text == "WriterMutexLock" ||
         t.text == "ReaderMutexLock") &&
        i + 2 < toks.size() && toks[i + 1].kind == TokKind::kIdent &&
        toks[i + 2].kind == TokKind::kPunct && toks[i + 2].text == "(") {
      guards.push_back(Guard{toks[i + 1].text, depth});
      continue;
    }
    if (guards.empty()) continue;
    const bool is_call = i + 1 < toks.size() &&
                         toks[i + 1].kind == TokKind::kPunct &&
                         toks[i + 1].text == "(";
    if (!is_call) continue;
    if (t.text == "wait" || t.text == "wait_for" || t.text == "wait_until") {
      // `lock.wait(cv)` on the guard itself releases the lock while parked
      // — that is the sanctioned pattern. Anything else pins the lock.
      bool on_guard = false;
      if (i >= 2 && toks[i - 1].kind == TokKind::kPunct &&
          (toks[i - 1].text == "." || toks[i - 1].text == "->") &&
          toks[i - 2].kind == TokKind::kIdent) {
        for (const Guard& g : guards) {
          if (g.var == toks[i - 2].text) {
            on_guard = true;
            break;
          }
        }
      }
      if (!on_guard) {
        out->push_back(Violation{
            "wait-under-lock", t.line,
            "'" + t.text +
                "' inside a guard scope does not go through the guard; use "
                "the guard's wait() so the lock is released while parked"});
      }
      continue;
    }
    if (t.text == "sleep_for" || t.text == "sleep_until") {
      out->push_back(Violation{
          "wait-under-lock", t.line,
          "'" + t.text +
              "' while a lock is held stalls every waiter for the full "
              "duration; release the guard first"});
      continue;
    }
    if (t.text == "submit" || t.text == "submit_to" ||
        t.text == "wait_idle") {
      out->push_back(Violation{
          "wait-under-lock", t.line,
          "thread-pool '" + t.text +
              "' while a lock is held; the handed-off task (or the drain) "
              "may need the very lock being held — release the guard "
              "first"});
      continue;
    }
  }
}

// raw-clock: direct std::chrono clock reads in src/ outside the sanctioned
// timing homes. Runtime code must go through obs::now_ns/seconds_since so
// every duration lands in the same timebase the tracer stamps spans with
// (and stays mockable in one place). src/obs/ implements the wrappers;
// src/common/ predates them and owns its own timing (logging timestamps).
void check_raw_clock(const std::string& path, const TokenizedFile& file,
                     std::vector<Violation>* out) {
  if (!starts_with(path, "src/")) return;
  if (starts_with(path, "src/obs/") || starts_with(path, "src/common/")) {
    return;
  }
  static const std::unordered_set<std::string> kClockTypes = {
      "steady_clock", "system_clock", "high_resolution_clock"};
  for (const Token& t : file.tokens) {
    if (t.kind == TokKind::kIdent && kClockTypes.count(t.text) > 0) {
      out->push_back(Violation{
          "raw-clock", t.line,
          "direct std::chrono::" + t.text +
              " timing in src/; use obs::now_ns/seconds_since from "
              "obs/clock.h so all runtime timing shares one timebase"});
    }
  }
}

// bounded-queue: unbounded queue construction in src/service/. The
// admission front door is the system's backpressure boundary — every queue
// there must carry an explicit bound (BoundedDeque, or BlockingQueue with a
// capacity argument), otherwise overload turns into silent queue bloat
// instead of the typed kRetryAfter/kShed decisions DESIGN.md §17 promises.
// Flags std:: queue-like containers outright and BlockingQueue declarations
// whose initializer is empty (the default ctor is the unbounded mode).
void check_bounded_queue(const std::string& path, const TokenizedFile& file,
                         std::vector<Violation>* out) {
  if (!starts_with(path, "src/service/")) return;
  const std::vector<Token>& toks = file.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdent) continue;
    const std::string& name = toks[i].text;
    const bool std_scoped = i >= 2 && toks[i - 1].kind == TokKind::kPunct &&
                            toks[i - 1].text == "::" &&
                            toks[i - 2].kind == TokKind::kIdent &&
                            toks[i - 2].text == "std";
    if (std_scoped && (name == "deque" || name == "queue" ||
                       name == "priority_queue" || name == "list")) {
      out->push_back(Violation{
          "bounded-queue", toks[i].line,
          "std::" + name +
              " in src/service/; admission queues must be bounded — use "
              "BoundedDeque or a capacity-constructed BlockingQueue "
              "(backpressure model, DESIGN.md §17)"});
      continue;
    }
    if (name != "BlockingQueue") continue;
    // Skip the template argument list, tracking <> depth.
    std::size_t j = i + 1;
    if (j < toks.size() && toks[j].kind == TokKind::kPunct &&
        toks[j].text == "<") {
      int depth = 0;
      for (; j < toks.size(); ++j) {
        if (toks[j].kind != TokKind::kPunct) continue;
        if (toks[j].text == "<") ++depth;
        if (toks[j].text == ">" && --depth == 0) {
          ++j;
          break;
        }
      }
    }
    // A declaration: `BlockingQueue<T> name …`. References, pointers, and
    // using-aliases put punctuation here instead and are not constructions.
    if (j >= toks.size() || toks[j].kind != TokKind::kIdent) continue;
    const std::size_t k = j + 1;
    const bool default_ctor =
        k >= toks.size() ||
        (toks[k].kind == TokKind::kPunct &&
         (toks[k].text == ";" ||
          (k + 1 < toks.size() &&
           ((toks[k].text == "(" && toks[k + 1].text == ")") ||
            (toks[k].text == "{" && toks[k + 1].text == "}")))));
    if (default_ctor) {
      out->push_back(Violation{
          "bounded-queue", toks[i].line,
          "BlockingQueue default-constructed in src/service/ is unbounded; "
          "pass an explicit capacity so the admission pipeline exerts "
          "backpressure (DESIGN.md §17)"});
    }
  }
}

// raw-thread: direct std::thread (or pthread_create) in src/ outside the
// pool itself (src/common/pinned_thread_pool.{h,cpp}). Worker threads must
// come from PinnedThreadPool so every thread honors the shutdown-drain and
// exception-rethrow contracts and shows up in the pool's steal/pin
// telemetry; a hand-rolled thread does neither, and neither does a second
// pool. std::this_thread (yield/sleep queries) is a different identifier
// and is not flagged.
void check_raw_thread(const std::string& path, const TokenizedFile& file,
                      std::vector<Violation>* out) {
  if (!starts_with(path, "src/")) return;
  if (path == "src/common/pinned_thread_pool.h" ||
      path == "src/common/pinned_thread_pool.cpp") {
    return;
  }
  const std::vector<Token>& toks = file.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const bool std_thread =
        i + 2 < toks.size() && toks[i].kind == TokKind::kIdent &&
        toks[i].text == "std" && toks[i + 1].kind == TokKind::kPunct &&
        toks[i + 1].text == "::" && toks[i + 2].kind == TokKind::kIdent &&
        toks[i + 2].text == "thread";
    const bool pthread = toks[i].kind == TokKind::kIdent &&
                         toks[i].text == "pthread_create";
    if (!std_thread && !pthread) continue;
    out->push_back(Violation{
        "raw-thread", toks[i].line,
        std::string(std_thread ? "std::thread" : "pthread_create") +
            " in src/ outside the pool; spawn workers through "
            "PinnedThreadPool so shutdown drain, exception rethrow, and "
            "pinning stay centralized"});
  }
}

// raw-abort: direct abort()/exit()/_Exit()/quick_exit() calls in src/
// outside src/common/. Every fatal path must route through
// internal::fatal_abort (common/contracts.h) so the crash-dump hook runs and
// the black-box flight record survives: a raw abort dies with an empty
// post-mortem. src/common/ is exempt — it implements fatal_abort itself and
// owns process teardown.
void check_raw_abort(const std::string& path, const TokenizedFile& file,
                     std::vector<Violation>* out) {
  if (!starts_with(path, "src/")) return;
  if (starts_with(path, "src/common/")) return;
  const std::vector<Token>& toks = file.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdent) continue;
    const std::string& name = toks[i].text;
    if (name != "abort" && name != "exit" && name != "_Exit" &&
        name != "quick_exit") {
      continue;
    }
    // Only calls: the identifier must open an argument list.
    if (i + 1 >= toks.size() || toks[i + 1].kind != TokKind::kPunct ||
        toks[i + 1].text != "(") {
      continue;
    }
    // Member calls (guard.abort(), session->exit()) and qualified names from
    // other namespaces are different functions; only the C library spellings
    // — bare, ::, or std:: — terminate the process behind the hook's back.
    if (i >= 1 && toks[i - 1].kind == TokKind::kPunct &&
        (toks[i - 1].text == "." || toks[i - 1].text == "->")) {
      continue;
    }
    if (i >= 2 && toks[i - 1].kind == TokKind::kPunct &&
        toks[i - 1].text == "::" && toks[i - 2].kind == TokKind::kIdent &&
        toks[i - 2].text != "std") {
      continue;
    }
    out->push_back(Violation{
        "raw-abort", toks[i].line,
        name + "() in src/ outside common/; fatal paths must go through "
               "S3_CHECK/internal::fatal_abort so the crash-dump hook "
               "writes the flight record before the process dies"});
  }
}

void check_pragma_once(const std::string& path, const TokenizedFile& file,
                       std::vector<Violation>* out) {
  if (!ends_with(path, ".h")) return;
  for (const Token& t : file.tokens) {
    if (t.kind != TokKind::kDirective) continue;
    // Directive text starts at the '#'; whitespace around it is free-form
    // ("#pragma once", "# pragma  once").
    std::string text = t.text;
    if (!text.empty() && text[0] == '#') text = text.substr(1);
    std::istringstream in(text);
    std::string first, second;
    in >> first >> second;
    if (first == "pragma" && second == "once") return;
  }
  out->push_back(Violation{
      "pragma-once", 1, "header is missing '#pragma once'"});
}

// ---------------------------------------------------------------------------
// status-dataloss: every Status::data_loss call must name the block that was
// lost. Operators triage data loss by block id, and the failure-model
// contract (DESIGN.md §12) is that kDataLoss is only returned when a
// *specific* block has no usable replica left — an anonymous message hides
// which one. Accepts a "block" mention either in the argument list or in the
// few statements above it (messages assembled via ostringstream).
void check_status_dataloss(const std::string& path, const TokenizedFile& file,
                           std::vector<Violation>* out) {
  if (path == "src/common/status.h") return;  // the factory's own declaration
  const std::vector<Token>& toks = file.tokens;
  const auto names_block = [](const Token& t) {
    if (t.kind == TokKind::kString) {
      return t.text.find("block") != std::string::npos ||
             t.text.find("Block") != std::string::npos;
    }
    if (t.kind == TokKind::kIdent) {
      for (const std::string& word : split_words(t.text)) {
        if (word == "block") return true;
      }
    }
    return false;
  };
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdent || toks[i].text != "data_loss") {
      continue;
    }
    if (toks[i + 1].kind != TokKind::kPunct || toks[i + 1].text != "(") {
      continue;
    }
    bool named = false;
    int depth = 0;
    for (std::size_t j = i + 1; j < toks.size(); ++j) {
      if (toks[j].kind == TokKind::kPunct) {
        if (toks[j].text == "(") ++depth;
        if (toks[j].text == ")" && --depth == 0) break;
        continue;
      }
      if (names_block(toks[j])) named = true;
    }
    // Message built out-of-line: look a short window back for the block
    // mention being streamed into it.
    for (std::size_t back = 1; !named && back <= 96 && back <= i; ++back) {
      if (names_block(toks[i - back])) named = true;
    }
    if (!named) {
      out->push_back(Violation{
          "status-dataloss", toks[i].line,
          "Status::data_loss message does not name the lost block; include "
          "the block id so the loss is attributable (failure model §12)"});
    }
  }
}

// ---------------------------------------------------------------------------
// status-nodiscard: declaration-level [[nodiscard]] on Status/StatusOr
// returning functions (class-level [[nodiscard]] catches call sites, the
// declaration attribute keeps intent visible at the API).
void check_status_nodiscard(const std::string& path, const DeclIndex& index,
                            std::vector<Violation>* out) {
  for (const FunctionDecl& d : index.missing_nodiscard()) {
    if (d.file != path) continue;
    out->push_back(Violation{
        "status-nodiscard", d.line,
        "'" + d.name +
            "' returns Status/StatusOr but is not declared [[nodiscard]]"});
  }
}

}  // namespace

const std::vector<std::string>& all_rules() {
  static const std::vector<std::string> kRules = {
      "naked-mutex",   "status-discard", "status-nodiscard",
      "status-dataloss", "segment-modulo", "view-retention",
      "thread-detach", "raw-thread",     "stray-cout",
      "sleep-in-src",  "raw-clock",      "pragma-once",
      "wait-under-lock", "raw-abort",    "bounded-queue",
  };
  return kRules;
}

std::vector<Violation> lint_file(
    const std::string& path, const TokenizedFile& file, const DeclIndex& index,
    const std::vector<std::string>& enabled_rules) {
  const std::vector<ScopeKind> scope = classify_scopes(file.tokens);
  const Suppressions suppressions = Suppressions::parse(file.comments);
  const std::set<std::string> enabled(enabled_rules.begin(),
                                      enabled_rules.end());

  // Self-index the file so a local helper sharing a name with an indexed
  // Status-returning function does not trip status-discard.
  DeclIndex self;
  self.index_file(path, file);

  std::vector<Violation> raw;
  if (enabled.count("naked-mutex") > 0) {
    check_naked_mutex(path, file, scope, &raw);
  }
  if (enabled.count("status-discard") > 0) {
    check_status_discard(file, scope, index, self, &raw);
  }
  if (enabled.count("status-nodiscard") > 0) {
    check_status_nodiscard(path, index, &raw);
  }
  if (enabled.count("status-dataloss") > 0) {
    check_status_dataloss(path, file, &raw);
  }
  if (enabled.count("segment-modulo") > 0) {
    check_segment_modulo(path, file, &raw);
  }
  if (enabled.count("view-retention") > 0) {
    check_view_retention(file, scope, &raw);
  }
  if (enabled.count("thread-detach") > 0) {
    check_thread_detach(file, &raw);
  }
  if (enabled.count("raw-thread") > 0) {
    check_raw_thread(path, file, &raw);
  }
  if (enabled.count("stray-cout") > 0) {
    check_stray_cout(path, file, &raw);
  }
  if (enabled.count("sleep-in-src") > 0) {
    check_sleep_in_src(path, file, &raw);
  }
  if (enabled.count("raw-clock") > 0) {
    check_raw_clock(path, file, &raw);
  }
  if (enabled.count("pragma-once") > 0) {
    check_pragma_once(path, file, &raw);
  }
  if (enabled.count("wait-under-lock") > 0) {
    check_wait_under_lock(path, file, &raw);
  }
  if (enabled.count("raw-abort") > 0) {
    check_raw_abort(path, file, &raw);
  }
  if (enabled.count("bounded-queue") > 0) {
    check_bounded_queue(path, file, &raw);
  }

  // view-retention is the lexical fast path of s3viewcheck's deeper
  // view-outlives-arena model (tools/s3viewcheck). A member the project-wide
  // analyzer has vetted — `// s3viewcheck: disable(view-outlives-arena)` —
  // must not be re-flagged here, so both tools honor that one tag.
  const Suppressions viewcheck_suppressions =
      Suppressions::parse(file.comments, "s3viewcheck:");

  std::vector<Violation> out;
  for (Violation& v : raw) {
    if (suppressions.suppressed(v.rule, v.line)) continue;
    if (v.rule == "view-retention" &&
        viewcheck_suppressions.suppressed("view-outlives-arena", v.line)) {
      continue;
    }
    out.push_back(std::move(v));
  }
  return out;
}

}  // namespace s3lint
