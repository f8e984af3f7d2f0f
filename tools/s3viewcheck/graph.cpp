#include "s3viewcheck/graph.h"

#include <algorithm>
#include <optional>
#include <ostream>

namespace s3viewcheck {
namespace {

// Classes whose members ARE the arena machinery: their own method bodies
// legitimately touch arena state with views in flight.
bool is_exempt_class(const std::string& class_path) {
  const std::size_t pos = class_path.rfind("::");
  const std::string last =
      pos == std::string::npos ? class_path : class_path.substr(pos + 2);
  return last == "KVBatch" || last == "DebugView" || last == "ArenaStamp";
}

bool is_batch_type(const std::string& t) { return t == "KVBatch"; }

// Callees that copy the bytes out (or reduce the view to a scalar): a local
// initialized through one of these holds no arena pointer, so a view-source
// call in the same initializer must not bind.
bool is_copy_breaker(const std::string& callee) {
  return callee == "string" || callee == "to_string" || callee == "stoull" ||
         callee == "stoul" || callee == "stoll" || callee == "stol" ||
         callee == "stoi" || callee == "stod" || callee == "stof" ||
         callee == "size" || callee == "length" || callee == "empty" ||
         callee == "compare" || callee == "count" || callee == "hash" ||
         callee == "atoi" || callee == "strtoull" || callee == "find";
}

bool is_container_store(const std::string& callee) {
  return callee == "push_back" || callee == "emplace_back" ||
         callee == "insert" || callee == "push" || callee == "emplace";
}

struct Arena {
  enum class Kind { kLocal, kParam, kMember, kBorrowed };
  std::string id;  // identity for invalidation matching ("run", "ctx.batch")
  Kind kind = Kind::kLocal;
};

struct TrackedView {
  Arena arena;
  int bind_seq = 0;
  int bind_line = 0;
  int bind_lambda = -1;
  std::string via;  // "KVBatch::key", "borrowed parameter", "wrapper()"
  bool active = false;
};

struct Invalidation {
  std::string arena_id;
  int seq = 0;
  int line = 0;
  bool is_append = false;
  std::string why;  // "clear()", "std::move", "call to f() which ..."
};

}  // namespace

ProjectGraph::ProjectGraph(std::vector<FileModel> files)
    : files_(std::move(files)), index_(files_) {
  compute_summaries();
}

const ProjectGraph::Summary* ProjectGraph::summary_for(
    const std::string& callee) const {
  auto it = summaries_.find(callee);
  return it == summaries_.end() ? nullptr : &it->second;
}

void ProjectGraph::compute_summaries() {
  // Only names defined exactly once are summarized (a declaration plus its
  // one definition does not conflict; two bodies are ambiguous). Seed:
  // declared return types, direct parameter invalidations, and direct
  // return-a-view-of-a-batch-parameter shapes.
  for (const auto& [name, ref] : index_.defined_once) {
    const FunctionModel* fn = &files_[ref.file].functions[ref.index];
    Summary s;
    s.returns_batch = is_batch_type(fn->return_type);
    std::map<std::string, std::size_t> param_index;
    for (std::size_t k = 0; k < fn->params.size(); ++k) {
      param_index[fn->params[k].name] = k;
    }
    auto batch_param = [&](const std::string& ident) -> std::optional<std::size_t> {
      auto it = param_index.find(ident);
      if (it == param_index.end()) return std::nullopt;
      if (!is_batch_type(fn->params[it->second].type)) return std::nullopt;
      return it->second;
    };
    for (const CallSite& c : fn->calls) {
      if ((c.callee == "append" || c.callee == "clear" ||
           c.callee == "prefault") &&
          c.chain.size() == 1) {
        if (auto k = batch_param(c.chain[0])) s.invalidates_param.insert(*k);
      }
      for (std::size_t a = 0; a < c.args.size(); ++a) {
        if (c.moved[a]) {
          if (auto k = batch_param(c.args[a])) s.invalidates_param.insert(*k);
        }
      }
      if (c.callee == "move" && c.chain.size() == 1 && c.chain[0] == "std") {
        for (const std::string& arg : c.args) {
          if (auto k = batch_param(arg)) s.invalidates_param.insert(*k);
        }
      }
      if ((c.callee == "key" || c.callee == "value") &&
          c.bound_to == "<return>" && c.chain.size() == 1) {
        if (auto k = batch_param(c.chain[0])) s.view_of_param.insert(*k);
      }
    }
    for (const Event& ev : fn->events) {
      if (ev.kind == EventKind::kAssign) {
        if (auto k = batch_param(ev.view)) s.invalidates_param.insert(*k);
      }
    }
    summaries_[name] = s;
  }
  // Propagate invalidation through calls: passing our batch parameter to a
  // callee that invalidates that position invalidates ours too.
  bool changed = true;
  int rounds = 0;
  while (changed && rounds++ < 16) {
    changed = false;
    for (const auto& [name, ref] : index_.defined_once) {
      const FunctionModel* fn = &files_[ref.file].functions[ref.index];
      Summary& s = summaries_[name];
      std::map<std::string, std::size_t> param_index;
      for (std::size_t k = 0; k < fn->params.size(); ++k) {
        param_index[fn->params[k].name] = k;
      }
      for (const CallSite& c : fn->calls) {
        const Summary* callee = summary_for(c.callee);
        if (callee == nullptr || callee->invalidates_param.empty()) continue;
        for (const std::size_t k : callee->invalidates_param) {
          if (k >= c.args.size()) continue;
          auto it = param_index.find(c.args[k]);
          if (it == param_index.end()) continue;
          if (!is_batch_type(fn->params[it->second].type)) continue;
          if (s.invalidates_param.insert(it->second).second) changed = true;
        }
      }
    }
  }
}

void ProjectGraph::analyze_function(const FunctionModel& fn,
                                    const std::set<std::string>& rules,
                                    std::vector<Finding>* out) const {
  if (!fn.has_body || is_exempt_class(fn.class_name)) return;

  // --- Name resolution tables. ---------------------------------------
  std::map<std::string, std::string> local_type;
  for (const LocalDecl& d : fn.locals) local_type[d.name] = d.type;
  // auto locals initialized from a batch-returning call are batch locals.
  for (const CallSite& c : fn.calls) {
    if (c.bound_to.empty() || c.bound_type != "auto") continue;
    const Summary* s = summary_for(c.callee);
    const bool acquires = c.callee == "acquire";  // BatchArenaPool::acquire
    if ((s != nullptr && s->returns_batch) || acquires) {
      auto it = local_type.find(c.bound_to);
      if (it != local_type.end() && it->second == "auto") {
        it->second = "KVBatch";
      }
    }
  }
  std::map<std::string, std::string> param_type;
  std::map<std::string, std::size_t> param_index;
  for (std::size_t k = 0; k < fn.params.size(); ++k) {
    param_type[fn.params[k].name] = fn.params[k].type;
    param_index[fn.params[k].name] = k;
  }

  // Resolves an identifier chain to an arena identity iff it denotes a
  // KVBatch reachable as local / parameter / own-class member (possibly
  // through typed intermediate members). Unknown => nullopt, no finding.
  auto resolve_arena = [&](const std::vector<std::string>& chain)
      -> std::optional<Arena> {
    if (chain.empty()) return std::nullopt;
    std::string type;
    Arena arena;
    if (auto it = local_type.find(chain[0]); it != local_type.end()) {
      type = it->second;
      arena.kind = Arena::Kind::kLocal;
      arena.id = chain[0];
    } else if (auto pit = param_type.find(chain[0]); pit != param_type.end()) {
      type = pit->second;
      arena.kind = Arena::Kind::kParam;
      arena.id = chain[0];
    } else if (const std::string* mt =
                   index_.member_type(fn.class_name, chain[0])) {
      type = *mt;
      arena.kind = Arena::Kind::kMember;
      arena.id = fn.class_name + "::" + chain[0];
    } else {
      return std::nullopt;
    }
    for (std::size_t i = 1; i < chain.size(); ++i) {
      const std::string* mt = index_.member_type(type, chain[i]);
      if (mt == nullptr) return std::nullopt;
      type = *mt;
      if (arena.kind == Arena::Kind::kLocal) {
        // A batch inside a local aggregate dies with the scope, but chained
        // identity is too easy to alias; demote to member-ish (no escape
        // findings), keep the id for invalidation matching.
        arena.kind = Arena::Kind::kMember;
      }
      arena.id += "." + chain[i];
    }
    if (!is_batch_type(type)) return std::nullopt;
    return arena;
  };

  // --- Copy-breaker statements: (stmt, bound_to) pairs whose initializer
  // pipes the view through a byte-copying / scalar-producing call. ------
  std::set<std::pair<int, std::string>> breakers;
  for (const CallSite& c : fn.calls) {
    if (!c.bound_to.empty() && is_copy_breaker(c.callee)) {
      breakers.insert({c.stmt, c.bound_to});
    }
  }
  auto broken = [&](int stmt, const std::string& bound_to) {
    return breakers.count({stmt, bound_to}) != 0;
  };

  std::map<int, bool> lambda_submitted;
  for (const LambdaInfo& l : fn.lambdas) lambda_submitted[l.id] = l.submitted;

  // --- Merge events and calls into one lexical stream. -----------------
  struct Step {
    int seq;
    const Event* ev = nullptr;
    const CallSite* call = nullptr;
  };
  std::vector<Step> steps;
  steps.reserve(fn.events.size() + fn.calls.size());
  for (const Event& ev : fn.events) steps.push_back({ev.seq, &ev, nullptr});
  for (const CallSite& c : fn.calls) steps.push_back({c.seq, nullptr, &c});
  std::sort(steps.begin(), steps.end(),
            [](const Step& a, const Step& b) { return a.seq < b.seq; });

  std::map<std::string, TrackedView> views;
  std::vector<Invalidation> invals;
  std::set<std::string> reported;  // dedup key per finding

  auto report = [&](const std::string& rule, int line,
                    const std::string& message) {
    if (rules.count(rule) == 0) return;
    const std::string key = rule + "|" + std::to_string(line) + "|" + message;
    if (!reported.insert(key).second) return;
    out->push_back({rule, fn.file, line, message});
  };

  auto arena_phrase = [&](const Arena& a) {
    switch (a.kind) {
      case Arena::Kind::kLocal: return "local batch '" + a.id + "'";
      case Arena::Kind::kParam: return "batch parameter '" + a.id + "'";
      case Arena::Kind::kMember: return "batch '" + a.id + "'";
      case Arena::Kind::kBorrowed:
        return "borrowed view parameter" + std::string();
    }
    return std::string("batch");
  };

  // `site` is the CallSite or Event that binds the view.
  auto bind_view = [&](const std::string& name, const Arena& arena,
                       const auto& site, const std::string& via) {
    TrackedView tv;
    tv.arena = arena;
    tv.bind_seq = site.seq;
    tv.bind_line = site.line;
    tv.bind_lambda = site.lambda;
    tv.via = via;
    tv.active = true;
    views[name] = tv;
  };

  auto invalidate = [&](const std::string& id, int seq, int line,
                        bool is_append, const std::string& why) {
    invals.push_back({id, seq, line, is_append, why});
  };

  // Checks a read of view `name` at (seq, line): dangling / append-after-
  // read / cross-thread, in that priority order per invalidation.
  auto check_use = [&](const std::string& name, int seq, int line,
                       int lambda) {
    auto it = views.find(name);
    if (it == views.end() || !it->second.active) return;
    const TrackedView& tv = it->second;
    for (const Invalidation& inv : invals) {
      if (inv.arena_id != tv.arena.id) continue;
      if (inv.seq <= tv.bind_seq || inv.seq >= seq) continue;
      const std::string rule =
          inv.is_append ? "append-after-read" : "dangling-view";
      report(rule, line,
             "view '" + name + "' (bound to " + arena_phrase(tv.arena) +
                 " at line " + std::to_string(tv.bind_line) + " via " +
                 tv.via + ") is read after the arena was invalidated by " +
                 inv.why + " at line " + std::to_string(inv.line) +
                 "; re-fetch the view after any arena mutation");
      break;
    }
    if (lambda >= 0 && lambda_submitted[lambda] && tv.bind_lambda != lambda) {
      report("cross-thread-view", line,
             "view '" + name + "' (bound to " + arena_phrase(tv.arena) +
                 " at line " + std::to_string(tv.bind_line) + " via " +
                 tv.via +
                 ") is captured by a lambda submitted to a worker pool; the"
                 " arena may be mutated or destroyed before the task runs —"
                 " copy the bytes (std::string) into the task instead");
    }
  };

  for (const Step& step : steps) {
    if (step.call != nullptr) {
      const CallSite& c = *step.call;
      // 1. View sources: KVBatch::key/value on a resolvable batch chain.
      if ((c.callee == "key" || c.callee == "value") && !c.chain.empty()) {
        if (auto arena = resolve_arena(c.chain)) {
          const std::string via = "KVBatch::" + c.callee;
          if (c.bound_to == "<return>") {
            if (arena->kind == Arena::Kind::kLocal &&
                !broken(c.stmt, "<return>")) {
              report("view-outlives-arena", c.line,
                     "returning a view of " + arena_phrase(*arena) +
                         " from '" + fn.display +
                         "'; the arena dies with the scope — return a "
                         "std::string copy or hand the batch out too");
            }
          } else if (c.bound_to.rfind("<store:", 0) == 0) {
            const std::string target =
                c.bound_to.substr(7, c.bound_to.size() - 8);
            report("view-outlives-arena", c.line,
                   "storing a view of " + arena_phrase(*arena) +
                       " into '" + target +
                       "', which outlives the statement; store a "
                       "std::string copy instead");
          } else if (!c.bound_to.empty() && !broken(c.stmt, c.bound_to)) {
            bind_view(c.bound_to, *arena, c, via);
          }
        }
      }
      // 2. Summary-resolved view sources: wrapper returning view of arg k.
      if (const Summary* s = summary_for(c.callee)) {
        if (!s->view_of_param.empty() && !c.bound_to.empty() &&
            c.bound_to[0] != '<' && !broken(c.stmt, c.bound_to)) {
          for (const std::size_t k : s->view_of_param) {
            if (k >= c.args.size()) continue;
            if (auto arena = resolve_arena({c.args[k]})) {
              bind_view(c.bound_to, *arena, c, c.callee + "()");
            }
          }
        }
        // 3a. Callee-mediated invalidation of a batch argument.
        for (const std::size_t k : s->invalidates_param) {
          if (k >= c.args.size()) continue;
          if (auto arena = resolve_arena({c.args[k]})) {
            invalidate(arena->id, c.seq, c.line, false,
                       "the call to " + c.callee +
                           "(), which mutates that batch");
          }
        }
      }
      // 3b. Direct invalidations.
      if ((c.callee == "clear" || c.callee == "prefault") &&
          !c.chain.empty()) {
        if (auto arena = resolve_arena(c.chain)) {
          invalidate(arena->id, c.seq, c.line, false, c.callee + "()");
        }
      }
      if (c.callee == "append" && !c.chain.empty()) {
        if (auto arena = resolve_arena(c.chain)) {
          invalidate(arena->id, c.seq, c.line, true,
                     "append() (growth may reallocate the arena)");
        }
      }
      for (std::size_t a = 0; a < c.args.size(); ++a) {
        if (!c.moved[a]) continue;
        if (auto arena = resolve_arena({c.args[a]})) {
          invalidate(arena->id, c.seq, c.line, false, "std::move");
        }
      }
      if (c.callee == "move" && c.chain.size() == 1 && c.chain[0] == "std") {
        for (const std::string& arg : c.args) {
          if (auto arena = resolve_arena({arg})) {
            invalidate(arena->id, c.seq, c.line, false, "std::move");
          }
        }
      }
      // 4. Container stores into members: bucket_.push_back(view).
      if (is_container_store(c.callee) && c.chain.size() == 1 &&
          index_.member_type(fn.class_name, c.chain[0]) != nullptr) {
        for (std::size_t a = 0; a < c.args.size(); ++a) {
          if (!c.lone[a]) continue;
          auto it = views.find(c.args[a]);
          if (it == views.end() || !it->second.active) continue;
          report("view-outlives-arena", c.line,
                 "view '" + c.args[a] + "' (bound to " +
                     arena_phrase(it->second.arena) + " at line " +
                     std::to_string(it->second.bind_line) +
                     ") is stored into member container '" + c.chain[0] +
                     "', which outlives the view; store a std::string copy");
        }
      }
      // A tracked view used as a call receiver (v.substr(...)) reads it.
      if (!c.chain.empty()) {
        auto it = views.find(c.chain[0]);
        if (it != views.end()) {
          check_use(c.chain[0], c.seq, c.line, c.lambda);
        }
      }
      continue;
    }

    const Event& ev = *step.ev;
    switch (ev.kind) {
      case EventKind::kBind:
        // Borrowed view parameter: valid only for the call's duration.
        bind_view(ev.view, Arena{ev.batch, Arena::Kind::kBorrowed}, ev,
                  ev.via);
        break;
      case EventKind::kUse:
        check_use(ev.view, ev.seq, ev.line, ev.lambda);
        break;
      case EventKind::kReturn: {
        if (ev.view.empty()) break;
        check_use(ev.view, ev.seq, ev.line, ev.lambda);
        auto it = views.find(ev.view);
        if (it != views.end() && it->second.active &&
            it->second.arena.kind == Arena::Kind::kLocal &&
            !broken(ev.stmt, "<return>")) {
          report("view-outlives-arena", ev.line,
                 "returning view '" + ev.view + "' of " +
                     arena_phrase(it->second.arena) + " from '" + fn.display +
                     "'; the arena dies with the scope — return a "
                     "std::string copy or hand the batch out too");
        }
        break;
      }
      case EventKind::kAssign: {
        auto it = views.find(ev.view);
        if (it != views.end()) it->second.active = false;  // rebind follows
        if (auto arena = resolve_arena({ev.view})) {
          invalidate(arena->id, ev.seq, ev.line, false, "reassignment");
        }
        break;
      }
      case EventKind::kMemberStore: {
        if (ev.view.empty()) break;  // direct-call form handled at the call
        auto it = views.find(ev.view);
        if (it == views.end() || !it->second.active) break;
        report("view-outlives-arena", ev.line,
               "view '" + ev.view + "' (bound to " +
                   arena_phrase(it->second.arena) + " at line " +
                   std::to_string(it->second.bind_line) +
                   ") is stored into '" + ev.via +
                   "', which outlives the view; store a std::string copy");
        break;
      }
    }
  }
}

std::vector<Finding> ProjectGraph::analyze(
    const std::set<std::string>& rules) const {
  std::vector<Finding> out;
  for (const FileModel& fm : files_) {
    for (const FunctionModel& fn : fm.functions) {
      analyze_function(fn, rules, &out);
    }
  }
  return out;
}

void ProjectGraph::dump(std::ostream& os) const {
  os << "== class members (merged) ==\n";
  for (const auto& [cls, members] : index_.members) {
    for (const auto& [name, type] : members) {
      os << "  " << cls << "::" << name << " : " << type << "\n";
    }
  }
  os << "== function summaries ==\n";
  for (const auto& [name, s] : summaries_) {
    if (!s.returns_batch && s.view_of_param.empty() &&
        s.invalidates_param.empty()) {
      continue;
    }
    os << "  " << name << ":";
    if (s.returns_batch) os << " returns-batch";
    for (const std::size_t k : s.view_of_param) {
      os << " view-of-param(" << k << ")";
    }
    for (const std::size_t k : s.invalidates_param) {
      os << " invalidates-param(" << k << ")";
    }
    os << "\n";
  }
  os << "== functions ==\n";
  for (const FileModel& fm : files_) {
    for (const FunctionModel& fn : fm.functions) {
      if (!fn.has_body) continue;
      os << "  " << fn.display << " (" << fn.file << ":" << fn.line << ")";
      if (is_exempt_class(fn.class_name)) os << " [exempt]";
      os << "\n";
      for (const Param& p : fn.params) {
        os << "    param " << p.name << " : " << p.type << "\n";
      }
      for (const LocalDecl& d : fn.locals) {
        os << "    local " << d.name << " : " << d.type << "\n";
      }
      for (const LambdaInfo& l : fn.lambdas) {
        os << "    lambda #" << l.id << " at line " << l.line
           << (l.submitted ? " [submitted]" : "") << "\n";
      }
      for (const CallSite& c : fn.calls) {
        os << "    call ";
        for (const std::string& link : c.chain) os << link << ".";
        os << c.callee << " line " << c.line;
        if (!c.bound_to.empty()) os << " -> " << c.bound_to;
        os << "\n";
      }
      for (const Event& ev : fn.events) {
        const char* kind = "?";
        switch (ev.kind) {
          case EventKind::kBind: kind = "bind"; break;
          case EventKind::kUse: kind = "use"; break;
          case EventKind::kAssign: kind = "assign"; break;
          case EventKind::kReturn: kind = "return"; break;
          case EventKind::kMemberStore: kind = "member-store"; break;
        }
        os << "    event " << kind << " '" << ev.view << "' line " << ev.line;
        if (!ev.batch.empty()) os << " arena " << ev.batch;
        if (!ev.via.empty()) os << " via " << ev.via;
        if (ev.lambda >= 0) os << " lambda#" << ev.lambda;
        os << "\n";
      }
    }
  }
}

}  // namespace s3viewcheck
