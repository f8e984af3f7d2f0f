#include "s3lockcheck/graph.h"

#include <algorithm>
#include <cstddef>
#include <functional>
#include <sstream>
#include <tuple>

namespace s3lockcheck {
namespace {

std::string stem_of(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  std::string base =
      (slash == std::string::npos) ? path : path.substr(slash + 1);
  const std::size_t dot = base.find_last_of('.');
  if (dot != std::string::npos) base = base.substr(0, dot);
  return base;
}

// Annotation arguments are stored as identifier chains joined with '.'.
std::vector<std::string> split_chain(const std::string& s) {
  std::vector<std::string> out;
  std::string cur;
  for (const char c : s) {
    if (c == '.') {
      if (!cur.empty()) out.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  if (!cur.empty()) out.push_back(cur);
  return out;
}

std::string last_component(const std::string& path) {
  const std::size_t pos = path.rfind("::");
  return pos == std::string::npos ? path : path.substr(pos + 2);
}

// The class enclosing a nested class path ("A::B" -> "A"; "A" -> "").
std::string outer_class(const std::string& path) {
  const std::size_t pos = path.rfind("::");
  return pos == std::string::npos ? "" : path.substr(0, pos);
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool is_wait_name(const std::string& s) {
  return s == "wait" || s == "wait_for" || s == "wait_until";
}

bool is_sleep_name(const std::string& s) {
  return s == "sleep_for" || s == "sleep_until";
}

// A call that parks the calling thread itself: a cv wait, a sleep, a join.
bool is_blocking_primitive(const CallSite& call) {
  return (is_wait_name(call.callee) && !call.chain.empty()) ||
         is_sleep_name(call.callee) ||
         (call.callee == "join" && !call.chain.empty());
}

// Methods that block by design (condition waits, pool handoffs, block I/O).
// Calling one while holding any lock is the Algorithm 1 stall pattern:
// a scan wave cannot make progress while its scheduler thread sits in an
// unbounded wait with shared state pinned.
struct BlockingSeed {
  const char* cls;     // class tail name (exact match)
  const char* method;
  const char* why;
};
constexpr BlockingSeed kBlockingSeeds[] = {
    {"ThreadPool", "submit", "enqueues into a bounded pool"},
    {"ThreadPool", "wait_idle", "waits for pool drain"},
    {"ThreadPool", "shutdown", "joins worker threads"},
    {"PinnedThreadPool", "submit", "enqueues into a bounded pool"},
    {"PinnedThreadPool", "submit_to", "enqueues into a bounded pool"},
    {"PinnedThreadPool", "wait_idle", "waits for pool drain"},
    {"PinnedThreadPool", "shutdown", "joins worker threads"},
    {"BlockingQueue", "pop", "waits for queue data"},
    {"BlockStore", "get", "performs block I/O"},
    {"BlockStore", "put", "performs block I/O"},
};

// Unresolvable receivers with these method names are still treated as
// blocking — the names are distinctive enough in this tree that a miss
// matters more than a rare false positive (which `// s3lockcheck:
// disable(...)` can silence).
bool distinctive_blocking_name(const std::string& s) {
  return s == "submit" || s == "submit_to" || s == "wait_idle";
}

const char* seed_reason(const std::string& class_tail,
                        const std::string& method) {
  for (const BlockingSeed& seed : kBlockingSeeds) {
    if (class_tail == seed.cls && method == seed.method) return seed.why;
  }
  if (method == "fetch" && ends_with(class_tail, "BlockSource")) {
    return "fetches a block (I/O or simulated delay)";
  }
  return nullptr;
}

}  // namespace

struct ProjectGraph::Function {
  FunctionModel m;  // with the annotations of its declarations
  std::vector<std::string> requires_locks;  // resolved S3_REQUIRES
  // Resolved lock id per acquire site ("" = unresolved, dropped).
  std::vector<std::string> site_locks;
  // Resolved callee function indices per call site (may be empty).
  std::vector<std::vector<std::size_t>> call_targets;
  // Locks this function acquires transitively through non-deferred calls.
  std::set<std::string> trans;
  bool blocking = false;        // seeded or contains a blocking primitive
  bool trans_blocking = false;  // blocking reachable through calls
  std::string blocking_why;
};

ProjectGraph::ProjectGraph(std::vector<FileModel> files)
    : files_(std::move(files)), index_(files_) {
  build_indexes();
  resolve_functions();
  compute_transitive();
  build_edges();
}

ProjectGraph::~ProjectGraph() = default;

void ProjectGraph::build_indexes() {
  for (const FileModel& fm : files_) {
    const std::string stem = stem_of(fm.path);
    for (const MutexDecl& m : fm.mutexes) {
      mutexes_.emplace(m.id, m);
      by_member_[m.member].push_back(m.id);
      by_stem_[stem].push_back(m.id);
    }
    for (const auto& [enumerator, value] : fm.rank_values) {
      ranks_[enumerator] = value;
    }
  }

  // One Function per index node: every definition is its own node and
  // carries the S3_REQUIRES/S3_EXCLUDES annotations of its declarations; a
  // declaration-only node (pure virtual, externally-defined method) has only
  // those annotations for the analysis to go on. Each primary model is moved
  // exactly once: no node lists another node's primary among its decls.
  for (const s3lint::ProjectIndex::Node& node : index_.functions) {
    Function fn;
    fn.m = std::move(files_[node.primary.file].functions[node.primary.index]);
    for (const s3lint::FunctionRef& ref : node.decls) {
      const FunctionModel& d = files_[ref.file].functions[ref.index];
      fn.m.requires_args.insert(fn.m.requires_args.end(),
                                d.requires_args.begin(), d.requires_args.end());
      fn.m.excludes_args.insert(fn.m.excludes_args.end(),
                                d.excludes_args.begin(), d.excludes_args.end());
    }
    functions_.push_back(std::move(fn));
  }
}

std::string ProjectGraph::class_for_type(const std::string& type) const {
  if (type.empty()) return "";
  if (index_.classes.count(type) > 0) return type;
  // Nested classes are usually referenced by their tail name (WaveCtx,
  // Bucket); accept a unique suffix match.
  std::string found;
  for (const std::string& cls : index_.classes) {
    if (last_component(cls) == type) {
      if (!found.empty()) return "";  // ambiguous
      found = cls;
    }
  }
  return found;
}

std::string ProjectGraph::resolve_type(const std::string& name,
                                       const Function& fn) const {
  for (const Param& p : fn.m.params) {
    if (p.name == name) return p.type;
  }
  for (const LocalDecl& d : fn.m.locals) {
    if (d.name == name) return d.type;
  }
  // Member of the enclosing class (or an enclosing outer class).
  for (std::string cls = fn.m.class_name; !cls.empty();
       cls = outer_class(cls)) {
    if (const std::string* type = index_.member_type(cls, name)) return *type;
  }
  // Unique member name anywhere in the project.
  std::string found;
  for (const auto& [owner, members] : index_.members) {
    const auto mit = members.find(name);
    if (mit == members.end()) continue;
    if (!found.empty() && found != mit->second) return "";
    found = mit->second;
  }
  return found;
}

// The class denoted by the first `links` identifiers of `chain`, resolved
// left to right from `this`, a parameter, local or member type, or a static
// class name; "" once a link's type is not a known class. Identifiers that
// are not members (subscript indices, call arguments swept into the chain)
// are skipped.
std::string ProjectGraph::receiver_class(const std::vector<std::string>& chain,
                                         std::size_t links,
                                         const Function& fn) const {
  std::string cur;
  if (chain[0] == "this") {
    cur = fn.m.class_name;
  } else {
    cur = class_for_type(resolve_type(chain[0], fn));
    if (cur.empty()) cur = class_for_type(chain[0]);  // static access
  }
  for (std::size_t i = 1; !cur.empty() && i < links; ++i) {
    if (const std::string* type = index_.member_type(cur, chain[i])) {
      cur = class_for_type(*type);
    }
  }
  return cur;
}

std::string ProjectGraph::resolve_lock(const std::vector<std::string>& expr,
                                       const Function& fn) const {
  if (expr.empty()) return "";
  const std::string& member = expr.back();

  if (expr.size() == 1) {
    // Tier 1: a member of the enclosing class chain.
    for (std::string cls = fn.m.class_name; !cls.empty();
         cls = outer_class(cls)) {
      const std::string id = cls + "::" + member;
      if (mutexes_.count(id) > 0) return id;
    }
  } else {
    // Tier 2: resolve the receiver chain left to right.
    const std::string cur = receiver_class(expr, expr.size() - 1, fn);
    if (!cur.empty()) {
      const std::string id = cur + "::" + member;
      if (mutexes_.count(id) > 0) return id;
    }
  }

  // Tier 3: unique mutex with this member name among files sharing this
  // function's basename stem (trace.cpp resolves Ring::mu from trace.h).
  const auto sit = by_stem_.find(stem_of(fn.m.file));
  if (sit != by_stem_.end()) {
    std::string found;
    for (const std::string& id : sit->second) {
      if (mutexes_.at(id).member != member) continue;
      if (!found.empty()) {
        found.clear();
        break;
      }
      found = id;
    }
    if (!found.empty()) return found;
  }

  // Tier 4: the member name is unique project-wide.
  const auto bit = by_member_.find(member);
  if (bit != by_member_.end() && bit->second.size() == 1) {
    return bit->second.front();
  }
  return "";
}

void ProjectGraph::resolve_functions() {
  for (Function& fn : functions_) {
    for (const std::string& arg : fn.m.requires_args) {
      const std::string id = resolve_lock(split_chain(arg), fn);
      if (!id.empty()) fn.requires_locks.push_back(id);
    }
    fn.site_locks.reserve(fn.m.acquires.size());
    for (const AcquireSite& site : fn.m.acquires) {
      fn.site_locks.push_back(resolve_lock(site.expr, fn));
    }
    fn.call_targets.resize(fn.m.calls.size());
  }

  // Callee resolution needs all functions indexed first.
  for (Function& fn : functions_) {
    for (std::size_t c = 0; c < fn.m.calls.size(); ++c) {
      const CallSite& call = fn.m.calls[c];
      std::vector<std::size_t>& targets = fn.call_targets[c];
      if (!call.chain.empty()) {
        // Method call: resolve the receiver chain to a class.
        const std::string cur =
            receiver_class(call.chain, call.chain.size(), fn);
        if (!cur.empty()) {
          const auto qit = index_.by_qualified.find(cur + "::" + call.callee);
          if (qit != index_.by_qualified.end()) targets = qit->second;
        }
        continue;
      }
      // Bare call: enclosing class method, then free function, then a
      // project-unique name.
      for (std::string cls = fn.m.class_name; !cls.empty();
           cls = outer_class(cls)) {
        const auto qit = index_.by_qualified.find(cls + "::" + call.callee);
        if (qit != index_.by_qualified.end()) {
          targets = qit->second;
          break;
        }
      }
      if (!targets.empty()) continue;
      const auto fit = index_.by_qualified.find(call.callee);
      if (fit != index_.by_qualified.end()) {
        targets = fit->second;
        continue;
      }
      const auto nit = index_.by_name.find(call.callee);
      if (nit != index_.by_name.end() && nit->second.size() == 1) {
        targets = nit->second;
      }
    }
  }
}

void ProjectGraph::compute_transitive() {
  // Seeds: annotated blocking methods and bodies containing a blocking
  // primitive (cv wait — even on the guard's own lock, the thread still
  // parks — sleeps, joins).
  for (Function& fn : functions_) {
    const char* why =
        seed_reason(last_component(fn.m.class_name), fn.m.name);
    if (why != nullptr) {
      fn.blocking = true;
      fn.blocking_why = why;
    }
    for (const CallSite& call : fn.m.calls) {
      if (call.in_lambda) continue;
      if (is_blocking_primitive(call) && !fn.blocking) {
        fn.blocking = true;
        fn.blocking_why = "contains a " + call.callee + "() at " +
                          fn.m.file + ":" + std::to_string(call.line);
      }
    }
    fn.trans_blocking = fn.blocking;
    // Direct acquisitions: resolved guard sites outside lambdas, plus
    // whatever S3_EXCLUDES promises the function takes itself.
    for (std::size_t s = 0; s < fn.m.acquires.size(); ++s) {
      if (fn.m.acquires[s].in_lambda) continue;
      if (!fn.site_locks[s].empty()) fn.trans.insert(fn.site_locks[s]);
    }
    for (const std::string& arg : fn.m.excludes_args) {
      const std::string id = resolve_lock(split_chain(arg), fn);
      if (!id.empty()) fn.trans.insert(id);
    }
  }

  // Fixpoint over the call graph. Deferred (lambda) call sites are
  // excluded: a submitted task body runs on a pool thread, after the
  // submitting frame returned.
  bool changed = true;
  while (changed) {
    changed = false;
    for (Function& fn : functions_) {
      for (std::size_t c = 0; c < fn.m.calls.size(); ++c) {
        if (fn.m.calls[c].in_lambda) continue;
        for (const std::size_t target : fn.call_targets[c]) {
          const Function& g = functions_[target];
          if (g.trans_blocking && !fn.trans_blocking) {
            fn.trans_blocking = true;
            fn.blocking_why = "calls " + g.m.display +
                              (g.blocking_why.empty()
                                   ? std::string()
                                   : ", which " + g.blocking_why);
            changed = true;
          }
          for (const std::string& id : g.trans) {
            if (fn.trans.insert(id).second) changed = true;
          }
        }
      }
    }
  }
}

// Locks held at a site: the function's S3_REQUIRES locks plus the resolved
// locks of the guards lexically active there.
std::set<std::string> ProjectGraph::held_locks(
    const Function& fn, const std::vector<int>& guards) const {
  std::set<std::string> held(fn.requires_locks.begin(),
                             fn.requires_locks.end());
  for (const int h : guards) {
    if (!fn.site_locks[h].empty()) held.insert(fn.site_locks[h]);
  }
  return held;
}

void ProjectGraph::build_edges() {
  std::set<std::string> seen;  // "from\0to" dedup, first witness wins
  auto add_edge = [&](const std::string& from, const std::string& to,
                      const std::string& file, int line,
                      const std::string& via) {
    if (from == to) return;  // recursion / re-entry; the runtime validator
                             // owns same-lock double-acquisition
    if (!seen.insert(from + '\0' + to).second) return;
    edges_.push_back(Edge{from, to, file, line, via});
  };

  for (const Function& fn : functions_) {
    // Nested guard scopes: every lock held at an acquire site precedes the
    // acquired lock. S3_REQUIRES locks are held for the whole body.
    for (std::size_t s = 0; s < fn.m.acquires.size(); ++s) {
      const AcquireSite& site = fn.m.acquires[s];
      if (site.in_lambda || fn.site_locks[s].empty()) continue;
      const std::set<std::string> held = held_locks(fn, site.held);
      for (const std::string& h : held) {
        add_edge(h, fn.site_locks[s], fn.m.file, site.line, fn.m.display);
      }
    }
    // Calls made while holding locks: everything the callee can acquire
    // transitively is ordered after every held lock.
    for (std::size_t c = 0; c < fn.m.calls.size(); ++c) {
      const CallSite& call = fn.m.calls[c];
      if (call.in_lambda) continue;
      const std::set<std::string> held = held_locks(fn, call.held);
      if (held.empty()) continue;
      for (const std::size_t target : fn.call_targets[c]) {
        const Function& g = functions_[target];
        for (const std::string& to : g.trans) {
          if (held.count(to) > 0) continue;  // already held: re-entry is the
                                             // runtime validator's finding
          for (const std::string& h : held) {
            add_edge(h, to, fn.m.file, call.line,
                     fn.m.display + " -> " + g.m.display);
          }
        }
      }
    }
  }
}

void ProjectGraph::check_cycles(std::vector<Finding>* out) const {
  std::map<std::string, std::vector<const Edge*>> adj;
  for (const Edge& e : edges_) adj[e.from].push_back(&e);

  std::set<std::string> done;       // fully explored
  std::set<std::string> reported;   // canonical cycle keys
  std::vector<std::string> stack;
  std::set<std::string> on_stack;

  std::function<void(const std::string&)> dfs = [&](const std::string& node) {
    stack.push_back(node);
    on_stack.insert(node);
    const auto it = adj.find(node);
    if (it != adj.end()) {
      for (const Edge* e : it->second) {
        if (on_stack.count(e->to) > 0) {
          // Extract the cycle from the stack.
          std::vector<std::string> cycle;
          bool in = false;
          for (const std::string& n : stack) {
            if (n == e->to) in = true;
            if (in) cycle.push_back(n);
          }
          // Canonicalize: rotate the smallest node to the front.
          const auto min_it = std::min_element(cycle.begin(), cycle.end());
          std::rotate(cycle.begin(), min_it, cycle.end());
          std::string key;
          for (const std::string& n : cycle) key += n + ">";
          if (!reported.insert(key).second) continue;

          std::ostringstream msg;
          msg << "lock-order cycle: ";
          const Edge* first_edge = nullptr;
          for (std::size_t i = 0; i < cycle.size(); ++i) {
            const std::string& from = cycle[i];
            const std::string& to = cycle[(i + 1) % cycle.size()];
            const Edge* step = nullptr;
            for (const Edge& cand : edges_) {
              if (cand.from == from && cand.to == to) {
                step = &cand;
                break;
              }
            }
            if (first_edge == nullptr) first_edge = step;
            msg << from << " -> ";
            if (i + 1 == cycle.size()) msg << to;
            if (step != nullptr) {
              msg << " [" << step->via << " at " << step->file << ":"
                  << step->line << "] ";
            }
          }
          Finding f;
          f.rule = "lock-cycle";
          f.file = first_edge != nullptr ? first_edge->file : "";
          f.line = first_edge != nullptr ? first_edge->line : 0;
          f.message = msg.str();
          out->push_back(std::move(f));
          continue;
        }
        if (done.count(e->to) == 0) dfs(e->to);
      }
    }
    on_stack.erase(node);
    stack.pop_back();
    done.insert(node);
  };

  for (const auto& [node, edges] : adj) {
    (void)edges;
    if (done.count(node) == 0) dfs(node);
  }
}

void ProjectGraph::check_rank_order(std::vector<Finding>* out) const {
  for (const Edge& e : edges_) {
    const auto from_it = mutexes_.find(e.from);
    const auto to_it = mutexes_.find(e.to);
    if (from_it == mutexes_.end() || to_it == mutexes_.end()) continue;
    const auto from_rank = ranks_.find(from_it->second.rank);
    const auto to_rank = ranks_.find(to_it->second.rank);
    if (from_rank == ranks_.end() || to_rank == ranks_.end()) continue;
    if (from_rank->second < to_rank->second) continue;
    std::ostringstream msg;
    msg << "rank-order violation: " << e.to << " (" << to_it->second.rank
        << " = " << to_rank->second << ") acquired while holding " << e.from
        << " (" << from_it->second.rank << " = " << from_rank->second
        << ") in " << e.via << "; ranks must strictly increase";
    out->push_back(Finding{"rank-order", e.file, e.line, msg.str()});
  }
}

void ProjectGraph::check_unranked(std::vector<Finding>* out) const {
  for (const auto& [id, m] : mutexes_) {
    if (!m.rank.empty() && ranks_.count(m.rank) > 0) continue;
    std::ostringstream msg;
    if (m.rank.empty()) {
      msg << "annotated mutex " << id << " has no LockRank; every "
          << "AnnotatedMutex must name its place in the hierarchy "
          << "(src/common/lock_rank.h)";
    } else {
      msg << "annotated mutex " << id << " uses unknown rank " << m.rank;
    }
    out->push_back(Finding{"unranked-mutex", m.file, m.line, msg.str()});
  }
}

void ProjectGraph::check_blocking(std::vector<Finding>* out) const {
  for (const Function& fn : functions_) {
    for (std::size_t c = 0; c < fn.m.calls.size(); ++c) {
      const CallSite& call = fn.m.calls[c];
      if (call.in_lambda) continue;
      std::set<std::string> held = held_locks(fn, call.held);
      // A cv wait through its own guard releases that lock while parked;
      // only *other* held locks make it a violation.
      if (call.wait_guard >= 0) {
        held.erase(fn.site_locks[call.wait_guard]);
        if (held.empty()) continue;
        std::ostringstream msg;
        msg << "condition wait in " << fn.m.display
            << " releases its own lock but still holds";
        for (const std::string& h : held) msg << " " << h;
        out->push_back(
            Finding{"blocking-under-lock", fn.m.file, call.line, msg.str()});
        continue;
      }
      if (held.empty()) continue;

      std::string why;
      if (is_blocking_primitive(call)) {
        why = call.callee + "() blocks the calling thread";
      } else {
        for (const std::size_t target : fn.call_targets[c]) {
          const Function& g = functions_[target];
          if (g.trans_blocking) {
            why = g.m.display +
                  (g.blocking_why.empty() ? std::string(" blocks")
                                          : " " + g.blocking_why);
            break;
          }
        }
        if (why.empty() && fn.call_targets[c].empty() &&
            distinctive_blocking_name(call.callee) && !call.chain.empty()) {
          why = call.callee + "() hands work to a thread pool";
        }
      }
      if (why.empty()) continue;
      std::ostringstream msg;
      msg << "blocking call in " << fn.m.display << " while holding";
      for (const std::string& h : held) msg << " " << h;
      msg << ": " << why;
      out->push_back(
          Finding{"blocking-under-lock", fn.m.file, call.line, msg.str()});
    }
  }
}

std::vector<Finding> ProjectGraph::analyze(
    const std::set<std::string>& rules) const {
  std::vector<Finding> out;
  if (rules.count("lock-cycle") > 0) check_cycles(&out);
  if (rules.count("rank-order") > 0) check_rank_order(&out);
  if (rules.count("unranked-mutex") > 0) check_unranked(&out);
  if (rules.count("blocking-under-lock") > 0) check_blocking(&out);
  return out;
}

void ProjectGraph::dump(std::ostream& os) const {
  os << "# lock-acquisition graph: " << mutexes_.size() << " locks, "
     << edges_.size() << " edges\n";
  for (const auto& [id, m] : mutexes_) {
    os << "lock " << id;
    if (!m.rank.empty()) {
      os << " rank=" << m.rank;
      const auto it = ranks_.find(m.rank);
      if (it != ranks_.end()) os << "(" << it->second << ")";
    }
    if (m.shared) os << " shared";
    os << "  # " << m.file << ":" << m.line << "\n";
  }
  std::vector<const Edge*> sorted;
  for (const Edge& e : edges_) sorted.push_back(&e);
  std::sort(sorted.begin(), sorted.end(), [](const Edge* a, const Edge* b) {
    return std::tie(a->from, a->to) < std::tie(b->from, b->to);
  });
  for (const Edge* e : sorted) {
    os << e->from << " -> " << e->to << "  # " << e->via << " at " << e->file
       << ":" << e->line << "\n";
  }
}

}  // namespace s3lockcheck
