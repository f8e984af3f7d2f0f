// Whole-project lock-acquisition graph for s3lockcheck.
//
// Merges per-file models (tools/s3lockcheck/model.h) into one project view,
// resolves lock expressions and call receivers to canonical lock / function
// identities, computes each function's transitive lock-acquisition set, and
// builds the directed held -> acquired graph. Four rule families run on top:
//
//   lock-cycle          a cycle in the acquisition graph (deadlock potential)
//   rank-order          an edge that contradicts the declared LockRank values
//   unranked-mutex      an AnnotatedMutex member without an explicit rank
//   blocking-under-lock a blocking operation (cv wait, pool submit/wait_idle,
//                       BlockStore I/O, joins, sleeps) reachable while a lock
//                       is held — the Algorithm 1 stall pattern the paper's
//                       shared-scan scheduler exists to avoid
//
// Resolution is deliberately tiered and conservative: a site that cannot be
// resolved to a known lock or function is dropped (no guessing), because a
// whole-tree gating check lives or dies on its false-positive rate.
#pragma once

#include <map>
#include <ostream>
#include <set>
#include <string>
#include <vector>

#include "s3lint/analyzer.h"
#include "s3lint/project_index.h"
#include "s3lockcheck/model.h"

namespace s3lockcheck {

using s3lint::Finding;

// One directed edge: `from` was held when `to` was (or could transitively
// be) acquired. The witness records where that order was established.
struct Edge {
  std::string from;
  std::string to;
  std::string file;    // witness location
  int line = 0;
  std::string via;     // human-readable path, e.g. "LocalEngine::run_wave"
};

class ProjectGraph {
 public:
  explicit ProjectGraph(std::vector<FileModel> files);
  // Out of line: functions_ holds the private Function type, which is
  // incomplete for header clients.
  ~ProjectGraph();

  // Runs every rule in `rules`; the driver sorts the findings.
  std::vector<Finding> analyze(const std::set<std::string>& rules) const;

  // Debug dump of the merged graph (--graph): one edge per line.
  void dump(std::ostream& os) const;

 private:
  struct Function;  // merged function (decls + defs across files)

  void build_indexes();
  void resolve_functions();
  void compute_transitive();
  void build_edges();
  std::set<std::string> held_locks(const Function& fn,
                                   const std::vector<int>& guards) const;

  // Lock-expression resolution (tiers documented in graph.cpp).
  std::string resolve_lock(const std::vector<std::string>& expr,
                           const Function& fn) const;
  std::string resolve_type(const std::string& name, const Function& fn) const;
  std::string receiver_class(const std::vector<std::string>& chain,
                             std::size_t links, const Function& fn) const;
  std::string class_for_type(const std::string& type) const;

  void check_cycles(std::vector<Finding>* out) const;
  void check_rank_order(std::vector<Finding>* out) const;
  void check_unranked(std::vector<Finding>* out) const;
  void check_blocking(std::vector<Finding>* out) const;

  std::vector<FileModel> files_;
  // Merged member types, known classes, and functions by qualified and bare
  // name; functions_[k] is index_.functions[k].
  const s3lint::ProjectIndex index_;

  std::map<std::string, MutexDecl> mutexes_;       // id -> decl
  std::map<std::string, int> ranks_;               // enumerator -> value
  // mutex member name -> ids having that member ("mu" -> {...::mu, ...}).
  std::map<std::string, std::vector<std::string>> by_member_;
  // file stem ("trace") -> mutex ids declared in files with that stem.
  std::map<std::string, std::vector<std::string>> by_stem_;

  std::vector<Function> functions_;
  std::vector<Edge> edges_;
};

}  // namespace s3lockcheck
