// Whole-project view-lifetime analysis over the per-file models. Merges
// class-member tables across translation units, computes conservative
// function summaries to a fixpoint (returns a KVBatch / returns a view of a
// batch parameter / invalidates a by-reference batch parameter), then sweeps
// every function body in lexical event order, tracking which named views are
// bound to which arena and which arenas have been invalidated since.
//
// Rules:
//   dangling-view       a view is used after its arena was cleared,
//                       prefaulted, moved from, reassigned, or invalidated
//                       through a callee
//   append-after-read   a view is used after a later append() to the same
//                       arena (growth may reallocate: the canonical S3
//                       hot-path hazard)
//   view-outlives-arena a view of a function-local batch escapes: returned,
//                       or stored into a class member / container member
//   cross-thread-view   a view bound outside a lambda is used inside a
//                       lambda submitted to a worker pool (the arena may be
//                       gone by the time the task runs)
//
// Resolution is deliberately drop-don't-guess: a receiver chain that cannot
// be traced to a KVBatch local, parameter, or class member produces no
// events and no findings. The runtime validator (common/view_checks.h)
// backstops what this layer cannot see.
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "s3lint/analyzer.h"
#include "s3lint/project_index.h"
#include "s3viewcheck/model.h"

namespace s3viewcheck {

using s3lint::Finding;

class ProjectGraph {
 public:
  explicit ProjectGraph(std::vector<FileModel> files);

  // Runs the requested rules over every function; the driver sorts and
  // deduplicates the findings.
  std::vector<Finding> analyze(const std::set<std::string>& rules) const;

  // Human-readable dump of the merged model and summaries (--graph).
  void dump(std::ostream& os) const;

 private:
  struct Summary {
    bool returns_batch = false;
    std::set<std::size_t> view_of_param;     // returns a view of param k
    std::set<std::size_t> invalidates_param; // mutates param k's arena
  };

  void compute_summaries();
  const Summary* summary_for(const std::string& callee) const;
  void analyze_function(const FunctionModel& fn,
                        const std::set<std::string>& rules,
                        std::vector<Finding>* out) const;

  std::vector<FileModel> files_;
  // Merged member types and the names defined exactly once.
  const s3lint::ProjectIndex index_;
  // bare function name -> summary; only names defined exactly once project-
  // wide are summarized (ambiguous names resolve to nothing, not a guess).
  std::map<std::string, Summary> summaries_;
};

}  // namespace s3viewcheck
