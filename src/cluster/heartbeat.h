// Periodic slot checking (paper §IV-D-1): every node reports job type, task
// start time and progress; the tracker estimates completion time and flags
// nodes whose estimated task duration exceeds `slow_threshold` times the
// cluster median. The Job Queue Manager uses the flagged set to exclude slow
// nodes from the next wave and recompute segment size.
//
// Failure-domain extension: heartbeat-timeout detection. A node that stops
// reporting transitions healthy -> suspect (after `suspect_timeout` of
// silence) -> dead (after `dead_timeout`). Suspect is advisory — the node
// keeps its slots; dead is permanent — sweep() reports the transition once
// and the node's reports are ignored from then on. Both timeouts default to
// "never", so the original slow-node-only behavior is unchanged unless a
// caller opts in.
//
// Thread safety: all public methods are safe to call concurrently (a caller
// may report from one thread while the scheduler sweeps from another), so
// the tracker serializes on an internal kClusterHeartbeat-ranked mutex (a
// leaf: no lock is acquired under it).
#pragma once

#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/thread_annotations.h"
#include "common/types.h"

namespace s3::cluster {

struct ProgressReport {
  NodeId node;
  TaskId task;
  SimTime task_start = 0.0;
  double progress = 0.0;  // fraction of the task done, in [0, 1]
  SimTime report_time = 0.0;
};

struct NodeEstimate {
  NodeId node;
  // Estimated total duration of the task currently running on the node.
  SimTime estimated_duration = 0.0;
  // Estimated absolute completion time.
  SimTime estimated_completion = 0.0;
};

enum class NodeHealth { kHealthy, kSuspect, kDead };

// Newly-transitioned nodes from one sweep() call, sorted by id so the caller
// (and the journal) see a deterministic order.
struct HealthTransitions {
  std::vector<NodeId> suspected;
  std::vector<NodeId> died;
};

class HeartbeatTracker {
 public:
  // `slow_threshold`: a node is slow if its estimated task duration exceeds
  // threshold * median estimated duration across reporting nodes.
  // `suspect_timeout` / `dead_timeout`: heartbeat silence (seconds) before a
  // node is suspected / declared dead; kTimeNever disables the transition.
  explicit HeartbeatTracker(double slow_threshold = 1.5,
                            SimTime suspect_timeout = kTimeNever,
                            SimTime dead_timeout = kTimeNever);

  // Ignored for dead nodes (death is permanent); clears suspicion otherwise.
  void report(const ProgressReport& report);

  // Forgets the node's current task (task finished or node idle).
  void clear(NodeId node);

  // Declares a node dead out-of-band (the engine observed the crash before
  // any heartbeat timeout could). Idempotent.
  void mark_dead(NodeId node);

  // Applies the timeouts against `now`: returns the nodes that newly became
  // suspect or dead since the last sweep. Dead nodes stop reporting forever.
  HealthTransitions sweep(SimTime now);

  [[nodiscard]] NodeHealth health(NodeId node) const;
  [[nodiscard]] std::vector<NodeId> dead_nodes() const;  // sorted

  [[nodiscard]] std::optional<NodeEstimate> estimate(NodeId node) const;

  // Nodes currently flagged slow relative to the median (dead nodes never
  // appear — they have no live report to estimate from).
  [[nodiscard]] std::vector<NodeId> slow_nodes() const;

  [[nodiscard]] std::size_t num_reporting() const S3_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return latest_.size();
  }
  [[nodiscard]] double slow_threshold() const { return slow_threshold_; }
  [[nodiscard]] SimTime suspect_timeout() const { return suspect_timeout_; }
  [[nodiscard]] SimTime dead_timeout() const { return dead_timeout_; }

 private:
  [[nodiscard]] static SimTime estimate_duration(const ProgressReport& r);
  // sweep() kills nodes it timed out while already holding mu_.
  void mark_dead_locked(NodeId node) S3_REQUIRES(mu_);

  // Configuration, immutable after construction (read without mu_).
  double slow_threshold_;
  SimTime suspect_timeout_;
  SimTime dead_timeout_;

  mutable AnnotatedMutex mu_{LockRank::kClusterHeartbeat};
  std::unordered_map<NodeId, ProgressReport> latest_ S3_GUARDED_BY(mu_);
  std::unordered_set<NodeId> suspect_ S3_GUARDED_BY(mu_);
  std::unordered_set<NodeId> dead_ S3_GUARDED_BY(mu_);
};

}  // namespace s3::cluster
