// Fault-injection vocabulary for the real engine's failure domains. A
// FaultInjector is consulted before every task attempt and decides what (if
// anything) goes wrong with it. All injected faults model loss *before* any
// side effect (the attempt never published map output), which is what makes
// re-dispatch idempotent.
//
// Fault kinds and the recovery each exercises:
//   kTransient — the attempt fails once (lost container, flaky RPC); the
//                retry loop re-runs it, up to max_task_attempts.
//   kHang      — the attempt wedges; the hung-task watchdog abandons it
//                after kHungTaskTimeoutS (local_engine.cpp) and re-attempts
//                with exponential backoff. (The engine models the timeout and backoff as
//                bookkeeping in the journal — tests must never sleep.)
//   kNodeDeath — the node executing the attempt crashes, taking the attempt
//                with it; the engine marks the node dead (ReplicaHealth +
//                BatchOutcome::nodes_died) and re-dispatches on a replica.
//   kPoison    — the named member job's map/reduce fn itself fails. When its
//                attempts exhaust, the engine quarantines *that job* and
//                re-runs the shared scan for the surviving members.
//
// Decisions must be deterministic in the attempt's stable identity (block /
// job / partition / attempt number), never in call order: worker threads
// interleave nondeterministically.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "common/types.h"

namespace s3::engine {

enum class FaultKind {
  kNone,
  kTransient,
  kHang,
  kNodeDeath,
  kPoison,
};

struct Fault {
  FaultKind kind = FaultKind::kNone;
  // kNodeDeath: the node that dies (defaults to the attempt's node).
  NodeId dead_node;
  // kPoison: the member whose function fails. A poison fault naming a job
  // that is not a member of the current wave is ignored.
  JobId poison_job;
  std::string detail;  // free-form cause, lands in the journal
};

// Stable identity of one task attempt, the injector's decision key.
struct TaskAttempt {
  TaskId task;
  int attempt = 1;
  bool is_map = true;
  // Map attempts: the block being scanned and the node the attempt was
  // dispatched to (the first live replica; invalid without replica
  // metadata). Reduce attempts: block/node are invalid.
  BlockId block;
  NodeId node;
  // Reduce attempts: the member job and partition. Invalid for (merged) map
  // attempts, which serve every member at once.
  JobId job;
  std::uint32_t partition = 0;
};

using FaultInjector = std::function<Fault(const TaskAttempt&)>;

}  // namespace s3::engine
