// Reduce task execution: takes one (job, partition) run set from the shuffle
// store, k-way merges the sorted runs (or globally sorts, on the legacy
// oracle path), runs the user reducer per key group, and returns the
// partition's output as one key-sorted KVBatch run. The engine keeps that
// run, one per batch, until finalize folds a partition's runs with
// fold_runs() below.
#pragma once

#include "common/pinned_thread_pool.h"
#include "common/status.h"
#include "common/types.h"
#include "engine/arena_pool.h"
#include "engine/counters.h"
#include "engine/job.h"
#include "engine/shuffle.h"

namespace s3::engine {

struct ReduceTaskSpec {
  TaskId id;
  const JobSpec* job = nullptr;
  std::uint32_t partition = 0;
};

struct ReduceTaskOutcome {
  JobCounters counters;
  KVBatch output;  // the partition's output run, sorted_by_key()
};

// Folds one partition's runs (each sorted by key, in batch order) into one
// key-sorted run: k-way merges them and re-applies the job's reducer to
// every key group, on the calling thread. A key's values reach the reducer
// in run order, so the fold is deterministic for a given run order.
[[nodiscard]] KVBatch fold_runs(const JobSpec& job,
                                const std::vector<KVBatch>& runs);

class ReduceRunner {
 public:
  explicit ReduceRunner(ShuffleStore& shuffle,
                        DataPath data_path = DataPath::kFlatBatch);

  // Runs the task synchronously on the calling thread. Thread-safe across
  // distinct (job, partition) pairs.
  [[nodiscard]] StatusOr<ReduceTaskOutcome> run(
      const ReduceTaskSpec& task) const;

  // Optional locality wiring (see MapRunner::set_locality): consumed shuffle
  // runs are released to `arenas` under the executing worker's shard so
  // their pages get recycled instead of freed cold.
  void set_locality(BatchArenaPool* arenas, const PinnedThreadPool* pool,
                    std::size_t shard_offset) {
    arenas_ = arenas;
    pool_ = pool;
    shard_offset_ = shard_offset;
  }

 private:
  ShuffleStore* shuffle_;
  DataPath data_path_;
  BatchArenaPool* arenas_ = nullptr;
  const PinnedThreadPool* pool_ = nullptr;
  std::size_t shard_offset_ = 0;
};

}  // namespace s3::engine
