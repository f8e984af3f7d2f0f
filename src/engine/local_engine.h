// LocalEngine — a real, multi-threaded MapReduce execution engine over the
// in-memory DFS. One worker thread per map slot and per reduce slot. The
// engine executes *batches*: a set of blocks scanned once for a set of member
// jobs. A FIFO job is one batch covering the whole file with one member; an
// MRShare group is one whole-file batch with n members; an S3 merged sub-job
// is a one-segment batch with the currently-aligned members.
//
// Contract for jobs executed across multiple batches (S3 sub-jobs): the
// reducer must be algebraic — reducing the concatenation of partial outputs
// must equal reducing the original data (true for counts, sums, min/max,
// selection; see paper §V-G on output collection).
//
// Failure domains (DESIGN.md §12): run_batch() survives injected node
// deaths (re-dispatch on a live replica), hung tasks (watchdog + modeled
// exponential backoff) and transient errors via the per-task retry loop, and
// quarantines poison members — a job whose own map/reduce fn keeps failing
// is retired with its error status and the shared scan re-runs for the
// surviving members instead of failing them all.
#pragma once

#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/pinned_thread_pool.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "common/types.h"
#include "dfs/block_source.h"
#include "dfs/block_store.h"
#include "dfs/dfs_namespace.h"
#include "dfs/failover.h"
#include "engine/arena_pool.h"
#include "engine/counters.h"
#include "engine/fault.h"
#include "engine/job.h"
#include "engine/map_runner.h"
#include "engine/reduce_runner.h"
#include "engine/shuffle.h"

namespace s3::engine {

struct BatchExec {
  BatchId id;
  std::vector<BlockId> blocks;  // scan scope (a segment, or a whole file)
  std::vector<JobId> jobs;      // member jobs sharing the scan
};

struct LocalEngineOptions {
  std::size_t map_workers = 4;
  std::size_t reduce_workers = 2;
  // Pin each worker thread to its own core via sched_setaffinity (map
  // workers to cores [0, map_workers), reduce workers after them). Degrades
  // to a no-op on platforms without affinity support.
  bool pin_cores = false;
  // Run the Metis-style prefault pre-phases: before the timed map wave each
  // map worker touches its assigned input blocks' pages and warms its arena
  // shard; before the reduce wave each reduce worker warms its shard. Off by
  // default (as in Metis) — with a generated block source the input touch
  // synthesizes each block an extra time.
  bool prefault = false;
  // Paper §V-G extension: fold partial outputs into a running aggregate
  // after every batch instead of keeping all partials until finalize.
  bool incremental_merge = false;
  // Task-level fault tolerance: attempts per task before the batch fails.
  int max_task_attempts = 3;
  // Fault injection (transients, hangs, node deaths, poison members), called
  // concurrently from worker threads before every task attempt.
  FaultInjector fault_injector;  // nullptr = no injected faults
  // Shared dead-node / corrupt-replica registry. When set, injected node
  // deaths are recorded here (so a FailoverBlockSource built on the same
  // registry stops serving from the dead node) and map dispatch skips dead
  // replicas. When null the engine keeps a private dead-node set.
  dfs::ReplicaHealth* replica_health = nullptr;
  // Record representation + grouping algorithm (see shuffle.h). kLegacySort
  // is the differential-testing oracle, not a production choice.
  DataPath data_path = DataPath::kFlatBatch;
};

// What run_batch recovered from (empty vectors = a clean batch).
struct BatchOutcome {
  struct QuarantinedJob {
    JobId job;
    Status reason;  // default-constructed OK until the quarantine fires
  };
  // Poison members retired from the batch; their engine state is released
  // and they must not be finalized.
  std::vector<QuarantinedJob> quarantined;
  // Nodes first observed dead during this batch (deduplicated).
  std::vector<NodeId> nodes_died;
  // Times the shared scan re-ran for the survivors after a quarantine.
  int reruns = 0;
};

class LocalEngine {
 public:
  // Reads payloads from a materialized block store.
  LocalEngine(const dfs::DfsNamespace& ns, const dfs::BlockStore& store,
              LocalEngineOptions options = {});
  // Reads payloads from any BlockSource (e.g. GeneratedBlockSource, which
  // synthesizes blocks on demand so inputs need not fit in memory; or a
  // FailoverBlockSource for replica failover). The source must outlive the
  // engine.
  LocalEngine(const dfs::DfsNamespace& ns, const dfs::BlockSource& source,
              LocalEngineOptions options = {});
  ~LocalEngine();

  LocalEngine(const LocalEngine&) = delete;
  LocalEngine& operator=(const LocalEngine&) = delete;

  // Registers a job before any batch that includes it.
  [[nodiscard]] Status register_job(JobSpec spec);

  // Executes one batch synchronously: a parallel map wave over all blocks
  // (each block read once for all member jobs), then a parallel reduce wave
  // per member job. Recovers from injected faults (see BatchOutcome);
  // returns an error only when the batch as a whole cannot make progress
  // (invalid options/batch, exhausted non-attributable retries, data loss).
  [[nodiscard]] StatusOr<BatchOutcome> run_batch(const BatchExec& batch);

  // Merges a completed job's partial outputs into its final result and
  // releases its engine state. Must be called after the job's last batch.
  [[nodiscard]] StatusOr<JobResult> finalize_job(JobId job);

  // The returned reference escapes mu_; callers read it only between waves
  // (no batch in flight for the job), which the engine's drivers guarantee.
  [[nodiscard]] const JobCounters& counters(JobId job) const S3_EXCLUDES(mu_);
  [[nodiscard]] ScanCounters scan_counters() const S3_EXCLUDES(mu_);
  [[nodiscard]] std::size_t registered_jobs() const S3_EXCLUDES(mu_);
  // Task attempts that failed and were retried (fault-tolerance telemetry).
  [[nodiscard]] std::uint64_t failed_attempts() const S3_EXCLUDES(mu_);
  // Attempts the hung-task watchdog abandoned.
  [[nodiscard]] std::uint64_t hung_attempts() const S3_EXCLUDES(mu_);
  [[nodiscard]] bool node_is_dead(NodeId node) const S3_EXCLUDES(mu_);

 private:
  struct JobState {
    JobSpec spec;
    JobCounters counters;
    std::vector<KeyValue> partials;  // accumulated reduce outputs
    std::uint64_t batches_run = 0;
  };

  // Shared recovery bookkeeping for one map+reduce wave, written by worker
  // threads.
  struct WaveCtx {
    AnnotatedMutex mu{LockRank::kEngineWaveCtx};
    std::vector<NodeId> died S3_GUARDED_BY(mu);
    // First member whose attempts exhausted on a poison fault (quarantine
    // candidate) and the status to retire it with.
    JobId poison S3_GUARDED_BY(mu);
    Status poison_status S3_GUARDED_BY(mu);  // OK until a quarantine fires
  };

  // One full map+reduce pass over the batch for `specs`; commits member
  // state only on success, so a failed wave can be re-run.
  [[nodiscard]] Status run_wave(const BatchExec& batch,
                                const std::vector<const JobSpec*>& specs,
                                WaveCtx& ctx);

  // One task's attempt loop, shared by map and reduce tasks: before each
  // attempt decide_fault may inject a failure; otherwise `run` executes the
  // task. Failed attempts are journaled and retried up to max_task_attempts;
  // a kDataLoss failure is permanent. A map attempt whose node (ident.node)
  // died is re-dispatched on a live replica. A poison member whose attempts
  // exhaust is recorded in ctx as the quarantine candidate.
  template <typename Outcome, typename Run>
  [[nodiscard]] StatusOr<Outcome> run_attempts(
      TaskAttempt ident, const std::vector<const JobSpec*>& specs,
      WaveCtx& ctx, const Run& run) S3_EXCLUDES(mu_);

  // Metis-style prefault pre-phases (options_.prefault): fault in the input
  // block pages and the arena shards from the workers that will use them, so
  // the timed waves start on resident, locally-placed pages. Best-effort —
  // fetch errors are left for the map wave to surface and retry.
  void run_map_prefault(const BatchExec& batch);
  void run_reduce_prefault();

  // Publishes pool and arena telemetry (steals, pinned workers, recycle
  // hit rates) to the metrics registry.
  void export_locality_metrics() const;

  // Decides what (if anything) goes wrong with one attempt; poison faults
  // naming a non-member are dropped.
  [[nodiscard]] Fault decide_fault(
      const TaskAttempt& attempt,
      const std::vector<const JobSpec*>& specs) const;
  // Counts the failure, emits kTaskHung / kTaskAttemptFailed / kTaskRetried.
  void note_attempt_failure(const TaskAttempt& attempt, FaultKind kind,
                            const std::string& cause, bool will_retry)
      S3_EXCLUDES(mu_);
  // Marks a node dead (shared registry or private set) and records first
  // observations in ctx, which run_batch reports as
  // BatchOutcome::nodes_died.
  void record_node_death(NodeId node, WaveCtx& ctx) S3_EXCLUDES(mu_);
  // First live replica of the block (invalid without replica metadata).
  [[nodiscard]] NodeId pick_replica(BlockId block) const S3_EXCLUDES(mu_);

  // Re-reduces `records` with the job's reducer (used by finalize and by
  // incremental merging).
  [[nodiscard]] std::vector<KeyValue> re_reduce(const JobSpec& spec,
                                                std::vector<KeyValue> records);

  JobState& state(JobId job) S3_REQUIRES(mu_);
  [[nodiscard]] const JobState& state(JobId job) const S3_REQUIRES(mu_);

  const dfs::DfsNamespace* ns_;
  // Set when constructed from a BlockStore (keeps the adapter alive).
  std::unique_ptr<dfs::StoredBlocks> owned_adapter_;
  const dfs::BlockSource* source_;
  LocalEngineOptions options_;

  ShuffleStore shuffle_;
  MapRunner map_runner_;
  ReduceRunner reduce_runner_;
  std::unique_ptr<PinnedThreadPool> map_pool_;
  std::unique_ptr<PinnedThreadPool> reduce_pool_;
  // Recycled KVBatch arenas, one shard per worker: shards [0, map_workers)
  // belong to map workers, the rest to reduce workers.
  std::unique_ptr<BatchArenaPool> arena_pool_;

  // Held while register_job() registers with the ShuffleStore (so it ranks
  // below the shuffle registry), but never while calling into the pools.
  mutable AnnotatedMutex mu_{LockRank::kEngineState};
  std::unordered_map<JobId, JobState> jobs_ S3_GUARDED_BY(mu_);
  ScanCounters scan_counters_ S3_GUARDED_BY(mu_);
  IdGenerator<TaskId> task_ids_ S3_GUARDED_BY(mu_);
  std::uint64_t failed_attempts_ S3_GUARDED_BY(mu_) = 0;
  std::uint64_t hung_attempts_ S3_GUARDED_BY(mu_) = 0;
  // Private dead-node set, used when options_.replica_health is null.
  std::unordered_set<NodeId> dead_nodes_ S3_GUARDED_BY(mu_);
};

}  // namespace s3::engine
