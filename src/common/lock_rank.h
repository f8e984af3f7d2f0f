// Lock-rank registry: the runtime half of the deadlock defense (the static
// half is tools/s3lockcheck, which derives the same ordering constraints from
// source and cross-checks them against these declared ranks).
//
// Every AnnotatedMutex/AnnotatedSharedMutex in src/ declares one rank from
// the hierarchy below at construction. The rule is strict monotonicity: a
// thread may only acquire a mutex whose rank is strictly greater than the
// rank of every mutex it already holds. Two mutexes with the same rank must
// therefore never be held together (the shards of one pool, the per-worker
// queues, the shuffle buckets — all taken one at a time by construction).
//
// Ranks ascend from scheduler entry points toward leaf subsystems, matching
// the acquisition orders that actually occur (DESIGN.md §14 documents every
// mutex, what it guards, and which Algorithm 1 / failure-path code runs
// under it):
//
//   sched (JobQueueManager) → wave collect (map, then reduce) → engine
//   state → wave recovery ctx → shuffle registry → shuffle bucket → arena
//   shard → pool coordination → pool queues → DFS → cluster health →
//   observability (journal, metrics, trace sink, trace ring) → logging.
//
// The wave-collect-before-engine-state order comes from run_wave's commit
// section, which holds MapCollect::mu, ReduceCollect::mu, and mu_ together
// while folding wave outputs into member job state.
//
// Validation is active when S3_LOCK_RANK_CHECKS is 1: the build defines it
// for every CMAKE_BUILD_TYPE except Release (so the default RelWithDebInfo
// tier-1 build and all sanitizer builds validate every acquisition); without
// a build-system definition it follows NDEBUG. In Release the note_* calls
// are empty inline functions and the validator compiles out entirely.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#ifndef S3_LOCK_RANK_CHECKS
#ifdef NDEBUG
#define S3_LOCK_RANK_CHECKS 0
#else
#define S3_LOCK_RANK_CHECKS 1
#endif
#endif

namespace s3 {

// Numeric gaps leave room to slot new subsystems in without renumbering.
// Lower rank = acquired first (outermost). kUnranked mutexes (the default
// for AnnotatedMutex{}) are exempt from validation; s3lockcheck's
// unranked-mutex rule keeps src/ free of them.
enum class LockRank : std::uint16_t {
  kUnranked = 0,
  // Submission-service entry path (src/service/): tenant registry before the
  // per-tenant token buckets it indexes; the admission queue lock comes last
  // and is never held while calling into the scheduler. These rank below the
  // scheduler because the service is the outermost layer of the system.
  kServiceRegistry = 2,
  kServiceTenant = 4,
  kServiceQueue = 6,
  // Scheduler entry: Algorithm 1's admit/form_batch critical section.
  kSchedJobQueue = 10,
  // JobQueueManager admission shards: admit() takes exactly one shard lock
  // (never two — shards share a rank), and form_batch's fold acquires shards
  // one at a time while holding kSchedJobQueue, so they rank just above it.
  kSchedAdmitShard = 15,
  // Per-wave output collection. run_wave's commit section nests
  // MapCollect::mu → ReduceCollect::mu → LocalEngine::mu_, so the two
  // collect locks rank below engine state and below each other.
  kEngineMapCollect = 20,
  kEngineReduceCollect = 23,
  // Engine job-state map (LocalEngine::mu_). Held while registering the job
  // with the shuffle registry, so it must rank below kShuffleRegistry.
  kEngineState = 26,
  // Per-wave recovery bookkeeping (LocalEngine::WaveCtx::mu).
  kEngineWaveCtx = 30,
  // Shuffle registry (ShuffleStore::registry_mu_); documented order is
  // registry before bucket, never the reverse.
  kShuffleRegistry = 40,
  kShuffleBucket = 45,
  // Arena shards are taken one at a time (acquire scans with per-shard
  // scope), so a single rank suffices.
  kArenaShard = 50,
  // Pool coordination (PinnedThreadPool::mu_) vs the task queues
  // (BlockingQueue::mu_, WorkerQueue::mu): the pool never nests them, but
  // coordination logically wraps queue access.
  kPoolCoordination = 60,
  kPoolQueue = 65,
  kDfsBlockStore = 70,
  kDfsReplicaHealth = 75,
  kClusterHeartbeat = 80,
  // View-check generation-cell pool (common/view_checks.cpp). A leaf taken
  // by KVBatch construction/destruction, which runs inside shuffle-bucket
  // and arena-shard critical sections when vectors of batches grow.
  kViewGenPool = 85,
  // Observability leaves: code under any lock above may journal, bump
  // metrics, trace, or log — never the other way around.
  kObsJournal = 90,
  // Snapshot-exporter coordination (obs/prometheus.cpp): held only around
  // its interval wait, below kObsMetrics because the export itself reads
  // the registry.
  kObsSnapshot = 93,
  kObsMetrics = 95,
  kObsTraceSink = 100,
  kObsTraceRing = 105,
  kLogging = 110,
};

// Human-readable enumerator name for abort messages ("kShuffleBucket").
const char* lock_rank_name(LockRank rank);

namespace lock_rank {

#if S3_LOCK_RANK_CHECKS

// Validates (against the calling thread's held-rank stack) that acquiring
// `rank` preserves strict monotonicity, then records the acquisition.
// Called *before* the underlying mutex blocks, so an inversion aborts with
// both ranks named instead of deadlocking. kUnranked is a no-op.
void note_acquire(LockRank rank, const void* mu);

// Removes the most recent acquisition of `mu` from the held stack. Ranked
// mutexes released out of LIFO order are fine (the stack is searched by
// address); releasing a mutex that was never noted is ignored.
void note_release(LockRank rank, const void* mu);

// Ranks currently held by the calling thread, outermost first.
std::vector<LockRank> held_for_test();

// Async-signal-safe variant for the crash-dump writer: copies up to `cap`
// held ranks (outermost first) into `out` without allocating, and returns
// how many the thread actually holds (callers clamp to `cap` when reading).
std::size_t held_ranks(LockRank* out, std::size_t cap);

// Pushes a synthetic held frame so tests can prove the validator fires
// (see tests/invariant_death_test.cpp). Pair with reset_for_test().
void corrupt_held_rank_for_test(LockRank rank);

// Clears the calling thread's held stack (test isolation only).
void reset_for_test();

#else  // !S3_LOCK_RANK_CHECKS

inline void note_acquire(LockRank, const void*) {}
inline void note_release(LockRank, const void*) {}
inline std::vector<LockRank> held_for_test() { return {}; }
inline std::size_t held_ranks(LockRank*, std::size_t) { return 0; }
inline void corrupt_held_rank_for_test(LockRank) {}
inline void reset_for_test() {}

#endif  // S3_LOCK_RANK_CHECKS

}  // namespace lock_rank
}  // namespace s3
