// Core-pinned worker pool with one task deque per worker and work stealing —
// the only thread pool in the tree (the engine's map and reduce slots, and
// the one-worker Prometheus snapshot exporter). A task submitted to worker w
// lands in w's own deque (preserving the locality the caller intended — e.g.
// the reduce partition whose shuffle bucket w's arenas own), and an idle
// worker steals from the back of a victim's deque instead of going to sleep,
// so a skewed wave still keeps every slot busy (the Metis per-core pool,
// OS4M's operation-level balance at intra-node scale).
//
// Pinning: when options.pin_cores is set each worker calls sched_setaffinity
// on itself (worker i -> cpu (cpu_offset + i) mod hardware_concurrency).
// On non-Linux platforms, or when the OS denies the call, pinning degrades
// to a no-op — pinned_workers() reports how many workers actually stuck.
//
// Exception contract: a task that throws does not kill its worker; the
// first exception since the last wait_idle() is rethrown from wait_idle() on
// the caller's thread, later ones are dropped. Lock discipline is
// machine-checked via common/thread_annotations.h.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/thread_annotations.h"

namespace s3 {

struct PinnedThreadPoolOptions {
  std::size_t num_threads = 4;
  // Pin worker i to cpu (cpu_offset + i) % hardware_concurrency. Requires OS
  // support; silently a no-op where sched_setaffinity is unavailable/denied.
  bool pin_cores = false;
  int cpu_offset = 0;
};

class PinnedThreadPool {
 public:
  explicit PinnedThreadPool(PinnedThreadPoolOptions options);
  explicit PinnedThreadPool(std::size_t num_threads)
      : PinnedThreadPool(PinnedThreadPoolOptions{num_threads, false, 0}) {}
  ~PinnedThreadPool();

  PinnedThreadPool(const PinnedThreadPool&) = delete;
  PinnedThreadPool& operator=(const PinnedThreadPool&) = delete;

  // Enqueues a task on the next worker round-robin; returns false if the
  // pool is shutting down (the task is dropped — callers must handle it).
  [[nodiscard]] bool submit(std::function<void()> task) S3_EXCLUDES(mu_);

  // Enqueues a task on a specific worker's deque (worker % size()). The task
  // still runs on any worker if stolen; the index is a locality hint, not a
  // placement guarantee.
  [[nodiscard]] bool submit_to(std::size_t worker, std::function<void()> task)
      S3_EXCLUDES(mu_);

  // Blocks until every submitted task has finished. Rethrows the first
  // exception any task threw since the last wait_idle().
  void wait_idle() S3_EXCLUDES(mu_);

  // Stops accepting work, drains every deque, joins all workers. Called by
  // the destructor if not called explicitly. Exceptions from tasks that ran
  // during shutdown are discarded.
  void shutdown() S3_EXCLUDES(mu_);

  [[nodiscard]] std::size_t size() const { return workers_.size(); }

  // Workers that successfully pinned themselves (0 unless pin_cores was set
  // and the OS honored the affinity calls).
  [[nodiscard]] std::size_t pinned_workers() const {
    return pinned_workers_.load(std::memory_order_relaxed);
  }

  // Tasks executed by a worker other than the one they were submitted to
  // (load-balance telemetry; also exported as pool.steals).
  [[nodiscard]] std::uint64_t steals() const {
    return steals_.load(std::memory_order_relaxed);
  }

  // Index of the calling worker within this pool, or -1 when called from a
  // thread that is not one of this pool's workers. Arena pools use this for
  // first-touch shard selection.
  [[nodiscard]] int current_worker_index() const;

 private:
  // One deque per worker. The owner pops from the front (submission order);
  // thieves steal from the back, so owner and thief contend on opposite ends
  // only when a single task remains.
  struct WorkerQueue {
    mutable AnnotatedMutex mu{LockRank::kPoolQueue};
    std::deque<std::function<void()>> tasks S3_GUARDED_BY(mu);
  };

  void worker_loop(std::size_t self) S3_EXCLUDES(mu_);
  [[nodiscard]] bool pop_or_steal(std::size_t self,
                                  std::function<void()>& task,
                                  bool& stolen) S3_EXCLUDES(mu_);
  [[nodiscard]] bool enqueue(std::size_t worker, std::function<void()> task)
      S3_EXCLUDES(mu_);

  PinnedThreadPoolOptions options_;
  std::vector<std::unique_ptr<WorkerQueue>> queues_;
  std::vector<std::thread> workers_;

  // Coordination lock: pending/queued counters, shutdown flag, error slot.
  // Never held while acquiring a WorkerQueue::mu, and never acquired while
  // one is held — the two levels stay disjoint, so no cycle is possible.
  mutable AnnotatedMutex mu_{LockRank::kPoolCoordination};
  std::condition_variable work_cv_;  // queued_ > 0 or shutdown_
  std::condition_variable idle_cv_;  // pending_ == 0
  std::size_t pending_ S3_GUARDED_BY(mu_) = 0;  // submitted, not yet finished
  std::size_t queued_ S3_GUARDED_BY(mu_) = 0;   // submitted, not yet popped
  bool shutdown_ S3_GUARDED_BY(mu_) = false;
  std::exception_ptr first_error_ S3_GUARDED_BY(mu_);

  std::atomic<std::size_t> next_worker_{0};     // round-robin submit cursor
  std::atomic<std::size_t> pinned_workers_{0};
  std::atomic<std::uint64_t> steals_{0};
};

}  // namespace s3
