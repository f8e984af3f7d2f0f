// The S3 Job Queue Manager — Algorithm 1 of the paper, generalized from
// segment indices to a circular block cursor so that both fixed segments and
// dynamically-resized waves share one implementation.
//
// One JobQueueManager manages one file's circular scan:
//  * admit(j)          — job j joins the queue; its start offset is the
//                        current cursor (the next block to be scheduled),
//                        i.e. J(ss) in Algorithm 1 line 2.
//  * form_batch(wave)  — lines 1-4: merge every queued job's sub-job for the
//                        next `wave` blocks into one batch and advance the
//                        cursor (circularly; lines 10-13). Jobs arriving
//                        after this call are aligned to the *next* wave.
//  * complete_batch()  — lines 5-9: account the finished wave against every
//                        member and retire jobs whose circular scan is done.
//
// Invariants (checked):
//  * at most one batch is in flight;
//  * every queued job is a member of every formed batch (alignment);
//  * a job completes after consuming exactly `file_blocks` blocks.
//
// Thread safety and the admission fast path: late-arriving jobs may be
// admitted from any thread while a driver thread forms and completes batches
// (the paper's dynamic sub-job adjustment — a job that arrives while a batch
// is in flight is aligned to the next wave). admit() never touches the
// global queue mutex: arrivals land in one of kAdmitShards
// independently-locked pending buffers (sequenced by an atomic counter) and
// are folded into the queue — in admission order — at the top of the next
// form_batch/retire. Folding happens under the queue mutex while the cursor
// is exactly where it was when the arrival landed (only form_batch moves
// it), so a folded job is indistinguishable from one admitted under the
// global mutex. The discipline is machine-checked by Clang Thread Safety
// Analysis.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "common/types.h"
#include "sched/scheduler.h"

namespace s3::sched {

class JobQueueManager {
 public:
  JobQueueManager(FileId file, std::uint64_t file_blocks);

  [[nodiscard]] FileId file() const { return file_; }
  [[nodiscard]] std::uint64_t file_blocks() const { return file_blocks_; }

  // Admits a job into the queue; it starts scanning at the current cursor
  // (stamped when the next form_batch folds it in, which is the same value —
  // only form_batch moves the cursor). Takes only a shard lock.
  void admit(JobId job, int priority = 0) S3_EXCLUDES(mu_);

  [[nodiscard]] bool empty() const S3_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return jobs_.empty() && pending_count_.load(std::memory_order_acquire) == 0;
  }
  [[nodiscard]] std::size_t queued_jobs() const S3_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return jobs_.size() +
           static_cast<std::size_t>(
               pending_count_.load(std::memory_order_acquire));
  }
  [[nodiscard]] std::uint64_t cursor() const S3_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return cursor_;
  }
  [[nodiscard]] bool batch_in_flight() const S3_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return in_flight_.has_value();
  }

  // Blocks a job still needs (file_blocks for a fresh job; 0 never appears —
  // completed jobs are removed).
  [[nodiscard]] std::uint64_t remaining(JobId job) const S3_EXCLUDES(mu_);

  // Forms the next merged sub-job over [cursor, cursor + wave) and advances
  // the cursor. `max_members` > 0 caps batch membership (priority extension:
  // the highest-priority, earliest-admitted jobs are preferred; the rest
  // stay aligned and wait). Requires !empty() and no batch in flight.
  [[nodiscard]] Batch form_batch(BatchId id, std::uint64_t wave,
                                 std::size_t max_members = 0) S3_EXCLUDES(mu_);

  // Accounts the in-flight batch as finished; returns the jobs it completed
  // (already removed from the queue).
  std::vector<JobId> complete_batch() S3_EXCLUDES(mu_);

  // Permanently removes a failed (quarantined) job from the queue — and from
  // the in-flight batch's membership, so complete_batch() will not account
  // the wave against it. kNotFound if the job is not queued here.
  [[nodiscard]] Status retire(JobId job) S3_EXCLUDES(mu_);

  // Test-only: overwrites the scan cursor with an arbitrary (possibly
  // out-of-range) value so the death tests can prove the S3_DCHECK contracts
  // catch a corrupted cursor. Never call outside tests.
  void corrupt_cursor_for_test(std::uint64_t cursor) S3_EXCLUDES(mu_);

  static constexpr std::size_t kAdmitShards = 8;

 private:
  struct QueuedJob {
    JobId id;
    std::uint64_t start_block = 0;
    // The next block index this job needs. Equal to the cursor for every
    // job that has joined every wave since admission; lags behind (waiting
    // for the scan to wrap) only when membership capping skipped the job.
    std::uint64_t next_block = 0;
    std::uint64_t remaining = 0;
    int priority = 0;
    std::uint64_t seq = 0;
  };

  struct InFlight {
    BatchId id;
    std::vector<Batch::Member> members;
  };

  // An arrival not yet folded into jobs_. Carries only what admit() knew
  // without the queue mutex; start/next block are stamped at fold time.
  struct PendingAdmit {
    JobId id;
    int priority = 0;
    std::uint64_t seq = 0;
  };

  // One admission shard: arrivals hash to a shard by job id, so a duplicate
  // admission always collides inside one shard's pending buffer (or against
  // jobs_ at fold time). Shards share a rank — admit() holds exactly one,
  // and the fold acquires them one at a time.
  struct AdmitShard {
    mutable AnnotatedMutex mu{LockRank::kSchedAdmitShard};
    std::vector<PendingAdmit> pending S3_GUARDED_BY(mu);
  };

  [[nodiscard]] const QueuedJob* find(JobId job) const S3_REQUIRES(mu_);

  // Drains every shard's pending buffer into jobs_ in admission (seq) order.
  // Called at the top of every operation that reads or mutates jobs_ with
  // the queue mutex held.
  void fold_pending() S3_REQUIRES(mu_);

  FileId file_;
  std::uint64_t file_blocks_;
  mutable AnnotatedMutex mu_{LockRank::kSchedJobQueue};
  std::uint64_t cursor_ S3_GUARDED_BY(mu_) = 0;
  std::vector<QueuedJob> jobs_ S3_GUARDED_BY(mu_);
  std::optional<InFlight> in_flight_ S3_GUARDED_BY(mu_);

  std::array<AdmitShard, kAdmitShards> shards_;
  // Admission order across all shards.
  std::atomic<std::uint64_t> next_seq_{0};
  // Un-folded arrivals across all shards (so empty()/queued_jobs() stay
  // accurate without draining the shards).
  std::atomic<std::uint64_t> pending_count_{0};
  // Relaxed mirrors of cursor_/in_flight_ for journaling admissions without
  // the queue mutex. Updated wherever the guarded truth changes; exact in
  // any single-threaded interleaving, at worst one wave stale for an
  // admission racing form_batch/complete_batch (observability only — the
  // fold stamps the authoritative start block).
  std::atomic<std::uint64_t> cursor_hint_{0};
  std::atomic<bool> in_flight_hint_{false};
};

}  // namespace s3::sched
