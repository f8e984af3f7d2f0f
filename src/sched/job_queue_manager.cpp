#include "sched/job_queue_manager.h"

#include <algorithm>

#include "common/logging.h"
#include "dfs/segment.h"
#include "obs/journal.h"
#include "sched/segment_planner.h"

namespace s3::sched {
namespace {

// All JQM journal records share the file id and scan cursor; the per-type
// fields are filled in at each decision point.
obs::JournalEvent journal_base(obs::JournalEventType type, FileId file,
                               std::uint64_t cursor) {
  obs::JournalEvent event;
  event.type = type;
  event.file = file;
  event.cursor = cursor;
  return event;
}

}  // namespace

JobQueueManager::JobQueueManager(FileId file, std::uint64_t file_blocks)
    : file_(file), file_blocks_(file_blocks) {
  S3_CHECK(file_blocks > 0);
}

void JobQueueManager::admit(JobId job, int priority) {
  // One shard lock, one atomic increment — the queue mutex (and the long
  // form_batch critical section it serializes) is never touched. Duplicate
  // admissions hash to the same shard, so the pending scan below plus the
  // fold-time find() cover both halves of the "admitted twice" contract.
  AdmitShard& shard = shards_[job.value() % kAdmitShards];
  PendingAdmit p;
  p.id = job;
  p.priority = priority;
  {
    MutexLock lock(shard.mu);
    S3_CHECK_MSG(std::none_of(shard.pending.begin(), shard.pending.end(),
                              [&](const PendingAdmit& q) {
                                return q.id == job;
                              }),
                 "job admitted twice: " << job);
    p.seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
    shard.pending.push_back(p);
    pending_count_.fetch_add(1, std::memory_order_release);
  }
  // Journal from the relaxed mirrors: exact in every single-threaded
  // interleaving, at worst one wave stale when racing the driver. The paper
  // semantics (a job landing mid-flight joins the *next* wave) are enforced
  // by the fold, not by this label.
  const std::uint64_t cursor_hint =
      cursor_hint_.load(std::memory_order_relaxed);
  S3_LOG(kDebug, "jqm") << "admit " << job << " (sharded) near block "
                        << cursor_hint;
  auto& journal = obs::EventJournal::instance();
  if (journal.observed()) {
    auto event =
        journal_base(in_flight_hint_.load(std::memory_order_relaxed)
                         ? obs::JournalEventType::kLateJobJoined
                         : obs::JournalEventType::kJobAdmitted,
                     file_, cursor_hint);
    event.job = job;
    event.remaining = file_blocks_;
    journal.record(std::move(event));
  }
}

void JobQueueManager::fold_pending() {
  if (pending_count_.load(std::memory_order_acquire) == 0) return;
  S3_DCHECK_MSG(cursor_ < file_blocks_,
                "segment cursor " << cursor_ << " out of range [0, "
                                  << file_blocks_ << ")");
  std::vector<PendingAdmit> drained;
  for (AdmitShard& shard : shards_) {
    MutexLock lock(shard.mu);
    if (shard.pending.empty()) continue;
    drained.insert(drained.end(), shard.pending.begin(), shard.pending.end());
    pending_count_.fetch_sub(shard.pending.size(), std::memory_order_release);
    shard.pending.clear();
  }
  // Admission order is the global seq order, not shard order.
  std::sort(drained.begin(), drained.end(),
            [](const PendingAdmit& a, const PendingAdmit& b) {
              return a.seq < b.seq;
            });
  for (const PendingAdmit& p : drained) {
    S3_CHECK_MSG(find(p.id) == nullptr, "job admitted twice: " << p.id);
    QueuedJob q;
    q.id = p.id;
    q.start_block = cursor_;
    q.next_block = cursor_;
    q.remaining = file_blocks_;
    q.priority = p.priority;
    q.seq = p.seq;
    jobs_.push_back(q);
  }
}

const JobQueueManager::QueuedJob* JobQueueManager::find(JobId job) const {
  for (const auto& q : jobs_) {
    if (q.id == job) return &q;
  }
  return nullptr;
}

std::uint64_t JobQueueManager::remaining(JobId job) const {
  {
    MutexLock lock(mu_);
    const QueuedJob* q = find(job);
    if (q != nullptr) return q->remaining;
  }
  // Not folded yet: a pending admission has consumed nothing.
  const AdmitShard& shard = shards_[job.value() % kAdmitShards];
  MutexLock lock(shard.mu);
  const bool pending =
      std::any_of(shard.pending.begin(), shard.pending.end(),
                  [&](const PendingAdmit& p) { return p.id == job; });
  S3_CHECK_MSG(pending, "unknown job " << job);
  return file_blocks_;
}

Batch JobQueueManager::form_batch(BatchId id, std::uint64_t wave,
                                  std::size_t max_members) {
  MutexLock lock(mu_);
  fold_pending();
  S3_CHECK_MSG(!in_flight_.has_value(), "batch already in flight");
  S3_CHECK_MSG(!jobs_.empty(), "form_batch on an empty queue");
  S3_CHECK(wave > 0);
  S3_DCHECK_MSG(cursor_ < file_blocks_,
                "segment cursor " << cursor_ << " out of range [0, "
                                  << file_blocks_ << ")");
  wave = std::min(wave, file_blocks_);
  // Algorithm 1 lines 10-13: whatever path forms the batch, its wave must
  // leave the cursor advanced by exactly `wave` from the batch's start,
  // circularly (the batch start may itself have jumped past dead air).
  std::uint64_t batch_start = cursor_;
  S3_POSTCONDITION(cursor_ ==
                   advance_cursor(batch_start, wave, file_blocks_));

  // If no queued job needs the block at the cursor (possible only when
  // membership capping made jobs wait for the scan to wrap around), jump the
  // cursor forward to the nearest needed block instead of scanning dead air.
  const bool anyone_here = std::any_of(
      jobs_.begin(), jobs_.end(),
      [&](const QueuedJob& q) { return q.next_block == cursor_; });
  if (!anyone_here) {
    std::uint64_t best = dfs::circular_distance(
        cursor_, jobs_.front().next_block, file_blocks_);
    for (const auto& q : jobs_) {
      best = std::min(best, dfs::circular_distance(cursor_, q.next_block,
                                                   file_blocks_));
    }
    cursor_ = advance_cursor(cursor_, best, file_blocks_);
    batch_start = cursor_;
  }

  // Candidates: jobs whose scan position is exactly the cursor (alignment —
  // every uncapped job always is).
  std::vector<QueuedJob*> candidates;
  for (auto& q : jobs_) {
    if (q.next_block == cursor_) candidates.push_back(&q);
  }
  S3_CHECK(!candidates.empty());

  if (max_members > 0 && candidates.size() > max_members) {
    std::sort(candidates.begin(), candidates.end(),
              [](const QueuedJob* a, const QueuedJob* b) {
                if (a->priority != b->priority) {
                  return a->priority > b->priority;
                }
                return a->seq < b->seq;
              });
    candidates.resize(max_members);
  }

  Batch batch;
  batch.id = id;
  batch.file = file_;
  batch.start_block = cursor_;
  batch.num_blocks = wave;
  batch.members.reserve(candidates.size());
  for (QueuedJob* q : candidates) {
    // Batch alignment: every member's sub-job starts exactly at the batch
    // cursor, and no member is merged twice into one batch.
    S3_DCHECK_MSG(q->next_block == cursor_,
                  "member " << q->id << " misaligned with cursor " << cursor_);
    S3_DCHECK_MSG(std::none_of(batch.members.begin(), batch.members.end(),
                               [&](const Batch::Member& m) {
                                 return m.job == q->id;
                               }),
                  "member " << q->id << " merged twice into batch " << id);
    Batch::Member m;
    m.job = q->id;
    m.blocks = std::min(q->remaining, wave);
    m.completes = q->remaining <= wave;
    batch.members.push_back(m);
  }

  in_flight_ = InFlight{batch.id, batch.members};
  in_flight_hint_.store(true, std::memory_order_relaxed);
  const std::uint64_t cursor_before = cursor_;
  cursor_ = advance_cursor(cursor_, wave, file_blocks_);
  cursor_hint_.store(cursor_, std::memory_order_relaxed);

  auto& journal = obs::EventJournal::instance();
  if (journal.observed()) {
    auto merged = journal_base(obs::JournalEventType::kSubJobsMerged, file_,
                               batch.start_block);
    merged.batch = batch.id;
    merged.wave = wave;
    merged.members = batch.members.size();
    std::string detail = "jobs=";
    for (std::size_t i = 0; i < batch.members.size(); ++i) {
      if (i > 0) detail += ',';
      detail += std::to_string(batch.members[i].job.value());
    }
    merged.detail = std::move(detail);
    journal.record(std::move(merged));

    auto advanced = journal_base(obs::JournalEventType::kCursorAdvanced,
                                 file_, cursor_);
    advanced.batch = batch.id;
    advanced.wave = wave;
    advanced.detail = "from=" + std::to_string(cursor_before);
    journal.record(std::move(advanced));
  }
  return batch;
}

std::vector<JobId> JobQueueManager::complete_batch() {
  MutexLock lock(mu_);
  S3_CHECK_MSG(in_flight_.has_value(), "complete_batch with none in flight");
  S3_DCHECK_MSG(cursor_ < file_blocks_,
                "segment cursor " << cursor_ << " out of range [0, "
                                  << file_blocks_ << ")");
  auto& journal = obs::EventJournal::instance();
  std::vector<JobId> completed;
  for (const Batch::Member& m : in_flight_->members) {
    auto it = std::find_if(jobs_.begin(), jobs_.end(),
                           [&](const QueuedJob& q) { return q.id == m.job; });
    S3_CHECK_MSG(it != jobs_.end(), "in-flight member vanished: " << m.job);
    S3_CHECK(it->remaining >= m.blocks);
    it->remaining -= m.blocks;
    it->next_block = advance_cursor(it->next_block, m.blocks, file_blocks_);
    if (it->remaining == 0) {
      S3_CHECK_MSG(m.completes, "completion flag disagreed for " << m.job);
      completed.push_back(m.job);
      jobs_.erase(it);
      if (journal.observed()) {
        auto event = journal_base(obs::JournalEventType::kJobCompleted, file_,
                                  cursor_);
        event.job = m.job;
        event.batch = in_flight_->id;
        journal.record(std::move(event));
      }
    } else {
      S3_CHECK_MSG(!m.completes,
                   "job flagged complete but has blocks left: " << m.job);
    }
  }
  if (journal.observed()) {
    auto event =
        journal_base(obs::JournalEventType::kBatchRetired, file_, cursor_);
    event.batch = in_flight_->id;
    event.members = in_flight_->members.size();
    event.detail = "completed=" + std::to_string(completed.size());
    journal.record(std::move(event));
  }
  in_flight_.reset();
  in_flight_hint_.store(false, std::memory_order_relaxed);
  return completed;
}

Status JobQueueManager::retire(JobId job) {
  MutexLock lock(mu_);
  fold_pending();
  const auto it = std::find_if(jobs_.begin(), jobs_.end(),
                               [&](const QueuedJob& q) { return q.id == job; });
  if (it == jobs_.end()) {
    return Status::not_found("retire of a job not in this queue");
  }
  const std::uint64_t remaining = it->remaining;
  jobs_.erase(it);
  if (in_flight_.has_value()) {
    auto& members = in_flight_->members;
    members.erase(std::remove_if(members.begin(), members.end(),
                                 [&](const Batch::Member& m) {
                                   return m.job == job;
                                 }),
                  members.end());
  }
  S3_LOG(kWarn, "jqm") << "retire " << job << " with " << remaining
                       << " blocks unscanned";
  auto& journal = obs::EventJournal::instance();
  if (journal.observed()) {
    auto event =
        journal_base(obs::JournalEventType::kJobQuarantined, file_, cursor_);
    event.job = job;
    event.remaining = remaining;
    event.detail = "observed_by=queue";
    journal.record(std::move(event));
  }
  return Status::ok();
}

void JobQueueManager::corrupt_cursor_for_test(std::uint64_t cursor) {
  MutexLock lock(mu_);
  cursor_ = cursor;
  cursor_hint_.store(cursor, std::memory_order_relaxed);
}

}  // namespace s3::sched
