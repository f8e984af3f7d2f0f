#include "core/real_driver.h"

#include <algorithm>

#include "common/logging.h"
#include "obs/clock.h"
#include "obs/flight_recorder.h"
#include "obs/journal.h"
#include "obs/trace.h"
#include "sched/segment_planner.h"

namespace s3::core {
namespace {

// Resolves a batch's circular block range to concrete BlockIds.
std::vector<BlockId> resolve_blocks(const dfs::FileInfo& file,
                                    const sched::Batch& batch) {
  std::vector<BlockId> blocks;
  blocks.reserve(batch.num_blocks);
  const std::uint64_t n = file.blocks.size();
  for (std::uint64_t i = 0; i < batch.num_blocks; ++i) {
    blocks.push_back(file.blocks[sched::advance_cursor(batch.start_block, i, n)]);
  }
  return blocks;
}

}  // namespace

RealDriver::RealDriver(const dfs::DfsNamespace& ns,
                       engine::LocalEngine& engine,
                       const sched::FileCatalog& catalog,
                       RealDriverOptions options)
    : ns_(&ns), engine_(&engine), catalog_(&catalog), options_(options) {
  S3_CHECK(options.time_scale > 0.0);
}

template <typename DeliverFn, typename FinishedFn>
Status RealDriver::execute_batch(sched::Scheduler& scheduler,
                                 const sched::Batch& batch, SimTime& now,
                                 metrics::JobTimeline& timeline,
                                 RealRunResult& result,
                                 const DeliverFn& deliver,
                                 const FinishedFn& on_finished) {
  // Execute the merged batch for real and charge its wall time.
  const dfs::FileInfo& file = ns_->file(batch.file);
  engine::BatchExec exec;
  exec.id = batch.id;
  exec.blocks = resolve_blocks(file, batch);
  exec.jobs = batch.member_jobs();
  for (const auto& member : batch.members) {
    timeline.on_first_started(member.job, now);
  }
  auto& journal = obs::EventJournal::instance();
  if (journal.observed()) {
    obs::JournalEvent event;
    event.type = obs::JournalEventType::kBatchLaunched;
    event.sim_time = now;
    event.file = batch.file;
    event.batch = batch.id;
    event.cursor = batch.start_block;
    event.wave = batch.num_blocks;
    event.members = batch.members.size();
    journal.record(std::move(event));
  }
  // Batch-level correlation: every span edge, journal event, and flight
  // mark recorded below run_batch on this thread inherits the batch id.
  obs::CorrelationScope batch_corr(JobId(), batch.id, NodeId());
  S3_TRACE_SPAN_NAMED(batch_span, "driver", "batch");
  batch_span.arg("batch", batch.id.value())
      .arg("file", batch.file.value())
      .arg("start_block", batch.start_block)
      .arg("blocks", batch.num_blocks)
      .arg("jobs", exec.jobs.size());
  const std::uint64_t wall_start_ns = obs::now_ns();
  StatusOr<engine::BatchOutcome> outcome = engine_->run_batch(exec);
  if (!outcome.is_ok()) return outcome.status();
  const double wall_seconds = obs::seconds_since(wall_start_ns);
  batch_span.end();
  now += wall_seconds * options_.time_scale;
  ++result.batches_run;

  if (journal.observed()) {
    obs::JournalEvent event;
    event.type = obs::JournalEventType::kBatchExecuted;
    event.sim_time = now;
    event.file = batch.file;
    event.batch = batch.id;
    event.wave = batch.num_blocks;
    event.members = batch.members.size();
    event.detail = "wall_us=" +
                   std::to_string(static_cast<std::uint64_t>(
                       wall_seconds * 1e6));
    journal.record(std::move(event));
  }

  // Recovery feedback: crashed nodes shrink every future wave; quarantined
  // members are retired from the queue *before* the batch is accounted, so
  // the wave is never credited to a job that did not finish it.
  for (const NodeId node : outcome.value().nodes_died) {
    result.nodes_died.push_back(node);
    scheduler.on_node_dead(node, now);
  }
  for (const auto& q : outcome.value().quarantined) {
    S3_LOG(kWarn, "driver") << "job " << q.job << " quarantined: "
                            << q.reason;
    scheduler.on_job_failed(q.job, now);
    timeline.on_failed(q.job, now);
    result.failed.emplace(q.job, q.reason);
    on_finished(q.job);
  }

  // Arrivals that (virtually) happened during the batch join afterwards.
  deliver(now);
  scheduler.on_batch_complete(batch.id, now);
  for (const JobId job : batch.completed_jobs()) {
    // A quarantined member may still be flagged `completes` in the batch
    // the scheduler formed; it has no output to collect.
    if (result.failed.count(job) > 0) continue;
    timeline.on_completed(job, now);
    result.counters.emplace(job, engine_->counters(job));
    auto output = engine_->finalize_job(job);
    if (!output.is_ok()) return output.status();
    result.outputs.emplace(job, std::move(output).value());
    on_finished(job);
  }
  return Status::ok();
}

StatusOr<RealRunResult> RealDriver::run(sched::Scheduler& scheduler,
                                        std::vector<RealJob> jobs) {
  if (jobs.empty()) return Status::invalid_argument("no jobs to run");
  std::sort(jobs.begin(), jobs.end(), [](const RealJob& a, const RealJob& b) {
    if (a.arrival != b.arrival) return a.arrival < b.arrival;
    return a.spec.id < b.spec.id;
  });
  for (const auto& job : jobs) {
    S3_RETURN_IF_ERROR(engine_->register_job(job.spec));
  }

  metrics::JobTimeline timeline;
  RealRunResult result;

  const sched::ClusterStatus status{options_.map_slots, options_.map_slots};

  SimTime now = 0.0;
  std::size_t next_arrival = 0;
  bool flushed = false;

  const auto deliver = [&](SimTime t) {
    while (next_arrival < jobs.size() && jobs[next_arrival].arrival <= t) {
      const RealJob& job = jobs[next_arrival];
      timeline.on_submitted(job.spec.id, job.arrival);
      scheduler.on_job_arrival(
          sched::JobArrival{job.spec.id, job.spec.input, job.priority},
          job.arrival);
      ++next_arrival;
    }
  };
  const auto no_finished_feedback = [](JobId) {};

  while (true) {
    deliver(now);
    auto batch = scheduler.next_batch(now, status);
    if (!batch.has_value()) {
      // Advance to the next arrival or requested wake-up, whichever comes
      // first.
      const auto wake = scheduler.next_decision_time();
      const bool woken = wake.has_value() && *wake > now;
      if (next_arrival < jobs.size()) {
        now = jobs[next_arrival].arrival;
        if (woken) now = std::min(now, *wake);
        continue;
      }
      if (scheduler.pending_jobs() == 0) break;
      if (woken) {
        now = *wake;
        continue;
      }
      if (!flushed) {
        scheduler.flush(now);
        flushed = true;
        continue;
      }
      return Status::internal("scheduler deadlock in real driver");
    }

    S3_RETURN_IF_ERROR(execute_batch(scheduler, *batch, now, timeline, result,
                                     deliver, no_finished_feedback));
  }

  if (!timeline.all_done()) {
    return Status::internal("real run finished with incomplete jobs");
  }
  result.summary = metrics::summarize(timeline);
  result.job_records = timeline.records();
  result.scan = engine_->scan_counters();
  return result;
}

StatusOr<RealRunResult> RealDriver::run_service(
    sched::Scheduler& scheduler, service::SubmissionService& service) {
  metrics::JobTimeline timeline;
  RealRunResult result;

  const sched::ClusterStatus status{options_.map_slots, options_.map_slots};

  SimTime now = 0.0;
  bool flushed = false;
  std::size_t registered = 0;

  // Drains every submission the service is willing to release at `now` into
  // the scheduler. A release while a wave is in flight lands as a late
  // arrival — the JQM aligns it to the next wave (Partial Job
  // Initialization); nothing here distinguishes the two cases.
  const auto pump = [&](SimTime t) -> Status {
    for (auto& admitted : service.poll_admitted(t)) {
      const engine::JobSpec& spec = admitted.submission.spec;
      S3_RETURN_IF_ERROR(engine_->register_job(spec));
      ++registered;
      timeline.on_submitted(spec.id, admitted.submission.arrival);
      scheduler.on_job_arrival(
          sched::JobArrival{spec.id, spec.input, admitted.submission.priority},
          std::max(admitted.submission.arrival, t));
    }
    return Status::ok();
  };
  // execute_batch's deliver hook returns void, so registration failures are
  // parked here and re-raised right after the batch step.
  Status pump_status = Status::ok();
  const auto pump_hook = [&](SimTime t) {
    Status s = pump(t);
    if (pump_status.is_ok() && !s.is_ok()) pump_status = std::move(s);
  };
  const auto notify_service = [&](JobId job) { service.on_job_finished(job); };

  while (true) {
    S3_RETURN_IF_ERROR(pump(now));
    auto batch = scheduler.next_batch(now, status);
    if (!batch.has_value()) {
      // Queued work the service will only release later (future arrivals):
      // jump virtual time to the release point, or to a requested wake-up
      // that comes first.
      const auto wake = scheduler.next_decision_time();
      const bool woken = wake.has_value() && *wake > now;
      if (const auto ready = service.next_ready_time(now);
          ready.has_value() && *ready > now) {
        now = *ready;
        if (woken) now = std::min(now, *wake);
        flushed = false;
        continue;
      }
      if (scheduler.pending_jobs() > 0) {
        if (woken) {
          now = *wake;
          continue;
        }
        if (!flushed) {
          scheduler.flush(now);
          flushed = true;
          continue;
        }
        return Status::internal("scheduler deadlock in service driver");
      }
      // Scheduler idle, nothing dispatchable. Exit when the front door is
      // closed and drained; otherwise park until submitters produce work.
      if (service.closed() && service.drained()) break;
      if (!service.wait_for_work()) break;
      flushed = false;
      continue;
    }
    flushed = false;

    S3_RETURN_IF_ERROR(execute_batch(scheduler, *batch, now, timeline, result,
                                     pump_hook, notify_service));
    S3_RETURN_IF_ERROR(pump_status);
  }

  if (!timeline.all_done()) {
    return Status::internal("service run finished with incomplete jobs");
  }
  if (registered > 0) {
    result.summary = metrics::summarize(timeline);
    result.job_records = timeline.records();
  }
  result.scan = engine_->scan_counters();
  return result;
}

}  // namespace s3::core
