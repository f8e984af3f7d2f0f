// Arrival-storm benchmark: the admission path under sustained concurrent
// submission.
//
// Part 1 — JQM admission. A driver thread churns form_batch /
// complete_batch over a queue that keeps growing (the paper's Algorithm 1
// hot loop: each form_batch scans every queued job under the queue mutex)
// while admit threads pour new jobs in. admit() appends to per-shard pending
// lists that fold at the next form_batch, so admission throughput should not
// depend on queue depth.
//
// Part 2 — SubmissionService sustained admission. Submitter threads drive
// the full decision ladder (token bucket, lane bounds, shedder); reports
// sustained decisions/sec and the admission-latency p50/p99 from the
// service.admission_latency_ns histogram — the same numbers s3top renders.
//
// Wall-clock timed (obs::now_ns), prints a table; run on an idle machine.
#include <atomic>
#include <cstdio>
#include <thread>
#include <vector>

#include "common/flags.h"
#include "common/strings.h"
#include "metrics/report.h"
#include "obs/clock.h"
#include "obs/registry.h"
#include "sched/job_queue_manager.h"
#include "service/submission_service.h"
#include "workloads/wordcount.h"

namespace {

using namespace s3;

struct AdmissionRun {
  double admits_per_sec = 0.0;
  std::uint64_t admitted = 0;
  std::uint64_t batches = 0;
};

AdmissionRun run_jqm_admission(int admit_threads, double seconds,
                               std::uint64_t preload) {
  sched::JobQueueManager jqm(FileId(0), /*file_blocks=*/1u << 30);
  // Preload: form_batch's candidate scan is O(queued jobs), so a deep queue
  // makes the driver hold the queue mutex for long critical sections — the
  // overload regime admission must not stall behind.
  for (std::uint64_t j = 0; j < preload; ++j) {
    jqm.admit(JobId(j));
  }
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> admitted{0};
  std::atomic<std::uint64_t> batches{0};

  std::thread driver([&] {
    std::uint64_t formed = 0;
    while (!stop.load(std::memory_order_acquire)) {
      (void)jqm.form_batch(BatchId(formed++), /*wave_blocks=*/4);
      (void)jqm.complete_batch();
      batches.fetch_add(1, std::memory_order_relaxed);
    }
  });

  std::vector<std::thread> admitters;
  const std::uint64_t deadline_ns =
      obs::now_ns() + static_cast<std::uint64_t>(seconds * 1e9);
  for (int a = 0; a < admit_threads; ++a) {
    admitters.emplace_back([&, a] {
      std::uint64_t next = preload + static_cast<std::uint64_t>(a) * 100000000ULL;
      while (obs::now_ns() < deadline_ns) {
        jqm.admit(JobId(next++));
        admitted.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  const std::uint64_t start_ns = obs::now_ns();
  for (auto& t : admitters) t.join();
  const double elapsed = static_cast<double>(obs::now_ns() - start_ns +
                                             static_cast<std::uint64_t>(
                                                 seconds * 1e9)) /
                         2e9;  // admitters ran ~`seconds`; average the skew
  stop.store(true, std::memory_order_release);
  driver.join();

  AdmissionRun run;
  run.admitted = admitted.load();
  run.batches = batches.load();
  run.admits_per_sec = static_cast<double>(run.admitted) /
                       (elapsed > 0.0 ? elapsed : seconds);
  return run;
}

struct ServiceRun {
  double decisions_per_sec = 0.0;
  std::uint64_t submitted = 0;
  double p50_ns = 0.0;
  double p99_ns = 0.0;
};

ServiceRun run_service_storm(int submit_threads, std::uint64_t jobs_per_thread) {
  service::ServiceOptions options;
  options.global_queue_bound = 256;
  service::SubmissionService service(options);
  constexpr std::uint64_t kTenants = 4;
  for (std::uint64_t t = 0; t < kTenants; ++t) {
    service::TenantQuota quota;
    quota.rate_jobs_per_sec = 1e6;
    quota.burst = 1e5;
    quota.max_queued = 128;
    quota.max_inflight = 64;
    quota.weight = 1.0 + static_cast<double>(t);
    if (!service
             .register_tenant(TenantId(t), "bench-" + std::to_string(t), quota)
             .is_ok()) {
      std::fprintf(stderr, "tenant registration failed\n");
      return {};
    }
  }
  std::atomic<bool> done{false};
  std::thread drainer([&] {
    // Plays the resident driver: dispatch and immediately finish so the
    // admission side, not the engine, is the measured bottleneck.
    while (!done.load(std::memory_order_acquire) || !service.drained()) {
      for (auto& job : service.poll_admitted(1e18)) {
        service.on_job_finished(job.submission.spec.id);
      }
      std::this_thread::yield();
    }
  });

  const std::uint64_t start_ns = obs::now_ns();
  std::vector<std::thread> submitters;
  for (int s = 0; s < submit_threads; ++s) {
    submitters.emplace_back([&, s] {
      const std::uint64_t base =
          static_cast<std::uint64_t>(s) * jobs_per_thread;
      for (std::uint64_t i = 0; i < jobs_per_thread; ++i) {
        service::Submission sub;
        sub.tenant = TenantId((base + i) % kTenants);
        sub.spec = workloads::make_wordcount_job(JobId(base + i), FileId(0),
                                                 "a", /*reduce_tasks=*/1);
        sub.arrival = 1e-6 * static_cast<double>(base + i);
        sub.priority = static_cast<int>(i % 3);
        (void)service.submit(sub);
      }
    });
  }
  for (auto& t : submitters) t.join();
  const double elapsed =
      static_cast<double>(obs::now_ns() - start_ns) / 1e9;
  done.store(true, std::memory_order_release);
  drainer.join();
  service.close();

  ServiceRun run;
  run.submitted = service.counts().submitted;
  run.decisions_per_sec =
      elapsed > 0.0 ? static_cast<double>(run.submitted) / elapsed : 0.0;
  const auto& histogram =
      obs::Registry::instance().histogram("service.admission_latency_ns");
  run.p50_ns = histogram.p50();
  run.p99_ns = histogram.p99();
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace s3;
  const Flags flags = Flags::parse(argc, argv);
  const double seconds = flags.get_double("seconds", 0.4);
  const int threads = static_cast<int>(flags.get_int("threads", 3));
  const std::uint64_t preload =
      static_cast<std::uint64_t>(flags.get_int("preload", 3000));

  metrics::TableWriter jqm_table(
      {"admission mode", "admits/sec", "admitted", "driver batches"});
  const AdmissionRun sharded = run_jqm_admission(threads, seconds, preload);
  jqm_table.add_row({"sharded (8 admit shards)",
                     format_double(sharded.admits_per_sec, 0),
                     std::to_string(sharded.admitted),
                     std::to_string(sharded.batches)});
  std::printf("JQM admission under a churning driver "
              "(%d admit threads, %llu preloaded jobs, %.1fs):\n%s\n",
              threads, static_cast<unsigned long long>(preload), seconds,
              jqm_table.render().c_str());

  const ServiceRun storm = run_service_storm(threads, 20000);
  metrics::TableWriter service_table(
      {"submissions", "decisions/sec", "admission p50", "admission p99"});
  service_table.add_row(
      {std::to_string(storm.submitted),
       format_double(storm.decisions_per_sec, 0),
       format_double(storm.p50_ns / 1e3, 1) + " us",
       format_double(storm.p99_ns / 1e3, 1) + " us"});
  std::printf("SubmissionService sustained storm "
              "(%d submitter threads, full decision ladder):\n%s",
              threads, service_table.render().c_str());
  return 0;
}
