// TSan-targeted stress suite. Every test here is written to maximize real
// lock contention on the engine's concurrent structures — oversubscribed
// map slots, concurrent late-arrival admissions into the Job Queue Manager,
// and shuffle publish/consume overlap — so that `ctest` under
// -DS3_SANITIZE=thread (scripts/check.sh --tsan) exercises the interleavings
// the Clang Thread Safety annotations reason about statically. The tests
// also run (fast) in the normal suite as plain correctness checks.
#include <fcntl.h>
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/pinned_thread_pool.h"
#include "core/real_driver.h"
#include "obs/flight_recorder.h"
#include "obs/journal.h"
#include "engine/shuffle.h"
#include "obs/trace.h"
#include "sched/job_queue_manager.h"
#include "sched/s3_scheduler.h"
#include "service/submission_service.h"
#include "workloads/suite.h"
#include "workloads/text_corpus.h"
#include "workloads/wordcount.h"

namespace s3 {
namespace {

std::map<std::string, std::string> to_map(const engine::JobResult& result) {
  std::map<std::string, std::string> m;
  for (const auto& kv : result.output) m[kv.key] = kv.value;
  return m;
}

// --- ShuffleStore: publish/append/take/unregister overlap ---------------

engine::KVBatch make_run(std::uint64_t seed, std::size_t records) {
  engine::KVBatch batch;
  for (std::size_t i = 0; i < records; ++i) {
    const std::string key = "k" + std::to_string((seed + i * 7) % 17);
    const std::string value = std::to_string(i);
    batch.append(key, value);
  }
  batch.sort_by_key();
  return batch;
}

TEST(TsanStressTest, ShufflePublishConsumeOverlap) {
  // Writers publish runs into per-job buckets while readers concurrently
  // take() from other partitions of the same jobs — the registry shared
  // lock and per-bucket mutexes are all contended at once.
  engine::ShuffleStore shuffle;
  constexpr std::uint32_t kJobs = 4;
  constexpr std::uint32_t kPartitions = 3;
  constexpr int kRunsPerWriter = 25;
  for (std::uint32_t j = 0; j < kJobs; ++j) {
    shuffle.register_job(JobId(j), kPartitions);
  }

  std::atomic<std::uint64_t> produced{0};
  std::atomic<std::uint64_t> consumed{0};
  std::vector<std::thread> threads;
  for (std::uint32_t j = 0; j < kJobs; ++j) {
    threads.emplace_back([&, j] {  // writer: publish one run per partition
      for (int r = 0; r < kRunsPerWriter; ++r) {
        std::vector<engine::KVBatch> runs;
        runs.reserve(kPartitions);
        std::uint64_t records = 0;
        for (std::uint32_t p = 0; p < kPartitions; ++p) {
          runs.push_back(make_run(j * 1000 + r, 8));
          records += runs.back().size();
        }
        shuffle.publish(JobId(j), std::move(runs));
        produced += records;
      }
    });
    threads.emplace_back([&, j] {  // appender: single-partition appends
      for (int r = 0; r < kRunsPerWriter; ++r) {
        engine::KVBatch run = make_run(j * 77 + r, 4);
        produced += run.size();
        shuffle.append(JobId(j), r % kPartitions, std::move(run));
      }
    });
    threads.emplace_back([&, j] {  // reader: drain partitions while writing
      for (int r = 0; r < kRunsPerWriter; ++r) {
        for (std::uint32_t p = 0; p < kPartitions; ++p) {
          for (const auto& run : shuffle.take(JobId(j), p)) {
            consumed += run.size();
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  // Final drain: everything produced must be taken exactly once.
  for (std::uint32_t j = 0; j < kJobs; ++j) {
    for (std::uint32_t p = 0; p < kPartitions; ++p) {
      for (const auto& run : shuffle.take(JobId(j), p)) consumed += run.size();
    }
    shuffle.unregister_job(JobId(j));
  }
  EXPECT_EQ(produced.load(), consumed.load());
}

TEST(TsanStressTest, ShuffleRegisterUnregisterChurn) {
  // Registry writers (register/unregister of disjoint job ids) churn the
  // exclusive lock while established jobs' appenders hold shared locks.
  engine::ShuffleStore shuffle;
  shuffle.register_job(JobId(1000), 2);
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> appended{0};
  std::thread appender([&] {
    std::uint64_t r = 0;
    while (!stop.load()) {
      shuffle.append(JobId(1000), static_cast<std::uint32_t>(r % 2),
                     make_run(r, 4));
      ++r;
      appended.store(r);
    }
  });
  std::vector<std::thread> churners;
  for (std::uint64_t t = 0; t < 4; ++t) {
    churners.emplace_back([&shuffle, t] {
      for (std::uint64_t i = 0; i < 50; ++i) {
        const JobId id(t * 100 + i);
        shuffle.register_job(id, 1);
        shuffle.append(id, 0, make_run(i, 2));
        (void)shuffle.take(id, 0);
        shuffle.unregister_job(id);
      }
    });
  }
  for (auto& t : churners) t.join();
  // On a loaded host the churners can finish before the appender first
  // runs; the check below is that job 1000's records survive the churn, so
  // let at least one append land before stopping it.
  while (appended.load() == 0) std::this_thread::yield();
  stop = true;
  appender.join();
  EXPECT_GT(shuffle.pending_records(JobId(1000)), 0u);
}

// --- PinnedThreadPool: stealing vs submit vs shutdown -------------------

TEST(TsanStressTest, PinnedPoolStealSubmitShutdownChurn) {
  // Multiple producers skew work onto two home deques while the other
  // workers steal, waves interleave with wait_idle from a separate thread,
  // and the pool is torn down with work still queued — the full lock surface
  // of the per-worker deques plus the coordination mutex under contention.
  std::atomic<int> executed{0};
  std::atomic<int> accepted{0};
  {
    PinnedThreadPool pool(4);
    std::vector<std::thread> producers;
    for (int p = 0; p < 3; ++p) {
      producers.emplace_back([&pool, &executed, &accepted, p] {
        for (int i = 0; i < 400; ++i) {
          if (pool.submit_to(static_cast<std::size_t>(p % 2),
                             [&executed] { ++executed; })) {
            ++accepted;
          }
        }
      });
    }
    std::thread waiter([&pool] {
      for (int i = 0; i < 10; ++i) {
        pool.wait_idle();
        std::this_thread::yield();
      }
    });
    for (auto& t : producers) t.join();
    waiter.join();
  }  // destructor drains whatever is still queued
  EXPECT_EQ(executed.load(), accepted.load());
  EXPECT_EQ(accepted.load(), 3 * 400);
}

// --- JobQueueManager: concurrent late-arrival admissions ----------------

TEST(TsanStressTest, JqmConcurrentLateArrivals) {
  // A driver thread forms/completes waves (Algorithm 1) while admission
  // threads inject late-arriving jobs — the paper's dynamic sub-job
  // adjustment under real concurrency. Every job must still scan exactly
  // file_blocks blocks before being retired.
  constexpr std::uint64_t kBlocks = 12;
  constexpr std::uint64_t kWave = 3;
  constexpr std::uint64_t kJobsPerAdmitter = 25;
  constexpr std::uint64_t kAdmitters = 3;
  sched::JobQueueManager jqm(FileId(0), kBlocks);
  jqm.admit(JobId(0));

  std::atomic<std::uint64_t> admitted{1};
  std::vector<std::thread> admitters;
  for (std::uint64_t a = 0; a < kAdmitters; ++a) {
    admitters.emplace_back([&, a] {
      for (std::uint64_t i = 0; i < kJobsPerAdmitter; ++i) {
        jqm.admit(JobId(1 + a * kJobsPerAdmitter + i),
                  static_cast<int>(i % 3));
        ++admitted;
        std::this_thread::yield();
      }
    });
  }

  std::uint64_t completed = 0;
  std::uint64_t batches = 0;
  const std::uint64_t target = 1 + kAdmitters * kJobsPerAdmitter;
  while (completed < target) {
    if (jqm.empty()) {
      std::this_thread::yield();
      continue;
    }
    const sched::Batch batch = jqm.form_batch(BatchId(batches++), kWave);
    EXPECT_GE(batch.members.size(), 1u);
    completed += jqm.complete_batch().size();
  }
  for (auto& t : admitters) t.join();
  EXPECT_EQ(completed, admitted.load());
  EXPECT_TRUE(jqm.empty());
  // Each job needs kBlocks/kWave full waves, so at least that many batches
  // ran even in the maximally-shared schedule.
  EXPECT_GE(batches, kBlocks / kWave);
}

// --- Full engine: mixed schedulers, oversubscribed slots ----------------

struct StressWorld {
  dfs::DfsNamespace ns;
  dfs::BlockStore store;
  cluster::Topology topology = cluster::Topology::uniform(4, 2);
  sched::FileCatalog catalog;
  FileId file;
  static constexpr std::uint64_t kBlocks = 10;

  StressWorld() {
    dfs::PlacementTopology ptopo;
    for (const auto& n : topology.nodes()) {
      ptopo.nodes.push_back({n.id, n.rack});
    }
    dfs::RoundRobinPlacement placement(ptopo);
    workloads::TextCorpusGenerator corpus;
    file = corpus
               .generate_file(ns, store, placement, "stress", kBlocks,
                              ByteSize::kib(4))
               .value();
    catalog.add(file, kBlocks);
  }

  std::vector<core::RealJob> jobs(std::size_t n) const {
    std::vector<core::RealJob> out;
    for (std::uint64_t j = 0; j < n; ++j) {
      core::RealJob job;
      job.spec = workloads::make_wordcount_job(
          JobId(j), file, std::string(1, static_cast<char>('a' + j % 5)),
          /*reduce_tasks=*/3, /*with_combiner=*/(j % 2) == 0);
      job.arrival = 0.05 * static_cast<double>(j);
      out.push_back(std::move(job));
    }
    return out;
  }
};

TEST(TsanStressTest, MixedSchedulersOversubscribedSlots) {
  // 12 map workers over 10 blocks (oversubscribed relative to distinct
  // blocks) and 6 reduce workers over 3-partition jobs: many merged tasks
  // of many jobs hammer the same ShuffleStore at once, under each of the
  // three scheduling schemes; all schemes must agree on every output.
  StressWorld world;
  const std::size_t kJobs = 6;
  std::vector<std::map<std::string, std::string>> reference;
  bool have_reference = false;
  for (const char* scheme : {"fifo", "mrs3", "s3"}) {
    SCOPED_TRACE(scheme);
    std::unique_ptr<sched::Scheduler> scheduler;
    if (scheme[0] == 'f') {
      scheduler = workloads::make_fifo(world.catalog);
    } else if (scheme[0] == 'm') {
      scheduler = workloads::make_mrs3(world.catalog);
    } else {
      scheduler = workloads::make_s3(world.catalog, world.topology,
                                     /*segment_blocks=*/3);
    }
    engine::LocalEngineOptions opts;
    opts.map_workers = 12;
    opts.reduce_workers = 6;
    engine::LocalEngine engine(world.ns, world.store, opts);
    core::RealDriverOptions dopts;
    dopts.time_scale = 1e5;
    dopts.map_slots = 12;
    core::RealDriver driver(world.ns, engine, world.catalog, dopts);
    auto run = driver.run(*scheduler, world.jobs(kJobs));
    ASSERT_TRUE(run.is_ok()) << run.status();
    const auto& result = run.value();
    // The scan ledger must balance: logical service == jobs x blocks.
    EXPECT_EQ(result.scan.blocks_logical, kJobs * StressWorld::kBlocks);
    std::vector<std::map<std::string, std::string>> outputs;
    outputs.reserve(kJobs);
    for (std::uint64_t j = 0; j < kJobs; ++j) {
      outputs.push_back(to_map(result.outputs.at(JobId(j))));
      EXPECT_FALSE(outputs.back().empty());
    }
    if (!have_reference) {
      reference = std::move(outputs);
      have_reference = true;
    } else {
      EXPECT_EQ(outputs, reference);
    }
  }
}

TEST(TsanStressTest, ConcurrentBatchesOverDisjointJobs) {
  // Two threads drive run_batch concurrently on the same engine with
  // disjoint job sets — the engine's leaf lock, the shuffle registry, and
  // the shared thread pools all see simultaneous waves.
  StressWorld world;
  engine::LocalEngineOptions opts;
  opts.map_workers = 8;
  opts.reduce_workers = 4;
  engine::LocalEngine engine(world.ns, world.store, opts);
  const auto& blocks = world.ns.file(world.file).blocks;

  constexpr std::uint64_t kJobsPerThread = 3;
  for (std::uint64_t j = 0; j < 2 * kJobsPerThread; ++j) {
    ASSERT_TRUE(engine
                    .register_job(workloads::make_wordcount_job(
                        JobId(j), world.file,
                        std::string(1, static_cast<char>('a' + j)), 2))
                    .is_ok());
  }
  std::atomic<int> failures{0};
  std::vector<std::thread> drivers;
  for (std::uint64_t t = 0; t < 2; ++t) {
    drivers.emplace_back([&, t] {
      for (std::uint64_t j = 0; j < kJobsPerThread; ++j) {
        const JobId id(t * kJobsPerThread + j);
        engine::BatchExec batch;
        batch.id = BatchId(t * kJobsPerThread + j);
        batch.blocks = blocks;
        batch.jobs = {id};
        if (!engine.run_batch(batch).is_ok()) ++failures;
      }
    });
  }
  for (auto& t : drivers) t.join();
  EXPECT_EQ(failures.load(), 0);

  // Every job saw the whole file once and finalizes to a sorted output.
  for (std::uint64_t j = 0; j < 2 * kJobsPerThread; ++j) {
    EXPECT_EQ(engine.counters(JobId(j)).blocks_scanned, StressWorld::kBlocks);
    auto result = engine.finalize_job(JobId(j));
    ASSERT_TRUE(result.is_ok());
    EXPECT_FALSE(result.value().output.empty());
  }
}

TEST(TsanStressTest, TracerRecordDrainToggleRace) {
  // Recorder threads hammer thread-local rings (forcing spills into the
  // global sink) while one thread drains repeatedly and another toggles
  // enabled — the full lock-order surface of obs::Tracer under contention.
  // Spans recorded after the final drain are intentionally discarded by
  // clear(); the assertion is no-crash/no-race plus a sane total.
  auto& tracer = obs::Tracer::instance();
  tracer.set_enabled(true);
  tracer.clear();

  constexpr int kRecorders = 4;
  constexpr int kPerRecorder = 20000;  // several ring spills per thread
  std::atomic<bool> stop{false};
  std::atomic<std::size_t> drained{0};
  std::atomic<std::size_t> iterations{0};
  // The toggler waits until the recorders are halfway done before flipping
  // enabled, so the first half of every recorder's spans is recorded with
  // tracing on regardless of how a one-core scheduler slices the threads —
  // that makes `drained > 0` deterministic, not a scheduling accident.
  constexpr std::size_t kToggleAfter =
      static_cast<std::size_t>(kRecorders) * kPerRecorder / 2;

  std::thread drainer([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      drained += tracer.drain().size();
      std::this_thread::yield();
    }
  });
  std::thread toggler([&] {
    while (!stop.load(std::memory_order_relaxed) &&
           iterations.load(std::memory_order_relaxed) < kToggleAfter) {
      std::this_thread::yield();
    }
    while (!stop.load(std::memory_order_relaxed)) {
      tracer.set_enabled(false);
      std::this_thread::yield();
      tracer.set_enabled(true);
      std::this_thread::yield();
    }
  });
  std::vector<std::thread> recorders;
  for (int t = 0; t < kRecorders; ++t) {
    recorders.emplace_back([&] {
      for (int i = 0; i < kPerRecorder; ++i) {
        S3_TRACE_SPAN_NAMED(span, "stress", "tick");
        span.arg("i", static_cast<std::uint64_t>(i));
        iterations.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& t : recorders) t.join();
  stop = true;
  drainer.join();
  toggler.join();
  tracer.set_enabled(false);
  drained += tracer.drain().size();

  // The toggler makes some second-half records no-ops; everything recorded
  // must be drained exactly once, the guaranteed-enabled first half in full,
  // and nothing may be dropped (sink cap is far above this volume).
  EXPECT_LE(drained.load(),
            static_cast<std::size_t>(kRecorders) * kPerRecorder);
  EXPECT_GE(drained.load(), kToggleAfter);
  EXPECT_EQ(tracer.dropped(), 0u);
  tracer.clear();
}

TEST(TsanStressTest, FlightRingWritersVersusDumper) {
  // Writer threads hammer their per-thread flight rings (marks, journal
  // records, span edges — all three producers) while one thread repeatedly
  // snapshots every ring and another dumps the merged record to a file,
  // exactly what the crash-dump path does while workers are mid-store. The
  // seqlock commit protocol must make this race-free: torn slots are
  // skipped, never surfaced. Assertions are no-race plus sane snapshots.
  auto& recorder = obs::FlightRecorder::instance();
  recorder.set_enabled(true);
  constexpr int kWriters = 4;
  constexpr std::size_t kPerWriter = 3000;

  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([w] {
      obs::CorrelationScope corr{JobId(static_cast<std::uint64_t>(w)),
                                 BatchId(1), NodeId()};
      for (std::size_t i = 0; i < kPerWriter; ++i) {
        switch (i % 3) {
          case 0:
            S3_FLIGHT_MARK("tsan.flight_mark", i, 0);
            break;
          case 1: {
            obs::JournalEvent event;
            event.type = obs::JournalEventType::kBatchLaunched;
            event.batch = BatchId(1);
            event.detail = "tsan flight stress";
            obs::EventJournal::instance().record(std::move(event));
            break;
          }
          default: {
            S3_TRACE_SPAN_NAMED(span, "tsan", "flight_span");
            break;
          }
        }
      }
    });
  }
  std::atomic<std::size_t> snapshots{0};
  std::thread snapshotter([&recorder, &stop, &snapshots] {
    while (!stop.load(std::memory_order_acquire)) {
      const auto logs = recorder.snapshot();
      for (const auto& log : logs) {
        // A consistent read: never more surviving records than capacity,
        // and sequence numbers strictly below the published head.
        EXPECT_LE(log.records.size(), obs::FlightRecorder::kRingCapacity);
        for (const auto& rec : log.records) EXPECT_LT(rec.seq, log.head);
      }
      ++snapshots;
    }
    EXPECT_GT(snapshots.load(), 0u);
  });
  std::thread dumper([&recorder, &stop] {
    const std::string path = ::testing::TempDir() + "/tsan_flight_dump.txt";
    while (!stop.load(std::memory_order_acquire)) {
      const int fd =
          ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (fd < 0) break;
      recorder.dump_to_fd(fd);
      ::close(fd);
    }
    std::remove(path.c_str());
  });
  for (auto& t : writers) t.join();
  // On a loaded host the writers can finish before the snapshotter first
  // runs; let it complete one pass so its consistency checks always run.
  while (snapshots.load() == 0) std::this_thread::yield();
  stop.store(true, std::memory_order_release);
  snapshotter.join();
  dumper.join();
}

// --- Submission service: concurrent front door vs resident driver -------

TEST(TsanStressTest, ServiceSubmittersVersusResidentDriver) {
  // The s3d shape: the resident loop runs batches and polls admitted work
  // while submitter threads hammer submit() with mixed outcomes (admits,
  // token throttles, lane bounces, sheds) and a flapper re-points quotas.
  // Every dispatched job must finish; every decision must be typed.
  StressWorld world;
  service::ServiceOptions options;
  options.global_queue_bound = 12;
  service::SubmissionService service(options);
  constexpr std::uint64_t kTenants = 3;
  for (std::uint64_t t = 0; t < kTenants; ++t) {
    service::TenantQuota quota;
    quota.rate_jobs_per_sec = 50.0;
    quota.burst = 4.0;
    quota.max_queued = 6;
    quota.max_inflight = 2;
    quota.weight = static_cast<double>(1 + t);
    ASSERT_TRUE(service
                    .register_tenant(TenantId(t), "t" + std::to_string(t),
                                     quota)
                    .is_ok());
  }

  engine::LocalEngineOptions eopts;
  eopts.map_workers = 2;
  eopts.reduce_workers = 2;
  engine::LocalEngine engine(world.ns, world.store, eopts);
  sched::S3Options s3_opts;
  s3_opts.blocks_per_segment = 5;
  sched::S3Scheduler scheduler(world.catalog, s3_opts, &world.topology);
  core::RealDriver driver(world.ns, engine, world.catalog,
                          {/*time_scale=*/1e5, /*map_slots=*/2});
  StatusOr<core::RealRunResult> result = Status::internal("not run");
  std::thread resident(
      [&] { result = driver.run_service(scheduler, service); });

  constexpr std::uint64_t kSubmitters = 3;
  constexpr std::uint64_t kJobsPerSubmitter = 8;
  std::atomic<std::uint64_t> typed_decisions{0};
  std::vector<std::thread> submitters;
  for (std::uint64_t s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&, s] {
      for (std::uint64_t i = 0; i < kJobsPerSubmitter; ++i) {
        const std::uint64_t id = s * kJobsPerSubmitter + i;
        service::Submission sub;
        sub.tenant = TenantId(id % kTenants);
        sub.spec = workloads::make_wordcount_job(
            JobId(id), world.file,
            std::string(1, static_cast<char>('a' + id % 7)),
            /*reduce_tasks=*/2);
        sub.arrival = 0.05 * static_cast<double>(id);
        sub.priority = static_cast<int>(id % 3);
        for (int attempt = 0; attempt < 3; ++attempt) {
          const auto d = service.submit(sub);
          ++typed_decisions;
          if (d.code != service::AdmitCode::kRetryAfter) break;
          sub.arrival += d.retry_after;  // modeled backoff, no sleep
        }
        std::this_thread::yield();
      }
    });
  }
  std::thread flapper([&] {
    for (int i = 0; i < 6; ++i) {
      service::TenantQuota quota;
      quota.rate_jobs_per_sec = (i % 2) == 0 ? 5.0 : 50.0;
      quota.burst = 2.0;
      quota.max_queued = (i % 2) == 0 ? 2 : 6;
      quota.max_inflight = 2;
      EXPECT_TRUE(service
                      .set_quota(TenantId(static_cast<std::uint64_t>(i) %
                                          kTenants),
                                 quota, 0.1 * i)
                      .is_ok());
      std::this_thread::yield();
    }
  });
  for (auto& t : submitters) t.join();
  flapper.join();
  service.close();
  resident.join();

  ASSERT_TRUE(result.is_ok()) << result.status();
  EXPECT_GE(typed_decisions.load(), kSubmitters * kJobsPerSubmitter);
  const auto counts = service.counts();
  EXPECT_EQ(counts.dispatched, counts.finished);
  EXPECT_EQ(result.value().outputs.size() + result.value().failed.size(),
            counts.dispatched);
  EXPECT_TRUE(service.drained());
}

TEST(TsanStressTest, ServiceSubmitPollFinishChurnWithoutDriver) {
  // Pure service churn: submitters, a poller that dispatches and finishes,
  // and a shedder-heavy global bound, all racing. Checks the internal
  // accounting (queued/inflight/counts) stays coherent without the engine.
  service::ServiceOptions options;
  options.global_queue_bound = 4;
  service::SubmissionService service(options);
  for (std::uint64_t t = 0; t < 2; ++t) {
    service::TenantQuota quota;
    quota.rate_jobs_per_sec = 1000.0;
    quota.burst = 100.0;
    quota.max_queued = 4;
    quota.max_inflight = 3;
    ASSERT_TRUE(service
                    .register_tenant(TenantId(t), "t" + std::to_string(t),
                                     quota)
                    .is_ok());
  }
  std::atomic<bool> done{false};
  std::thread poller([&] {
    std::uint64_t finished = 0;
    while (!done.load(std::memory_order_acquire) || !service.drained()) {
      for (auto& job : service.poll_admitted(1e9)) {
        service.on_job_finished(job.submission.spec.id);
        ++finished;
      }
      std::this_thread::yield();
    }
    EXPECT_GT(finished, 0u);
  });
  std::vector<std::thread> submitters;
  for (std::uint64_t s = 0; s < 3; ++s) {
    submitters.emplace_back([&, s] {
      for (std::uint64_t i = 0; i < 40; ++i) {
        service::Submission sub;
        sub.tenant = TenantId(i % 2);
        sub.spec = workloads::make_wordcount_job(
            JobId(s * 40 + i), FileId(0), "a", 1);
        sub.arrival = 0.01 * static_cast<double>(i);
        sub.priority = static_cast<int>(i % 2);
        (void)service.submit(sub);
        std::this_thread::yield();
      }
    });
  }
  for (auto& t : submitters) t.join();
  done.store(true, std::memory_order_release);
  poller.join();
  const auto counts = service.counts();
  EXPECT_EQ(counts.submitted, 120u);
  EXPECT_EQ(counts.dispatched, counts.finished);
  // Every submission got exactly one terminal classification. Displaced
  // victims were admitted first, so `shed` double-counts them vs the
  // submitted tally; subtract the victim records.
  EXPECT_EQ(counts.admitted + counts.rejected + counts.retry_after +
                counts.shed - service.shed_log().size(),
            counts.submitted);
}

}  // namespace
}  // namespace s3
