// Micro-benchmarks (google-benchmark) for the hot paths: the shared-scan
// record reader, shuffle sort/group, the Job Queue Manager's batch formation,
// and a full simulator iteration.
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdlib>

#include "common/crc32.h"
#include "common/pinned_thread_pool.h"
#include "engine/arena_pool.h"
#include "core/s3.h"
#include "dfs/tokenize.h"

namespace {

using namespace s3;

dfs::Payload make_text_payload(std::size_t bytes) {
  workloads::TextCorpusGenerator corpus;
  return std::make_shared<const std::string>(
      corpus.generate_block(0, ByteSize(bytes)));
}

void BM_LineRecordReader(benchmark::State& state) {
  const auto payload = make_text_payload(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    dfs::LineRecordReader reader(payload);
    dfs::Record record;
    std::uint64_t records = 0;
    while (reader.next(record)) ++records;
    benchmark::DoNotOptimize(records);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(payload->size()));
}
BENCHMARK(BM_LineRecordReader)->Arg(64 << 10)->Arg(1 << 20);

void BM_SharedScanReader(benchmark::State& state) {
  const auto payload = make_text_payload(256 << 10);
  const auto consumers = state.range(0);
  for (auto _ : state) {
    dfs::SharedScanReader reader(payload);
    std::uint64_t sink = 0;
    for (std::int64_t c = 0; c < consumers; ++c) {
      reader.add_consumer([&sink](dfs::RecordChunk chunk) {
        for (const dfs::Record& r : chunk) sink += r.data.size();
      });
    }
    benchmark::DoNotOptimize(reader.scan());
    benchmark::DoNotOptimize(sink);
  }
  // Logical bytes served per wall second — the shared-scan win shows as
  // near-flat time while this rises with the consumer count.
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(payload->size()) *
                          consumers);
}
BENCHMARK(BM_SharedScanReader)->Arg(1)->Arg(2)->Arg(4)->Arg(10);

// CRC-32 over one block-sized payload: the verification BlockStore::get runs
// on every fetch (and put on every write). The ledger's blocks are 256 KiB
// and 1 MiB.
void BM_Crc32(benchmark::State& state) {
  const auto payload =
      make_text_payload(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(crc32(*payload));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(payload->size()));
}
BENCHMARK(BM_Crc32)->Arg(4096)->Arg(256 << 10)->Arg(1 << 20);

// Shuffle-side sort+group on the representation the engine actually ships:
// records live in a flat KVBatch arena, are sorted in place, and grouped by
// the run merger (a map-side run entering the reduce path). The owned-string
// variant this replaced stagnated across PR 1 because it never moved off the
// legacy representation; it is kept below as _Legacy for comparison.
void BM_ShuffleSortAndGroup(benchmark::State& state) {
  Rng rng(7);
  engine::KVBatch batch;
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    batch.append("key" + std::to_string(rng.uniform_u64(1000)), "1");
  }
  for (auto _ : state) {
    std::vector<engine::KVBatch> runs(1);
    runs[0] = batch;
    runs[0].sort_by_key();
    std::uint64_t groups = engine::merge_runs_and_group(
        runs, [](std::string_view, const std::vector<std::string_view>&) {});
    benchmark::DoNotOptimize(groups);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_ShuffleSortAndGroup)->Arg(1 << 12)->Arg(1 << 16);

void BM_ShuffleSortAndGroup_Legacy(benchmark::State& state) {
  Rng rng(7);
  std::vector<engine::KeyValue> records;
  records.reserve(static_cast<std::size_t>(state.range(0)));
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    records.push_back(engine::KeyValue{
        "key" + std::to_string(rng.uniform_u64(1000)), "1"});
  }
  for (auto _ : state) {
    auto copy = records;
    std::uint64_t groups = engine::sort_and_group(
        std::move(copy),
        [](const std::string&, const std::vector<std::string>&) {});
    benchmark::DoNotOptimize(groups);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_ShuffleSortAndGroup_Legacy)->Arg(1 << 12)->Arg(1 << 16);

// The flat path's in-map combining: same key distribution as
// BM_ShuffleSortAndGroup, grouped by hashing over the arena instead of
// sorting owned strings — the direct replacement measurement.
void BM_HashCombine(benchmark::State& state) {
  Rng rng(7);
  engine::KVBatch batch;
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    batch.append("key" + std::to_string(rng.uniform_u64(1000)), "1");
  }
  for (auto _ : state) {
    std::uint64_t groups = engine::hash_group(
        batch, [](std::string_view, const std::vector<std::string_view>&) {});
    benchmark::DoNotOptimize(groups);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_HashCombine)->Arg(1 << 12)->Arg(1 << 16);

// The flat path's reduce-side grouping: k sorted runs k-way merged, vs the
// legacy from-scratch global sort over the same record count.
void BM_SortedRunMerge(benchmark::State& state) {
  Rng rng(7);
  constexpr std::int64_t kRuns = 16;
  std::vector<engine::KVBatch> runs(kRuns);
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    runs[static_cast<std::size_t>(i % kRuns)].append(
        "key" + std::to_string(rng.uniform_u64(1000)), "1");
  }
  for (auto& run : runs) run.sort_by_key();
  for (auto _ : state) {
    std::uint64_t groups = engine::merge_runs_and_group(
        runs, [](std::string_view, const std::vector<std::string_view>&) {});
    benchmark::DoNotOptimize(groups);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_SortedRunMerge)->Arg(1 << 12)->Arg(1 << 16);

// Full map-side data path on real bytes: one block scanned once for n member
// wordcount jobs (empty prefix = every word emitted), combined and published
// to the shuffle store. Items = map output records across all members, so
// items/sec is the engine's end-to-end map throughput.
void BM_MapRunnerEndToEnd(benchmark::State& state) {
  const std::int64_t members = state.range(0);
  dfs::BlockStore store;
  workloads::TextCorpusGenerator corpus;
  S3_CHECK(store.put(BlockId(0), corpus.generate_block(0, ByteSize(256 << 10)))
               .is_ok());
  dfs::StoredBlocks source(store);

  std::vector<engine::JobSpec> specs;
  specs.reserve(static_cast<std::size_t>(members));
  for (std::int64_t j = 0; j < members; ++j) {
    specs.push_back(workloads::make_wordcount_job(
        JobId(static_cast<std::uint64_t>(j)), FileId(0), "", 4,
        /*with_combiner=*/true));
  }

  std::uint64_t records_per_iter = 0;
  for (auto _ : state) {
    engine::ShuffleStore shuffle;
    for (const auto& spec : specs) {
      shuffle.register_job(spec.id, spec.num_reduce_tasks);
    }
    engine::MapRunner runner(source, shuffle);
    engine::MapTaskSpec task;
    task.id = TaskId(0);
    task.block = BlockId(0);
    for (const auto& spec : specs) task.jobs.push_back(&spec);
    auto outcome = runner.run(task);
    S3_CHECK(outcome.is_ok());
    records_per_iter = 0;
    for (const auto& [job, counters] : outcome.value().per_job) {
      records_per_iter += counters.map_output_records;
    }
    benchmark::DoNotOptimize(outcome);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(records_per_iter));
}
BENCHMARK(BM_MapRunnerEndToEnd)->Arg(1)->Arg(4)->Arg(10);

// Runs one map task over block 0 of `source` for all of `specs` per
// iteration, on one thread, with arenas recycled through a BatchArenaPool as
// the engine does. s_per_member is task time divided by members, so a merged
// task that costs what its members' solo tasks cost reads the same at 10
// members as at 1.
void run_member_tasks(benchmark::State& state, const dfs::BlockSource& source,
                      const std::vector<engine::JobSpec>& specs) {
  engine::BatchArenaPool arenas(1);
  for (auto _ : state) {
    engine::ShuffleStore shuffle;
    for (const auto& spec : specs) {
      shuffle.register_job(spec.id, spec.num_reduce_tasks);
    }
    engine::MapRunner runner(source, shuffle);
    runner.set_locality(&arenas, nullptr, 0);
    engine::MapTaskSpec task;
    task.id = TaskId(0);
    task.block = BlockId(0);
    for (const auto& spec : specs) task.jobs.push_back(&spec);
    auto outcome = runner.run(task);
    S3_CHECK(outcome.is_ok());
    benchmark::DoNotOptimize(outcome);
    // Hand the published runs back to the pool, as a reduce task would.
    for (const auto& spec : specs) {
      for (std::uint32_t p = 0; p < spec.num_reduce_tasks; ++p) {
        for (auto& run : shuffle.take(spec.id, p)) {
          arenas.release(0, std::move(run));
        }
      }
    }
  }
  state.counters["s_per_member"] = benchmark::Counter(
      static_cast<double>(specs.size()),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}

// The merged-task cost model for heavy wordcount: one 1 MiB block scanned
// once for n heavy members (amplify 2) with p reduce partitions each. Args
// are {members, partitions}.
void BM_MapRunnerHeavy(benchmark::State& state) {
  const std::int64_t members = state.range(0);
  const auto partitions = static_cast<std::uint32_t>(state.range(1));
  dfs::BlockStore store;
  workloads::TextCorpusGenerator corpus;
  S3_CHECK(store.put(BlockId(0), corpus.generate_block(0, ByteSize(1 << 20)))
               .is_ok());
  dfs::StoredBlocks source(store);

  std::vector<engine::JobSpec> specs;
  specs.reserve(static_cast<std::size_t>(members));
  for (std::int64_t j = 0; j < members; ++j) {
    specs.push_back(workloads::make_heavy_wordcount_job(
        JobId(static_cast<std::uint64_t>(j)), FileId(0), 2, partitions));
  }
  run_member_tasks(state, source, specs);
}
BENCHMARK(BM_MapRunnerHeavy)
    ->ArgsProduct({{1, 10}, {1, 8, 32}})
    ->Unit(benchmark::kMillisecond);

// The same for the prefix wordcount of the sparse_wordcount and s3d_poisson
// ledger workloads: one 1 MiB block scanned once for n members with the
// one-letter prefixes a, b, c, ..., combiner on, 8 reduce partitions each.
// Prefixes match different shares of the words, so s_per_member at 10
// members also averages over prefixes. Bytes/s counts the block once per
// task.
void BM_MapRunnerPrefix(benchmark::State& state) {
  const std::int64_t members = state.range(0);
  dfs::BlockStore store;
  workloads::TextCorpusGenerator corpus;
  const std::string block = corpus.generate_block(0, ByteSize(1 << 20));
  S3_CHECK(store.put(BlockId(0), block).is_ok());
  dfs::StoredBlocks source(store);

  std::vector<engine::JobSpec> specs;
  specs.reserve(static_cast<std::size_t>(members));
  for (std::int64_t j = 0; j < members; ++j) {
    specs.push_back(workloads::make_wordcount_job(
        JobId(static_cast<std::uint64_t>(j)), FileId(0),
        std::string(1, static_cast<char>('a' + j % 26)), 8,
        /*with_combiner=*/true));
  }
  run_member_tasks(state, source, specs);
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(block.size()));
}
BENCHMARK(BM_MapRunnerPrefix)->Arg(1)->Arg(10)->Unit(benchmark::kMillisecond);

// The same for the TPC-H selections of the selection_generated ledger
// workload: one 1 MiB lineitem block scanned once for n selection members
// with the bounds l_quantity <= 1, 2, 3, 4, 5 in turn, 8 reduce partitions
// each. Bytes/s counts the block once per task.
void BM_MapRunnerSelection(benchmark::State& state) {
  const std::int64_t members = state.range(0);
  dfs::BlockStore store;
  const workloads::tpch::LineitemGenerator lineitem;
  const std::string block = lineitem.generate_block(0, ByteSize(1 << 20));
  S3_CHECK(store.put(BlockId(0), block).is_ok());
  dfs::StoredBlocks source(store);

  std::vector<engine::JobSpec> specs;
  specs.reserve(static_cast<std::size_t>(members));
  for (std::int64_t j = 0; j < members; ++j) {
    specs.push_back(workloads::tpch::make_selection_job(
        JobId(static_cast<std::uint64_t>(j)), FileId(0),
        1 + static_cast<int>(j % 5), 8));
  }
  run_member_tasks(state, source, specs);
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(block.size()));
}
BENCHMARK(BM_MapRunnerSelection)
    ->Arg(1)
    ->Arg(10)
    ->Unit(benchmark::kMillisecond);

// Output collection alone: a LocalEngine (4 map, 4 reduce workers) runs one
// heavy wordcount job (amplify 2) as `batches` one-block batches over
// 256 KiB blocks, untimed; only finalize_job is timed. Two or more batches
// fold each partition's runs on the reduce pool, then every run merges into
// the key-ordered output. Args are {batches, partitions}.
void BM_FinalizeJob(benchmark::State& state) {
  const auto batches = static_cast<std::uint64_t>(state.range(0));
  const auto partitions = static_cast<std::uint32_t>(state.range(1));
  dfs::DfsNamespace ns;
  dfs::BlockStore store;
  workloads::TextCorpusGenerator corpus;
  dfs::PlacementTopology topo;
  topo.nodes.push_back({NodeId(0), RackId(0)});
  dfs::RoundRobinPlacement placement(topo);
  const FileId file = corpus
                          .generate_file(ns, store, placement, "corpus",
                                         batches, ByteSize::kib(256))
                          .value();
  engine::LocalEngineOptions options;
  options.map_workers = 4;
  options.reduce_workers = 4;
  engine::LocalEngine engine(ns, store, options);
  const std::vector<BlockId>& blocks = ns.file(file).blocks;

  std::uint64_t next_id = 0;
  std::uint64_t records = 0;
  for (auto _ : state) {
    state.PauseTiming();
    const JobId job(next_id);
    S3_CHECK(engine
                 .register_job(workloads::make_heavy_wordcount_job(
                     job, file, /*amplify=*/2, partitions))
                 .is_ok());
    for (const BlockId block : blocks) {
      S3_CHECK(engine.run_batch({BatchId(next_id), {block}, {job}}).is_ok());
    }
    ++next_id;
    state.ResumeTiming();
    auto result = engine.finalize_job(job);
    S3_CHECK(result.is_ok());
    records = result.value().output.size();
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(records));
}
// UseRealTime: the folds run on the reduce pool's threads. A fixed
// iteration count, because each iteration first runs its batches untimed.
BENCHMARK(BM_FinalizeJob)
    ->ArgsProduct({{1, 8}, {1, 8}})
    ->Iterations(20)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Same map-side data path fanned out over the work-stealing pool: one block
// per map task, `workers` pinned-pool workers, arena pool recycling batches
// per worker shard. Args are {members, workers}. Distinct name from
// BM_MapRunnerEndToEnd so the check.sh trace-overhead guard's anchor
// (^BM_MapRunnerEndToEnd/4$) keeps matching exactly one benchmark.
void BM_MapRunnerEndToEndThreads(benchmark::State& state) {
  const std::int64_t members = state.range(0);
  const std::size_t workers = static_cast<std::size_t>(state.range(1));
  constexpr std::uint64_t kBlocks = 4;
  dfs::BlockStore store;
  workloads::TextCorpusGenerator corpus;
  for (std::uint64_t b = 0; b < kBlocks; ++b) {
    S3_CHECK(store.put(BlockId(b), corpus.generate_block(b, ByteSize(64 << 10)))
                 .is_ok());
  }
  dfs::StoredBlocks source(store);

  std::vector<engine::JobSpec> specs;
  specs.reserve(static_cast<std::size_t>(members));
  for (std::int64_t j = 0; j < members; ++j) {
    specs.push_back(workloads::make_wordcount_job(
        JobId(static_cast<std::uint64_t>(j)), FileId(0), "", 4,
        /*with_combiner=*/true));
  }

  PinnedThreadPoolOptions pool_options;
  pool_options.num_threads = workers;
  PinnedThreadPool pool(pool_options);
  engine::BatchArenaPool arenas(workers);

  std::uint64_t records_per_iter = 0;
  for (auto _ : state) {
    engine::ShuffleStore shuffle;
    for (const auto& spec : specs) {
      shuffle.register_job(spec.id, spec.num_reduce_tasks);
    }
    engine::MapRunner runner(source, shuffle);
    runner.set_locality(&arenas, &pool, 0);
    std::atomic<std::uint64_t> records{0};
    for (std::uint64_t b = 0; b < kBlocks; ++b) {
      const bool accepted = pool.submit_to(b % workers, [&, b] {
        engine::MapTaskSpec task;
        task.id = TaskId(b);
        task.block = BlockId(b);
        for (const auto& spec : specs) task.jobs.push_back(&spec);
        auto outcome = runner.run(task);
        S3_CHECK(outcome.is_ok());
        std::uint64_t sum = 0;
        for (const auto& [job, counters] : outcome.value().per_job) {
          sum += counters.map_output_records;
        }
        records.fetch_add(sum, std::memory_order_relaxed);
      });
      S3_CHECK(accepted);
    }
    pool.wait_idle();
    records_per_iter = records.load();
    benchmark::DoNotOptimize(records_per_iter);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(records_per_iter));
}
// UseRealTime: the work runs on pool threads, so main-thread CPU time
// would wildly overstate throughput.
BENCHMARK(BM_MapRunnerEndToEndThreads)
    ->Args({4, 1})
    ->Args({4, 2})
    ->Args({4, 4})
    ->UseRealTime();

// Raw pool overhead: submit a wave of trivial tasks and wait for idle.
// Items/sec is the task dispatch+steal+complete rate ceiling.
void BM_PinnedPoolSubmit(benchmark::State& state) {
  PinnedThreadPoolOptions options;
  options.num_threads = static_cast<std::size_t>(state.range(0));
  PinnedThreadPool pool(options);
  constexpr int kTasksPerWave = 1024;
  for (auto _ : state) {
    std::atomic<std::uint64_t> sink{0};
    for (int i = 0; i < kTasksPerWave; ++i) {
      const bool accepted = pool.submit(
          [&sink] { sink.fetch_add(1, std::memory_order_relaxed); });
      S3_CHECK(accepted);
    }
    pool.wait_idle();
    benchmark::DoNotOptimize(sink.load());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kTasksPerWave);
}
BENCHMARK(BM_PinnedPoolSubmit)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

// Tokenizer scan throughput per mode over corpus text. Arg 0 = scalar
// oracle, 1 = SWAR, 2 = SSE2 (falls back to SWAR where unavailable).
void BM_Tokenize(benchmark::State& state) {
  const dfs::TokenizeMode mode =
      state.range(0) == 0   ? dfs::TokenizeMode::kScalar
      : state.range(0) == 1 ? dfs::TokenizeMode::kSwar
                            : dfs::TokenizeMode::kSimd;
  workloads::TextCorpusGenerator corpus;
  const std::string text = corpus.generate_block(0, ByteSize(256 << 10));
  dfs::set_tokenize_mode(mode);
  for (auto _ : state) {
    std::uint64_t words = 0;
    std::uint64_t bytes = 0;
    dfs::for_each_word(text, [&](std::string_view w) {
      ++words;
      bytes += w.size();
    });
    benchmark::DoNotOptimize(words);
    benchmark::DoNotOptimize(bytes);
  }
  dfs::set_tokenize_mode(dfs::TokenizeMode::kAuto);
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(text.size()));
}
BENCHMARK(BM_Tokenize)->Arg(0)->Arg(1)->Arg(2);

void BM_JobQueueManagerCycle(benchmark::State& state) {
  const std::uint64_t file_blocks = 2560;
  const std::uint64_t wave = 320;
  const auto jobs = state.range(0);
  for (auto _ : state) {
    sched::JobQueueManager jqm(FileId(0), file_blocks);
    for (std::int64_t j = 0; j < jobs; ++j) jqm.admit(JobId(static_cast<std::uint64_t>(j)));
    std::uint64_t batches = 0;
    while (!jqm.empty()) {
      auto batch = jqm.form_batch(BatchId(batches++), wave);
      benchmark::DoNotOptimize(batch);
      jqm.complete_batch();
    }
    benchmark::DoNotOptimize(batches);
  }
}
BENCHMARK(BM_JobQueueManagerCycle)->Arg(1)->Arg(10)->Arg(100);

void BM_SimulatedSparseRun(benchmark::State& state) {
  const auto setup = workloads::make_paper_setup(64.0);
  const auto jobs = workloads::make_sim_jobs(
      setup.wordcount_file, workloads::paper_sparse_arrivals(),
      sim::WorkloadCost::wordcount_normal());
  for (auto _ : state) {
    auto scheduler = workloads::make_s3(setup.catalog, setup.topology,
                                        setup.default_segment_blocks());
    sim::SimConfig config;
    config.cost = setup.cost;
    sim::SimEngine engine(setup.topology, setup.catalog, config);
    auto run = engine.run(*scheduler, jobs);
    benchmark::DoNotOptimize(run);
  }
}
BENCHMARK(BM_SimulatedSparseRun);

}  // namespace

// Like BENCHMARK_MAIN(), plus an S3_TRACE=1 environment switch that turns
// the span tracer on for the whole run — the bench overhead guard in
// scripts/check.sh compares the same benchmark with tracing off and on.
// Events stay in the tracer's bounded sink (dropped beyond the cap, never
// unbounded); no trace file is written.
int main(int argc, char** argv) {
  const char* trace = std::getenv("S3_TRACE");
  if (trace != nullptr && trace[0] == '1') {
    s3::obs::Tracer::instance().set_enabled(true);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
