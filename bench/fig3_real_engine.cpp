// Figure 3 on the *real* engine: n wordcount jobs combined into one shared
// scan over a scaled-down corpus, measuring actual wall time of the threaded
// execution (not the simulator). The paper's claim — combining n jobs costs
// far less than n times one job — must hold for real bytes too: the wall
// time of the combined batch grows mildly with n while the work delivered
// (logical scans) grows n-fold.
#include <chrono>
#include <cstdio>

#include "harness.h"

int main(int argc, char** argv) {
  using namespace s3;
  const Flags flags = Flags::parse(argc, argv);
  // --trace-out=<path>: Chrome/Perfetto trace of every combined/sequential
  // batch (map/reduce task spans + shuffle merges).
  obs::TraceSession trace_session(flags);

  // 48 blocks x 128 KiB = 6 MiB corpus; enough records that map work
  // dominates thread-pool overheads.
  constexpr std::uint64_t kBlocks = 48;
  const ByteSize kBlockSize = ByteSize::kib(128);

  dfs::DfsNamespace ns;
  dfs::BlockStore store;
  dfs::PlacementTopology ptopo;
  for (std::uint64_t n = 0; n < 4; ++n) {
    ptopo.nodes.push_back({NodeId(n), RackId(n / 2)});
  }
  dfs::RoundRobinPlacement placement(ptopo);
  workloads::TextCorpusGenerator corpus;
  const FileId file =
      corpus.generate_file(ns, store, placement, "fig3", kBlocks, kBlockSize)
          .value();
  const auto& blocks = ns.file(file).blocks;

  // For each n: one combined shared-scan batch vs the same n jobs run as n
  // sequential whole-file batches. The wall-time ratio is the real-engine
  // analogue of Figure 3's saving; the scan ledger proves the combined batch
  // reads each block exactly once.
  const auto run_jobs = [&](std::uint64_t n, bool combined,
                            std::uint64_t* physical_blocks) {
    engine::LocalEngineOptions eopts;
    eopts.map_workers = 4;
    eopts.reduce_workers = 2;
    engine::LocalEngine engine(ns, store, eopts);
    std::vector<JobId> job_ids;
    for (std::uint64_t j = 0; j < n; ++j) {
      const std::string prefix(1, static_cast<char>('a' + j));
      S3_CHECK(engine
                   .register_job(workloads::make_wordcount_job(
                       JobId(j), file, prefix, 4))
                   .is_ok());
      job_ids.push_back(JobId(j));
    }
    const auto start = std::chrono::steady_clock::now();
    if (combined) {
      S3_CHECK(engine.run_batch({BatchId(0), blocks, job_ids}).is_ok());
    } else {
      for (std::uint64_t j = 0; j < n; ++j) {
        S3_CHECK(
            engine.run_batch({BatchId(j), blocks, {JobId(j)}}).is_ok());
      }
    }
    const double wall = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - start)
                            .count();
    if (physical_blocks != nullptr) {
      *physical_blocks = engine.scan_counters().blocks_physical;
    }
    for (const JobId j : job_ids) S3_CHECK(engine.finalize_job(j).is_ok());
    return wall;
  };

  metrics::TableWriter table({"n jobs", "combined (ms)", "sequential (ms)",
                              "combined/sequential", "physical blocks",
                              "blocks saved"});
  for (std::uint64_t n = 1; n <= 10; ++n) {
    std::uint64_t physical = 0;
    const double combined = run_jobs(n, true, &physical);
    const double sequential = run_jobs(n, false, nullptr);
    S3_CHECK_MSG(physical == kBlocks,
                 "combined batch must read each block exactly once");
    table.add_row({std::to_string(n), format_double(combined, 1),
                   format_double(sequential, 1),
                   format_double(combined / sequential, 2),
                   std::to_string(physical),
                   std::to_string((n - 1) * kBlocks)});
  }
  std::printf("=== Figure 3 (real engine) — combined vs sequential "
              "execution over a %llu x %s corpus ===\n%s",
              static_cast<unsigned long long>(kBlocks),
              kBlockSize.to_string().c_str(), table.render().c_str());
  std::printf("the combined batch reads every block once (column 5) and is "
              "cheaper than sequential execution; with in-memory payloads "
              "the saving is the record-iteration overlap — on disk-bound "
              "clusters (the paper's) the saved physical reads dominate\n\n");
  return 0;
}
