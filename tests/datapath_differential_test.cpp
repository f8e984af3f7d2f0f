// Differential test for the engine's data-path overhaul: the flat-batch path
// (KVBatch + hash combine + sorted-run k-way merge) must produce job output
// byte-identical to the legacy owned-string sort path, for every workload
// family (wordcount, heavy wordcount, TPC-H selection, aggregation) and every
// scheduler (FIFO, MRShare, S3), with matching record-level counters.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/real_driver.h"
#include "workloads/aggregation.h"
#include "workloads/suite.h"
#include "workloads/text_corpus.h"
#include "workloads/tpch.h"
#include "workloads/wordcount.h"

namespace s3 {
namespace {

struct World {
  dfs::DfsNamespace ns;
  dfs::BlockStore store;
  cluster::Topology topology = cluster::Topology::uniform(3, 1);
  sched::FileCatalog catalog;
  std::uint64_t num_blocks = 8;
  FileId text_file;
  FileId lineitem_file;

  World() {
    dfs::PlacementTopology ptopo;
    for (const auto& n : topology.nodes()) {
      ptopo.nodes.push_back({n.id, n.rack});
    }
    dfs::RoundRobinPlacement placement(ptopo);
    workloads::TextCorpusGenerator corpus;
    text_file = corpus
                    .generate_file(ns, store, placement, "text", num_blocks,
                                   ByteSize::kib(8))
                    .value();
    workloads::tpch::LineitemGenerator lineitem;
    lineitem_file = lineitem
                        .generate_file(ns, store, placement, "lineitem",
                                       num_blocks, ByteSize::kib(8))
                        .value();
    catalog.add(text_file, num_blocks);
    catalog.add(lineitem_file, num_blocks);
  }
};

std::vector<core::RealJob> make_jobs(const World& world) {
  std::vector<core::RealJob> jobs;
  jobs.push_back({workloads::make_wordcount_job(JobId(0), world.text_file, "t",
                                                3, /*with_combiner=*/true),
                  0.0, 0});
  jobs.push_back({workloads::make_wordcount_job(JobId(1), world.text_file, "a",
                                                2, /*with_combiner=*/false),
                  0.5, 0});
  jobs.push_back(
      {workloads::make_heavy_wordcount_job(JobId(2), world.text_file, 3, 2),
       1.0, 0});
  jobs.push_back(
      {workloads::tpch::make_selection_job(JobId(3), world.lineitem_file, 5, 2),
       0.0, 0});
  jobs.push_back(
      {workloads::make_avg_price_job(JobId(4), world.lineitem_file, 2), 1.5,
       0});
  return jobs;
}

// Runs the full job mix under `scheme` with the given data path; returns
// per-job outputs (already key-sorted by finalize_job).
std::unordered_map<JobId, engine::JobResult> run_mix(
    World& world, const char* scheme, engine::DataPath data_path,
    std::unordered_map<JobId, engine::JobCounters>* counters_out = nullptr) {
  std::unique_ptr<sched::Scheduler> scheduler;
  if (scheme[0] == 'f') {
    scheduler = workloads::make_fifo(world.catalog);
  } else if (scheme[0] == 'm') {
    scheduler = workloads::make_mrs3(world.catalog);
  } else {
    scheduler = workloads::make_s3(world.catalog, world.topology, 4);
  }
  engine::LocalEngineOptions opts;
  opts.map_workers = 3;
  opts.reduce_workers = 2;
  opts.data_path = data_path;
  engine::LocalEngine engine(world.ns, world.store, opts);
  core::RealDriver driver(world.ns, engine, world.catalog,
                          {/*time_scale=*/1e5});
  auto run = driver.run(*scheduler, make_jobs(world));
  EXPECT_TRUE(run.is_ok()) << scheme << ": " << run.status();
  if (counters_out != nullptr) *counters_out = run.value().counters;
  return std::move(run.value().outputs);
}

TEST(DataPathDifferentialTest, FlatBatchMatchesLegacySortByteForByte) {
  for (const char* scheme : {"fifo", "mrs3", "s3"}) {
    SCOPED_TRACE(scheme);
    World world;
    std::unordered_map<JobId, engine::JobCounters> flat_counters;
    std::unordered_map<JobId, engine::JobCounters> legacy_counters;
    const auto flat =
        run_mix(world, scheme, engine::DataPath::kFlatBatch, &flat_counters);
    const auto legacy =
        run_mix(world, scheme, engine::DataPath::kLegacySort, &legacy_counters);
    ASSERT_EQ(flat.size(), legacy.size());
    for (const auto& [job, result] : legacy) {
      SCOPED_TRACE("job " + std::to_string(job.value()));
      const auto it = flat.find(job);
      ASSERT_NE(it, flat.end());
      // finalize_job returns key-sorted output; the records themselves must
      // be byte-identical.
      ASSERT_EQ(it->second.output.size(), result.output.size());
      for (std::size_t i = 0; i < result.output.size(); ++i) {
        EXPECT_EQ(it->second.output[i].key, result.output[i].key);
        EXPECT_EQ(it->second.output[i].value, result.output[i].value);
      }
      // Record-level counters must agree: same emits, same combine
      // shrinkage, same reduce groups/records.
      const auto& fc = flat_counters.at(job);
      const auto& lc = legacy_counters.at(job);
      EXPECT_EQ(fc.map_output_records, lc.map_output_records);
      EXPECT_EQ(fc.map_output_bytes, lc.map_output_bytes);
      EXPECT_EQ(fc.combine_output_records, lc.combine_output_records);
      EXPECT_EQ(fc.reduce_output_records, lc.reduce_output_records);
      EXPECT_EQ(fc.reduce_output_bytes, lc.reduce_output_bytes);
    }
  }
}

// The same differential, through the engine's batch API directly (no
// scheduler): multi-batch sub-job execution with incremental merging, which
// exercises re_reduce over partial outputs from both data paths.
TEST(DataPathDifferentialTest, SubJobIncrementalMergeMatches) {
  World world;
  const auto& blocks = world.ns.file(world.text_file).blocks;
  std::unordered_map<int, engine::JobResult> results;
  for (const bool legacy : {false, true}) {
    engine::LocalEngineOptions opts;
    opts.map_workers = 3;
    opts.reduce_workers = 2;
    opts.incremental_merge = true;
    opts.data_path = legacy ? engine::DataPath::kLegacySort
                            : engine::DataPath::kFlatBatch;
    engine::LocalEngine engine(world.ns, world.store, opts);
    ASSERT_TRUE(engine
                    .register_job(workloads::make_wordcount_job(
                        JobId(0), world.text_file, "", 3))
                    .is_ok());
    // Two-block segments, executed as consecutive sub-job batches.
    for (std::size_t i = 0; i < blocks.size(); i += 2) {
      std::vector<BlockId> segment(blocks.begin() + i,
                                   blocks.begin() + i + 2);
      ASSERT_TRUE(engine
                      .run_batch({BatchId(i / 2), segment, {JobId(0)}})
                      .is_ok());
    }
    auto result = engine.finalize_job(JobId(0));
    ASSERT_TRUE(result.is_ok());
    results[legacy ? 1 : 0] = std::move(result).value();
  }
  ASSERT_EQ(results[0].output.size(), results[1].output.size());
  for (std::size_t i = 0; i < results[0].output.size(); ++i) {
    EXPECT_EQ(results[0].output[i].key, results[1].output[i].key);
    EXPECT_EQ(results[0].output[i].value, results[1].output[i].value);
  }
}

}  // namespace
}  // namespace s3
