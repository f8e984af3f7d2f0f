// Integration tests: every scheduler drives the real threaded engine over
// real bytes, and all of them must produce byte-identical job outputs —
// scheduling may only change *when* things run, never *what* is computed.
#include <gtest/gtest.h>

#include <map>

#include "core/real_driver.h"
#include "sched/mrshare.h"
#include "workloads/suite.h"
#include "workloads/text_corpus.h"
#include "workloads/tpch.h"
#include "workloads/wordcount.h"

namespace s3::core {
namespace {

engine::LocalEngineOptions workers(std::size_t map, std::size_t reduce) {
  engine::LocalEngineOptions opts;
  opts.map_workers = map;
  opts.reduce_workers = reduce;
  return opts;
}

class RealDriverTest : public ::testing::Test {
 protected:
  static constexpr std::uint64_t kBlocks = 12;

  void SetUp() override {
    topology_ = cluster::Topology::uniform(4, 2);
    dfs::PlacementTopology ptopo;
    for (const auto& n : topology_.nodes()) {
      ptopo.nodes.push_back({n.id, n.rack});
    }
    dfs::RoundRobinPlacement placement(ptopo);
    workloads::TextCorpusGenerator corpus;
    auto file = corpus.generate_file(ns_, store_, placement, "corpus",
                                     kBlocks, ByteSize::kib(8));
    ASSERT_TRUE(file.is_ok());
    file_ = file.value();
    catalog_.add(file_, kBlocks);
  }

  std::vector<RealJob> three_jobs() const {
    std::vector<RealJob> jobs;
    jobs.push_back(
        {workloads::make_wordcount_job(JobId(0), file_, "a", 3), 0.0, 0});
    jobs.push_back(
        {workloads::make_wordcount_job(JobId(1), file_, "b", 3), 0.5, 0});
    jobs.push_back(
        {workloads::make_wordcount_job(JobId(2), file_, "c", 3), 1.0, 0});
    return jobs;
  }

  static std::map<std::string, std::string> to_map(
      const engine::JobResult& result) {
    std::map<std::string, std::string> m;
    for (const auto& kv : result.output) m[kv.key] = kv.value;
    return m;
  }

  RealRunResult run_with(sched::Scheduler& scheduler) {
    engine::LocalEngine engine(ns_, store_, workers(4, 2));
    RealDriver driver(ns_, engine, catalog_);
    auto result = driver.run(scheduler, three_jobs());
    EXPECT_TRUE(result.is_ok()) << result.status();
    return std::move(result).value();
  }

  cluster::Topology topology_;
  dfs::DfsNamespace ns_;
  dfs::BlockStore store_;
  sched::FileCatalog catalog_;
  FileId file_;
};

TEST_F(RealDriverTest, AllSchedulersProduceIdenticalOutputs) {
  auto fifo = workloads::make_fifo(catalog_);
  auto mrs1 = workloads::make_mrs1(catalog_);
  auto mrs3 = workloads::make_mrs3(catalog_);
  auto s3 = workloads::make_s3(catalog_, topology_, /*segment_blocks=*/4);

  const auto r_fifo = run_with(*fifo);
  const auto r_mrs1 = run_with(*mrs1);
  const auto r_mrs3 = run_with(*mrs3);
  const auto r_s3 = run_with(*s3);

  for (std::uint64_t j = 0; j < 3; ++j) {
    const auto want = to_map(r_fifo.outputs.at(JobId(j)));
    EXPECT_FALSE(want.empty());
    EXPECT_EQ(to_map(r_mrs1.outputs.at(JobId(j))), want) << "job " << j;
    EXPECT_EQ(to_map(r_mrs3.outputs.at(JobId(j))), want) << "job " << j;
    EXPECT_EQ(to_map(r_s3.outputs.at(JobId(j))), want) << "job " << j;
  }
}

TEST_F(RealDriverTest, SharedScanReducesPhysicalReads) {
  auto fifo = workloads::make_fifo(catalog_);
  auto mrs1 = workloads::make_mrs1(catalog_);
  const auto r_fifo = run_with(*fifo);
  const auto r_mrs1 = run_with(*mrs1);
  // FIFO scans the file once per job; the MRShare batch scans it once total.
  EXPECT_EQ(r_fifo.scan.blocks_physical, 3 * kBlocks);
  EXPECT_EQ(r_mrs1.scan.blocks_physical, kBlocks);
  // Logical service is identical.
  EXPECT_EQ(r_fifo.scan.blocks_logical, r_mrs1.scan.blocks_logical);
}

TEST_F(RealDriverTest, S3SharesPartiallyOverlappingScans) {
  // Stretch wall time into virtual time so every sub-job batch spans the
  // arrival gaps deterministically: jobs 1 and 2 are guaranteed to arrive
  // while job 0's first segment is processing, join at segment 1, and wrap.
  engine::LocalEngine engine(ns_, store_, workers(4, 2));
  RealDriverOptions options;
  options.time_scale = 1e6;  // any batch >= 1 us wall spans the 0.5 s gaps
  RealDriver driver(ns_, engine, catalog_, options);
  auto s3 = workloads::make_s3(catalog_, topology_, /*segment_blocks=*/4);
  auto run = driver.run(*s3, three_jobs());
  ASSERT_TRUE(run.is_ok());
  const auto& result = run.value();
  // Segment 0 is scanned once for job 0 and once more (after wrap) for jobs
  // 1+2; segments 1 and 2 are scanned once for everyone: 16 physical reads
  // serving 36 logical block-scans.
  EXPECT_EQ(result.scan.blocks_physical, 16u);
  EXPECT_EQ(result.scan.blocks_logical, 3 * kBlocks);
  EXPECT_EQ(result.batches_run, 4u);
}

TEST_F(RealDriverTest, MetricsPopulated) {
  auto s3 = workloads::make_s3(catalog_, topology_, 4);
  const auto result = run_with(*s3);
  EXPECT_EQ(result.summary.num_jobs, 3u);
  EXPECT_GT(result.summary.tet, 0.0);
  EXPECT_GT(result.summary.art, 0.0);
  EXPECT_EQ(result.job_records.size(), 3u);
  for (const auto& record : result.job_records) {
    EXPECT_TRUE(record.done());
    EXPECT_GE(record.waiting_time().value(), 0.0);
  }
  for (std::uint64_t j = 0; j < 3; ++j) {
    EXPECT_GT(result.counters.at(JobId(j)).map_input_records, 0u);
    EXPECT_EQ(result.counters.at(JobId(j)).blocks_scanned, kBlocks);
  }
}

TEST_F(RealDriverTest, TpchSelectionEndToEnd) {
  // Build a small lineitem file and run the selection workload through S3.
  dfs::PlacementTopology ptopo;
  for (const auto& n : topology_.nodes()) {
    ptopo.nodes.push_back({n.id, n.rack});
  }
  dfs::RoundRobinPlacement placement(ptopo);
  workloads::tpch::LineitemGenerator gen;
  auto file = gen.generate_file(ns_, store_, placement, "lineitem", 8,
                                ByteSize::kib(8));
  ASSERT_TRUE(file.is_ok());
  catalog_.add(file.value(), 8);

  engine::LocalEngine engine(ns_, store_, workers(4, 2));
  RealDriver driver(ns_, engine, catalog_);
  std::vector<RealJob> jobs;
  jobs.push_back({workloads::tpch::make_selection_job(JobId(0), file.value(),
                                                      5, 2),
                  0.0, 0});
  jobs.push_back({workloads::tpch::make_selection_job(JobId(1), file.value(),
                                                      50, 2),
                  0.1, 0});
  auto s3 = workloads::make_s3(catalog_, topology_, 2);
  auto result = driver.run(*s3, std::move(jobs));
  ASSERT_TRUE(result.is_ok());

  const auto& selective = result.value().outputs.at(JobId(0)).output;
  const auto& all = result.value().outputs.at(JobId(1)).output;
  ASSERT_GT(all.size(), 0u);
  // ~10% selectivity, with slack for small-sample noise.
  const double ratio =
      static_cast<double>(selective.size()) / static_cast<double>(all.size());
  EXPECT_GT(ratio, 0.04);
  EXPECT_LT(ratio, 0.18);
}

TEST_F(RealDriverTest, EmptyWorkloadRejected) {
  engine::LocalEngine engine(ns_, store_, workers(2, 1));
  RealDriver driver(ns_, engine, catalog_);
  auto fifo = workloads::make_fifo(catalog_);
  EXPECT_FALSE(driver.run(*fifo, {}).is_ok());
}

TEST_F(RealDriverTest, PriorityRespectedByFifo) {
  engine::LocalEngine engine(ns_, store_, workers(4, 2));
  RealDriver driver(ns_, engine, catalog_);
  auto jobs = three_jobs();
  jobs[0].arrival = 0.0;
  jobs[1].arrival = 0.0;
  jobs[2].arrival = 0.0;
  jobs[2].priority = 10;  // should run first
  auto fifo = workloads::make_fifo(catalog_);
  auto result = driver.run(*fifo, std::move(jobs));
  ASSERT_TRUE(result.is_ok());
  const auto& records = result.value().job_records;
  // job 2 completes first.
  double c2 = 0, c0 = 0;
  for (const auto& r : records) {
    if (r.id == JobId(2)) c2 = r.completed;
    if (r.id == JobId(0)) c0 = r.completed;
  }
  EXPECT_LT(c2, c0);
}

// A time-window MRShare group opened by job 0 at t=0 must launch when its
// window closes at 50, not when job 1 arrives at 1000; job 1 then opens its
// own group and waits out its own window.
void expect_window_batches_at_50_and_1050(const RealRunResult& result) {
  EXPECT_EQ(result.batches_run, 2u);
  std::map<JobId, SimTime> started;
  for (const auto& record : result.job_records) {
    started[record.id] = record.first_started;
  }
  EXPECT_DOUBLE_EQ(started.at(JobId(0)), 50.0);
  EXPECT_DOUBLE_EQ(started.at(JobId(1)), 1050.0);
}

TEST_F(RealDriverTest, TimeWindowWakesBeforeNextArrival) {
  engine::LocalEngine engine(ns_, store_, workers(2, 1));
  RealDriver driver(ns_, engine, catalog_);
  sched::MRShareScheduler window(catalog_, sched::TimeWindow{50.0}, "MRS-W");
  std::vector<RealJob> jobs;
  jobs.push_back(
      {workloads::make_wordcount_job(JobId(0), file_, "a", 2), 0.0, 0});
  jobs.push_back(
      {workloads::make_wordcount_job(JobId(1), file_, "b", 2), 1000.0, 0});
  auto result = driver.run(window, std::move(jobs));
  ASSERT_TRUE(result.is_ok()) << result.status();
  expect_window_batches_at_50_and_1050(result.value());
}

TEST_F(RealDriverTest, ServiceTimeWindowWakesBeforeNextRelease) {
  service::SubmissionService service;
  ASSERT_TRUE(service
                  .register_tenant(TenantId(0), "tenant", service::TenantQuota{})
                  .is_ok());
  const std::pair<const char*, SimTime> submissions[] = {{"a", 0.0},
                                                         {"b", 1000.0}};
  for (std::uint64_t j = 0; j < 2; ++j) {
    service::Submission s;
    s.tenant = TenantId(0);
    s.spec = workloads::make_wordcount_job(JobId(j), file_,
                                           submissions[j].first, 2);
    s.arrival = submissions[j].second;
    ASSERT_TRUE(service.submit(s).admitted());
  }
  service.close();

  engine::LocalEngine engine(ns_, store_, workers(2, 1));
  RealDriver driver(ns_, engine, catalog_);
  sched::MRShareScheduler window(catalog_, sched::TimeWindow{50.0}, "MRS-W");
  auto result = driver.run_service(window, service);
  ASSERT_TRUE(result.is_ok()) << result.status();
  expect_window_batches_at_50_and_1050(result.value());
}

}  // namespace
}  // namespace s3::core
