// Property sweeps for the task-level simulator: work conservation, makespan
// bounds and scheduler-invariant totals across randomized configurations.
#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>

#include "common/rng.h"
#include "tasksim/tasksim.h"

namespace s3::tasksim {
namespace {

struct SweepParam {
  int slots;
  std::size_t jobs;
  std::uint64_t blocks;
  double arrival_spread;
};

// Prints a case as its fields. gtest_discover_tests names each ctest case
// by this printed value, where the default printer dumps the struct's bytes,
// padding included, so names could change from build to build.
void PrintTo(const SweepParam& p, std::ostream* os) {
  *os << "slots" << p.slots << "_jobs" << p.jobs << "_blocks" << p.blocks
      << "_spread" << static_cast<int>(p.arrival_spread);
}

class TaskSimSweep : public ::testing::TestWithParam<SweepParam> {
 protected:
  static std::vector<TaskSimJob> make_jobs(const SweepParam& p, Rng& rng) {
    std::vector<TaskSimJob> jobs;
    for (std::uint64_t j = 0; j < p.jobs; ++j) {
      TaskSimJob job;
      job.id = JobId(j);
      job.arrival = rng.uniform(0.0, p.arrival_spread);
      job.total_blocks = p.blocks;
      job.reduce_tail = 2.0;
      job.pool = static_cast<int>(j % 2);
      jobs.push_back(job);
    }
    return jobs;
  }

  static TaskSimParams params_for(const SweepParam& p, int pools = 1) {
    TaskSimParams params;
    params.slots = p.slots;
    params.pools = pools;
    params.map_task_seconds = [](int sharers) {
      return 1.0 + 0.1 * (sharers - 1);
    };
    return params;
  }
};

TEST_P(TaskSimSweep, NonSharingSchedulersConserveWork) {
  const auto p = GetParam();
  Rng rng(p.slots * 1000 + static_cast<std::uint64_t>(p.jobs));
  const auto jobs = make_jobs(p, rng);

  const int pools = std::min(2, p.slots);
  FifoTaskScheduler fifo;
  FairTaskScheduler fair;
  CapacityTaskScheduler capacity(pools);
  const auto r_fifo = run_task_sim(params_for(p), fifo, jobs);
  const auto r_fair = run_task_sim(params_for(p), fair, jobs);
  const auto r_cap = run_task_sim(params_for(p, pools), capacity, jobs);
  ASSERT_TRUE(r_fifo.is_ok());
  ASSERT_TRUE(r_fair.is_ok());
  ASSERT_TRUE(r_cap.is_ok());

  // Every non-sharing scheduler runs exactly jobs x blocks tasks of 1 s.
  const std::uint64_t expected_tasks = p.jobs * p.blocks;
  for (const auto* r : {&r_fifo.value(), &r_fair.value(), &r_cap.value()}) {
    EXPECT_EQ(r->tasks_run, expected_tasks);
    EXPECT_DOUBLE_EQ(r->busy_slot_seconds,
                     static_cast<double>(expected_tasks));
    // Makespan lower bound: total work / slots (ignoring tails/arrivals).
    EXPECT_GE(r->summary.tet + 1e-9,
              static_cast<double>(expected_tasks) /
                  static_cast<double>(p.slots));
  }
}

TEST_P(TaskSimSweep, SharedScanNeverRunsMoreThanNonSharing) {
  const auto p = GetParam();
  Rng rng(p.slots * 7 + static_cast<std::uint64_t>(p.blocks));
  const auto jobs = make_jobs(p, rng);

  SharedScanTaskScheduler shared(p.blocks);
  FifoTaskScheduler fifo;
  const auto r_shared = run_task_sim(params_for(p), shared, jobs);
  const auto r_fifo = run_task_sim(params_for(p), fifo, jobs);
  ASSERT_TRUE(r_shared.is_ok());
  ASSERT_TRUE(r_fifo.is_ok());

  // Sharing can only reduce the task count; the floor is one pass when all
  // jobs overlap, the ceiling is the non-sharing count.
  EXPECT_LE(r_shared.value().tasks_run, r_fifo.value().tasks_run);
  EXPECT_GE(r_shared.value().tasks_run, p.blocks);
  EXPECT_LE(r_shared.value().busy_slot_seconds,
            r_fifo.value().busy_slot_seconds + 1e-9);
  // And it must not hurt either metric.
  EXPECT_LE(r_shared.value().summary.tet, r_fifo.value().summary.tet + 1e-9);
  EXPECT_LE(r_shared.value().summary.art, r_fifo.value().summary.art + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TaskSimSweep,
    ::testing::Values(SweepParam{1, 1, 5, 0.0},     // degenerate single slot
                      SweepParam{4, 3, 12, 0.0},    // simultaneous arrivals
                      SweepParam{4, 3, 12, 10.0},   // staggered
                      SweepParam{8, 6, 40, 30.0},   // mid-size
                      SweepParam{40, 10, 64, 50.0},  // cluster-like
                      SweepParam{5, 4, 17, 3.0}));  // awkward remainders

TEST(TaskSimDeterminismTest, RepeatedRunsIdentical) {
  const SweepParam p{8, 5, 20, 15.0};
  double tets[2];
  for (int i = 0; i < 2; ++i) {
    Rng rng(42);
    std::vector<TaskSimJob> jobs;
    for (std::uint64_t j = 0; j < p.jobs; ++j) {
      TaskSimJob job;
      job.id = JobId(j);
      job.arrival = rng.uniform(0.0, p.arrival_spread);
      job.total_blocks = p.blocks;
      jobs.push_back(job);
    }
    TaskSimParams params;
    params.slots = p.slots;
    params.map_task_seconds = [](int s) { return 1.0 + 0.05 * (s - 1); };
    SharedScanTaskScheduler shared(p.blocks);
    auto result = run_task_sim(params, shared, jobs);
    ASSERT_TRUE(result.is_ok());
    tets[i] = result.value().summary.tet;
  }
  EXPECT_DOUBLE_EQ(tets[0], tets[1]);
}

}  // namespace
}  // namespace s3::tasksim
