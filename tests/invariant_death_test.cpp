// Death tests: the S3_CHECK invariants that guard scheduler correctness must
// abort loudly rather than let a corrupted experiment run to completion.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "common/lock_rank.h"
#include "common/thread_annotations.h"
#include "dfs/segment.h"
#include "metrics/metrics.h"
#include "obs/crash_dump.h"
#include "sched/job_queue_manager.h"

namespace s3 {
namespace {

using sched::JobQueueManager;

// An S3_CHECK in JobQueueManager writes a flight-recorder crash dump before
// it aborts. This sends the dumps of a test's death children to a temporary
// directory named after the test, and removes it when the test ends, so no
// s3-crash-*.txt is left in the working directory. With the "threadsafe"
// death-test style each child re-runs the test body up to its EXPECT_DEATH,
// so parent and child agree on the directory.
class ScopedCrashDumpDir {
 public:
  ScopedCrashDumpDir() {
    const ::testing::TestInfo* test =
        ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = std::filesystem::path(::testing::TempDir()) /
           (std::string("s3-death-") + test->test_suite_name() + "." +
            test->name());
    std::filesystem::create_directories(dir_);
    obs::set_crash_dump_dir(dir_.string());
  }
  ~ScopedCrashDumpDir() { std::filesystem::remove_all(dir_); }

  ScopedCrashDumpDir(const ScopedCrashDumpDir&) = delete;
  ScopedCrashDumpDir& operator=(const ScopedCrashDumpDir&) = delete;

 private:
  std::filesystem::path dir_;
};

TEST(JqmDeathTest, SecondBatchWhileInFlightAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const ScopedCrashDumpDir dumps;
  JobQueueManager jqm(FileId(0), 8);
  jqm.admit(JobId(0));
  const auto batch = jqm.form_batch(BatchId(0), 4);
  (void)batch;
  EXPECT_DEATH((void)jqm.form_batch(BatchId(1), 4), "batch already in flight");
}

TEST(JqmDeathTest, CompleteWithoutBatchAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const ScopedCrashDumpDir dumps;
  JobQueueManager jqm(FileId(0), 8);
  jqm.admit(JobId(0));
  EXPECT_DEATH(jqm.complete_batch(), "complete_batch with none in flight");
}

TEST(JqmDeathTest, DoubleAdmitAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const ScopedCrashDumpDir dumps;
  JobQueueManager jqm(FileId(0), 8);
  jqm.admit(JobId(0));
  EXPECT_DEATH(jqm.admit(JobId(0)), "admitted twice");
}

TEST(JqmDeathTest, CorruptedCursorAbortsUnderDebugContracts) {
#if S3_DCHECKS_ENABLED
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const ScopedCrashDumpDir dumps;
  JobQueueManager jqm(FileId(0), 8);
  jqm.admit(JobId(0));
  // Force the circular scan cursor past the end of the file; the Algorithm 1
  // range contract (cursor ∈ [0, file_blocks)) must abort the next batch.
  jqm.corrupt_cursor_for_test(17);
  EXPECT_DEATH((void)jqm.form_batch(BatchId(0), 4),
               "segment cursor 17 out of range");
#else
  GTEST_SKIP() << "debug contracts compiled out (Release without S3_DCHECKS)";
#endif
}

TEST(LockRankDeathTest, InversionAbortsInsteadOfDeadlocking) {
#if S3_LOCK_RANK_CHECKS
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // Acquiring down the hierarchy must abort before the mutex blocks: plant a
  // synthetic high-rank frame, then take a guard on a lower-ranked mutex.
  EXPECT_DEATH(
      {
        lock_rank::corrupt_held_rank_for_test(LockRank::kObsJournal);
        AnnotatedMutex low{LockRank::kSchedJobQueue};
        MutexLock lock(low);
      },
      "lock-rank inversion.*kSchedJobQueue.*kObsJournal");
#else
  GTEST_SKIP() << "lock-rank checks compiled out (Release)";
#endif
}

TEST(LockRankDeathTest, SameRankReacquisitionAborts) {
#if S3_LOCK_RANK_CHECKS
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // Strict monotonicity: two same-rank locks held together (two shuffle
  // buckets, two arena shards) is also an inversion.
  EXPECT_DEATH(
      {
        AnnotatedMutex first{LockRank::kShuffleBucket};
        AnnotatedMutex second{LockRank::kShuffleBucket};
        MutexLock a(first);
        MutexLock b(second);
      },
      "lock-rank inversion.*kShuffleBucket.*kShuffleBucket");
#else
  GTEST_SKIP() << "lock-rank checks compiled out (Release)";
#endif
}

TEST(SegmentDeathTest, EmptyFileAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  dfs::DfsNamespace ns;
  const FileId file = ns.create_file("empty", ByteSize::kib(1)).value();
  EXPECT_DEATH(dfs::SegmentMap(ns.file(file), 4),
               "cannot segment an empty file");
}

TEST(MetricsDeathTest, DoubleCompletionAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  metrics::JobTimeline timeline;
  timeline.on_submitted(JobId(0), 0.0);
  timeline.on_completed(JobId(0), 1.0);
  EXPECT_DEATH(timeline.on_completed(JobId(0), 2.0), "completed twice");
}

TEST(MetricsDeathTest, SummarizeIncompleteAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  metrics::JobTimeline timeline;
  timeline.on_submitted(JobId(0), 0.0);
  EXPECT_DEATH((void)metrics::summarize(timeline),
               "requires all jobs complete");
}

}  // namespace
}  // namespace s3
