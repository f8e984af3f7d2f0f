// Tests for PinnedThreadPool: the work-stealing deques, the pool's
// shutdown and exception contract, worker identity, and the graceful
// degradation of core pinning.
#include "common/pinned_thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <stdexcept>
#include <thread>
#include <vector>

namespace s3 {
namespace {

TEST(PinnedThreadPoolTest, ExecutesAllTasks) {
  PinnedThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(pool.submit([&count] { ++count; }));
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 100);
}

TEST(PinnedThreadPoolTest, SubmitToExecutesAllTasks) {
  PinnedThreadPool pool(3);
  std::atomic<int> count{0};
  for (int i = 0; i < 90; ++i) {
    // Any worker index is accepted (taken modulo the pool size).
    EXPECT_TRUE(pool.submit_to(static_cast<std::size_t>(i), [&count] {
      ++count;
    }));
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 90);
}

TEST(PinnedThreadPoolTest, WaitIdleOnEmptyPoolReturnsImmediately) {
  PinnedThreadPool pool(2);
  pool.wait_idle();  // must not hang
  SUCCEED();
}

TEST(PinnedThreadPoolTest, IdleWorkerStealsFromBusyVictim) {
  // Worker 0 is parked on a blocker task; every other task is queued to
  // worker 0's deque. They can only complete if worker 1 steals them, so
  // once one completes while the blocker still holds worker 0, a steal is
  // proven — then the blocker is released.
  PinnedThreadPool pool(2);
  std::promise<void> release;
  std::shared_future<void> gate(release.get_future());
  ASSERT_TRUE(pool.submit_to(0, [gate] { gate.wait(); }));
  std::atomic<int> count{0};
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(pool.submit_to(0, [&count] { ++count; }));
  }
  while (count.load() == 0) std::this_thread::yield();
  release.set_value();
  pool.wait_idle();
  EXPECT_EQ(count.load(), 10);
  EXPECT_GE(pool.steals(), 1u);
}

TEST(PinnedThreadPoolTest, CurrentWorkerIndexIdentifiesWorkers) {
  PinnedThreadPool pool(3);
  EXPECT_EQ(pool.current_worker_index(), -1);  // off-pool thread
  std::atomic<int> bad{0};
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(pool.submit([&pool, &bad] {
      const int index = pool.current_worker_index();
      if (index < 0 || index >= 3) ++bad;
    }));
  }
  pool.wait_idle();
  EXPECT_EQ(bad.load(), 0);
}

TEST(PinnedThreadPoolTest, WorkerIndexDoesNotLeakAcrossPools) {
  // A task on pool A asking pool B for its index must get -1: worker
  // identity is per-pool, so arena shard selection can never alias.
  PinnedThreadPool a(1);
  PinnedThreadPool b(1);
  std::atomic<int> cross{-2};
  ASSERT_TRUE(a.submit([&b, &cross] { cross = b.current_worker_index(); }));
  a.wait_idle();
  EXPECT_EQ(cross.load(), -1);
}

TEST(PinnedThreadPoolTest, SubmitAfterShutdownFails) {
  PinnedThreadPool pool(1);
  pool.shutdown();
  EXPECT_FALSE(pool.submit([] {}));
  EXPECT_FALSE(pool.submit_to(0, [] {}));
}

TEST(PinnedThreadPoolTest, ShutdownDrainsQueuedTasks) {
  std::atomic<int> count{0};
  {
    PinnedThreadPool pool(1);
    for (int i = 0; i < 50; ++i) {
      EXPECT_TRUE(pool.submit([&count] {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        ++count;
      }));
    }
  }  // destructor: shutdown + drain
  EXPECT_EQ(count.load(), 50);
}

TEST(PinnedThreadPoolTest, ShutdownDuringStealDrainsEverything) {
  // All tasks land on worker 0's deque and shutdown begins immediately, so
  // the other three workers drain the backlog via steals racing the
  // shutdown flag. Every accepted task must still run exactly once.
  std::atomic<int> count{0};
  {
    PinnedThreadPool pool(4);
    for (int i = 0; i < 200; ++i) {
      ASSERT_TRUE(pool.submit_to(0, [&count] { ++count; }));
    }
  }  // destructor races workers mid-steal
  EXPECT_EQ(count.load(), 200);
}

TEST(PinnedThreadPoolTest, WaitIdleCanBeReused) {
  PinnedThreadPool pool(3);
  std::atomic<int> count{0};
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 20; ++i) {
      EXPECT_TRUE(pool.submit([&count] { ++count; }));
    }
    pool.wait_idle();
    EXPECT_EQ(count.load(), (round + 1) * 20);
  }
}

// --- Exception contract -------------------------------------------------

TEST(PinnedThreadPoolTest, TaskExceptionRethrownFromWaitIdle) {
  PinnedThreadPool pool(2);
  std::atomic<int> completed{0};
  EXPECT_TRUE(pool.submit([] { throw std::runtime_error("task exploded"); }));
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(pool.submit([&completed] { ++completed; }));
  }
  EXPECT_THROW(pool.wait_idle(), std::runtime_error);
  // The throwing task did not kill its worker: every other task still ran.
  EXPECT_EQ(completed.load(), 10);
}

TEST(PinnedThreadPoolTest, OnlyFirstExceptionIsKept) {
  PinnedThreadPool pool(1);  // one worker => deterministic task order
  EXPECT_TRUE(pool.submit([] { throw std::runtime_error("first"); }));
  EXPECT_TRUE(pool.submit([] { throw std::logic_error("second"); }));
  try {
    pool.wait_idle();
    FAIL() << "wait_idle should have rethrown";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "first");
  }
}

TEST(PinnedThreadPoolTest, PoolIsReusableAfterException) {
  PinnedThreadPool pool(2);
  EXPECT_TRUE(pool.submit([] { throw std::runtime_error("boom"); }));
  EXPECT_THROW(pool.wait_idle(), std::runtime_error);
  // The error slot was cleared; the next wave is clean.
  std::atomic<int> count{0};
  for (int i = 0; i < 8; ++i) {
    EXPECT_TRUE(pool.submit([&count] { ++count; }));
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 8);
}

TEST(PinnedThreadPoolTest, ExceptionDuringShutdownIsDiscarded) {
  // A task that throws while the pool is being torn down must not
  // std::terminate from the destructor.
  {
    PinnedThreadPool pool(1);
    EXPECT_TRUE(pool.submit([] {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      throw std::runtime_error("mid-shutdown");
    }));
  }  // destructor: shutdown + join, exception dropped
  SUCCEED();
}

// --- Core pinning -------------------------------------------------------

TEST(PinnedThreadPoolTest, PinningIsBestEffortAndNeverFailsConstruction) {
  PinnedThreadPoolOptions options;
  options.num_threads = 2;
  options.pin_cores = true;
  PinnedThreadPool pool(options);
  std::atomic<int> count{0};
  for (int i = 0; i < 20; ++i) {
    EXPECT_TRUE(pool.submit([&count] { ++count; }));
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 20);
  // Where affinity is supported every worker pins; elsewhere none do. Either
  // way the pool works and reports an in-range number.
  EXPECT_LE(pool.pinned_workers(), 2u);
}

TEST(PinnedThreadPoolTest, PinningOffByDefault) {
  PinnedThreadPool pool(2);
  std::atomic<int> count{0};
  EXPECT_TRUE(pool.submit([&count] { ++count; }));
  pool.wait_idle();
  EXPECT_EQ(pool.pinned_workers(), 0u);
}

// --- Contended stress (exercised under TSan via scripts/check.sh) -------

TEST(PinnedThreadPoolTest, ConcurrentProducersAndStealersStress) {
  PinnedThreadPool pool(4);
  std::atomic<int> count{0};
  constexpr int kProducers = 3;
  constexpr int kPerProducer = 500;
  std::vector<std::thread> producers;
  std::atomic<int> accepted{0};
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&pool, &count, &accepted, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        // Skew every producer onto one home worker so the other three
        // workers only make progress by stealing.
        if (pool.submit_to(static_cast<std::size_t>(p % 2),
                           [&count] { ++count; })) {
          ++accepted;
        }
      }
    });
  }
  for (auto& t : producers) t.join();
  pool.wait_idle();
  EXPECT_EQ(count.load(), accepted.load());
  EXPECT_EQ(accepted.load(), kProducers * kPerProducer);
}

}  // namespace
}  // namespace s3
