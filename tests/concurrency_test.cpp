// Tests for the BlockingQueue concurrency primitive (the worker pool has its
// own suite in pinned_thread_pool_test.cpp).
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/blocking_queue.h"

namespace s3 {
namespace {

TEST(BlockingQueueTest, FifoOrder) {
  BlockingQueue<int> q;
  q.push(1);
  q.push(2);
  q.push(3);
  EXPECT_EQ(q.pop().value(), 1);
  EXPECT_EQ(q.pop().value(), 2);
  EXPECT_EQ(q.pop().value(), 3);
}

TEST(BlockingQueueTest, TryPopEmpty) {
  BlockingQueue<int> q;
  EXPECT_FALSE(q.try_pop().has_value());
  q.push(5);
  EXPECT_EQ(q.try_pop().value(), 5);
}

TEST(BlockingQueueTest, CloseDrainsThenReturnsNullopt) {
  BlockingQueue<int> q;
  q.push(1);
  q.close();
  EXPECT_FALSE(q.push(2));  // rejected after close
  EXPECT_EQ(q.pop().value(), 1);
  EXPECT_FALSE(q.pop().has_value());
  EXPECT_TRUE(q.closed());
}

TEST(BlockingQueueTest, CloseWakesBlockedConsumer) {
  BlockingQueue<int> q;
  std::atomic<bool> got_nullopt{false};
  std::thread consumer([&] {
    const auto v = q.pop();  // blocks until close
    got_nullopt = !v.has_value();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  q.close();
  consumer.join();
  EXPECT_TRUE(got_nullopt.load());
}

TEST(BlockingQueueTest, ManyProducersManyConsumers) {
  BlockingQueue<int> q;
  constexpr int kPerProducer = 500;
  constexpr int kProducers = 4;
  constexpr int kConsumers = 3;
  std::atomic<long> sum{0};
  std::atomic<int> consumed{0};

  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&q, p] {
      for (int i = 0; i < kPerProducer; ++i) q.push(p * kPerProducer + i);
    });
  }
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&] {
      while (true) {
        const auto v = q.pop();
        if (!v.has_value()) return;
        sum += *v;
        ++consumed;
      }
    });
  }
  for (int p = 0; p < kProducers; ++p) threads[static_cast<std::size_t>(p)].join();
  q.close();
  for (std::size_t c = kProducers; c < threads.size(); ++c) threads[c].join();

  const long n = kPerProducer * kProducers;
  EXPECT_EQ(consumed.load(), n);
  EXPECT_EQ(sum.load(), n * (n - 1) / 2);
}

// --- Shutdown/close edge semantics ---

TEST(BlockingQueueTest, CloseIsIdempotentAndDropsLatePushes) {
  BlockingQueue<int> q;
  q.push(7);
  q.close();
  q.close();  // second close is a no-op, not an error
  EXPECT_FALSE(q.push(8));
  EXPECT_FALSE(q.push(9));
  EXPECT_EQ(q.size(), 1u);  // late pushes were dropped, not queued
  EXPECT_EQ(q.pop().value(), 7);
  EXPECT_FALSE(q.pop().has_value());
  EXPECT_FALSE(q.try_pop().has_value());
}

TEST(BlockingQueueTest, TryPopStillDrainsAfterClose) {
  BlockingQueue<int> q;
  q.push(1);
  q.push(2);
  q.close();
  EXPECT_EQ(q.try_pop().value(), 1);
  EXPECT_EQ(q.try_pop().value(), 2);
  EXPECT_FALSE(q.try_pop().has_value());
}

TEST(BlockingQueueTest, CloseWakesAllBlockedConsumers) {
  BlockingQueue<int> q;
  constexpr int kConsumers = 4;
  std::atomic<int> woke{0};
  std::vector<std::thread> consumers;
  consumers.reserve(kConsumers);
  for (int i = 0; i < kConsumers; ++i) {
    consumers.emplace_back([&] {
      if (!q.pop().has_value()) ++woke;
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  q.close();
  for (auto& t : consumers) t.join();
  EXPECT_EQ(woke.load(), kConsumers);
}

TEST(BlockingQueueTest, ConcurrentCloseAndPushNeverLosesAcceptedItems) {
  // Every push that returned true must be popped exactly once, no matter
  // where close() landed relative to the pushes.
  for (int trial = 0; trial < 20; ++trial) {
    BlockingQueue<int> q;
    std::atomic<int> accepted{0};
    std::thread producer([&] {
      for (int i = 0; i < 1000; ++i) {
        if (q.push(i)) ++accepted;
      }
    });
    std::thread closer([&] { q.close(); });
    producer.join();
    closer.join();
    int drained = 0;
    while (q.try_pop().has_value()) ++drained;
    EXPECT_EQ(drained, accepted.load());
  }
}

TEST(BoundedBlockingQueueTest, TryPushFailsFastWhenFull) {
  BlockingQueue<int> q(2);
  EXPECT_EQ(q.capacity(), 2u);
  EXPECT_TRUE(q.try_push(1));
  EXPECT_TRUE(q.try_push(2));
  EXPECT_FALSE(q.try_push(3));
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.try_pop(), 1);
  EXPECT_TRUE(q.try_push(3));  // pop freed a slot
}

TEST(BoundedBlockingQueueTest, TryPushForTimesOutThenSucceedsAfterPop) {
  BlockingQueue<int> q(1);
  ASSERT_TRUE(q.push(1));
  EXPECT_FALSE(q.try_push_for(2, std::chrono::milliseconds(5)));
  EXPECT_EQ(q.try_pop(), 1);
  EXPECT_TRUE(q.try_push_for(2, std::chrono::milliseconds(5)));
  EXPECT_EQ(q.try_pop(), 2);
}

TEST(BoundedBlockingQueueTest, PushBlocksUntilConsumerFreesSpace) {
  BlockingQueue<int> q(1);
  ASSERT_TRUE(q.push(1));
  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    EXPECT_TRUE(q.push(2));  // must block until the pop below
    pushed.store(true);
  });
  // Let the producer reach the full-queue wait, then drain one item.
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(q.pop(), 1);
  producer.join();
  EXPECT_TRUE(pushed.load());
  EXPECT_EQ(q.pop(), 2);
}

TEST(BoundedBlockingQueueTest, CloseWakesBlockedProducer) {
  BlockingQueue<int> q(1);
  ASSERT_TRUE(q.push(1));
  std::thread producer([&] {
    EXPECT_FALSE(q.push(2));  // woken by close, item dropped
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  q.close();
  producer.join();
  EXPECT_EQ(q.pop(), 1);       // accepted items still drain
  EXPECT_EQ(q.pop(), std::nullopt);
}

TEST(BoundedBlockingQueueTest, ZeroCapacityMeansUnbounded) {
  BlockingQueue<int> q(0);
  for (int i = 0; i < 1000; ++i) ASSERT_TRUE(q.try_push(i));
  EXPECT_EQ(q.size(), 1000u);
}

TEST(BoundedBlockingQueueTest, ManyProducersRespectCapacityHighWaterMark) {
  BlockingQueue<int> q(4);
  std::atomic<int> produced{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < 4; ++p) {
    producers.emplace_back([&] {
      for (int i = 0; i < 50; ++i) {
        if (q.push(i)) produced.fetch_add(1);
      }
    });
  }
  std::atomic<int> consumed{0};
  std::thread consumer([&] {
    while (true) {
      auto item = q.pop();
      if (!item.has_value()) break;
      // The queue never exceeds its bound: size() counts items *after* this
      // pop, so at most capacity could have been present.
      EXPECT_LE(q.size(), 4u);
      consumed.fetch_add(1);
    }
  });
  for (auto& t : producers) t.join();
  q.close();
  consumer.join();
  EXPECT_EQ(consumed.load(), produced.load());
  EXPECT_EQ(produced.load(), 200);
}

}  // namespace
}  // namespace s3
