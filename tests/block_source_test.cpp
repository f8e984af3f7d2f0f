// Tests for the BlockSource abstraction: stored vs generated payloads, and
// engine equivalence between the two.
#include <gtest/gtest.h>

#include "dfs/block_source.h"
#include "dfs/failover.h"
#include "engine/local_engine.h"
#include "workloads/text_corpus.h"
#include "workloads/wordcount.h"

namespace s3::dfs {
namespace {

TEST(StoredBlocksTest, DelegatesToStore) {
  BlockStore store;
  ASSERT_TRUE(store.put(BlockId(1), "payload").is_ok());
  StoredBlocks source(store);
  auto payload = source.fetch(BlockId(1));
  ASSERT_TRUE(payload.is_ok());
  EXPECT_EQ(*payload.value(), "payload");
  EXPECT_FALSE(source.fetch(BlockId(2)).is_ok());
}

class GeneratedSourceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    file_ = ns_.create_file("virtual", ByteSize::kib(4)).value();
    for (int b = 0; b < 6; ++b) {
      blocks_.push_back(ns_.append_block(file_, ByteSize::kib(4)).value());
    }
    other_file_ = ns_.create_file("other", ByteSize::kib(4)).value();
    other_block_ = ns_.append_block(other_file_, ByteSize::kib(4)).value();
  }

  DfsNamespace ns_;
  FileId file_;
  FileId other_file_;
  std::vector<BlockId> blocks_;
  BlockId other_block_;
};

TEST_F(GeneratedSourceTest, GeneratesByIndexDeterministically) {
  int calls = 0;
  GeneratedBlockSource source(ns_, file_, [&](std::uint64_t index) {
    ++calls;
    return "block-" + std::to_string(index);
  });
  EXPECT_EQ(*source.fetch(blocks_[0]).value(), "block-0");
  EXPECT_EQ(*source.fetch(blocks_[5]).value(), "block-5");
  EXPECT_EQ(*source.fetch(blocks_[0]).value(), "block-0");  // regenerated
  EXPECT_EQ(calls, 3);  // no caching: each fetch generates
}

TEST_F(GeneratedSourceTest, RejectsForeignBlocks) {
  GeneratedBlockSource source(ns_, file_, [](std::uint64_t) {
    return std::string("x");
  });
  EXPECT_EQ(source.fetch(other_block_).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(source.fetch(BlockId(999)).status().code(), StatusCode::kNotFound);
}

TEST_F(GeneratedSourceTest, EngineResultsMatchMaterializedStore) {
  // The same corpus served generated vs materialized must produce identical
  // wordcount results through the real engine.
  workloads::TextCorpusGenerator corpus;
  const ByteSize block_size = ByteSize::kib(4);
  GeneratedBlockSource generated(ns_, file_,
                                 [&corpus, block_size](std::uint64_t index) {
                                   return corpus.generate_block(index,
                                                                block_size);
                                 });
  BlockStore store;
  for (std::uint64_t b = 0; b < blocks_.size(); ++b) {
    ASSERT_TRUE(store.put(blocks_[b], corpus.generate_block(b, block_size))
                    .is_ok());
  }

  const auto run = [&](const BlockSource& source) {
    engine::LocalEngineOptions opts;
    opts.map_workers = 2;
    opts.reduce_workers = 1;
    engine::LocalEngine engine(ns_, source, opts);
    EXPECT_TRUE(engine
                    .register_job(workloads::make_wordcount_job(
                        JobId(0), file_, "a", 2))
                    .is_ok());
    engine::BatchExec batch{BatchId(0), blocks_, {JobId(0)}};
    EXPECT_TRUE(engine.run_batch(batch).is_ok());
    return engine.finalize_job(JobId(0)).value().output;
  };

  StoredBlocks stored(store);
  EXPECT_EQ(run(generated), run(stored));
}

// ---------------------------------------------------------------------------
// FailoverBlockSource: the typed recovery chain (DESIGN.md §12) — dead
// primary -> failover, corrupt replica -> skip, every replica unusable ->
// kDataLoss naming the block.

class FailoverSourceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    file_ = ns_.create_file("replicated", ByteSize::kib(4)).value();
    for (int b = 0; b < 2; ++b) {
      const BlockId id = ns_.append_block(file_, ByteSize::kib(4)).value();
      blocks_.push_back(id);
      ASSERT_TRUE(store_.put(id, "payload-" + std::to_string(b)).is_ok());
      ASSERT_TRUE(
          ns_.set_replicas(id, {NodeId(0), NodeId(1), NodeId(2)}).is_ok());
    }
    // A block with no replica metadata (replication 0 in tests).
    bare_file_ = ns_.create_file("bare", ByteSize::kib(4)).value();
    bare_block_ = ns_.append_block(bare_file_, ByteSize::kib(4)).value();
    ASSERT_TRUE(store_.put(bare_block_, "bare").is_ok());
  }

  DfsNamespace ns_;
  BlockStore store_;
  ReplicaHealth health_;
  FileId file_;
  FileId bare_file_;
  std::vector<BlockId> blocks_;
  BlockId bare_block_;
};

TEST_F(FailoverSourceTest, DeadPrimaryFailsOverToNextReplica) {
  StoredBlocks stored(store_);
  FailoverBlockSource source(ns_, stored, health_);
  EXPECT_TRUE(health_.mark_node_dead(NodeId(0)));
  EXPECT_FALSE(health_.mark_node_dead(NodeId(0)));  // idempotent

  auto payload = source.fetch(blocks_[0]);
  ASSERT_TRUE(payload.is_ok());
  EXPECT_EQ(*payload.value(), "payload-0");
  EXPECT_EQ(source.failovers(), 1u);
}

TEST_F(FailoverSourceTest, CorruptReplicaIsSkippedLikeADeadOne) {
  StoredBlocks stored(store_);
  FailoverBlockSource source(ns_, stored, health_);
  health_.mark_node_dead(NodeId(0));
  health_.mark_replica_corrupt(blocks_[0], NodeId(1));

  // Block 0 must walk past both unusable replicas to node 2...
  auto payload = source.fetch(blocks_[0]);
  ASSERT_TRUE(payload.is_ok());
  EXPECT_EQ(*payload.value(), "payload-0");
  EXPECT_EQ(source.failovers(), 2u);

  // ...while block 1 (same dead primary, but its node-1 replica is fine)
  // skips only one.
  ASSERT_TRUE(source.fetch(blocks_[1]).is_ok());
  EXPECT_EQ(source.failovers(), 3u);
}

TEST_F(FailoverSourceTest, AllReplicasUnusableIsDataLossNamingTheBlock) {
  StoredBlocks stored(store_);
  FailoverBlockSource source(ns_, stored, health_);
  health_.mark_node_dead(NodeId(0));
  health_.mark_node_dead(NodeId(1));
  health_.mark_replica_corrupt(blocks_[0], NodeId(2));

  const auto got = source.fetch(blocks_[0]);
  ASSERT_FALSE(got.is_ok());
  EXPECT_EQ(got.status().code(), StatusCode::kDataLoss);
  const std::string& message = got.status().message();
  EXPECT_NE(message.find("block-" + std::to_string(blocks_[0].value())),
            std::string::npos)
      << message;
  EXPECT_NE(message.find("all 3 replicas unusable (2 on dead nodes, 1 "
                         "corrupt)"),
            std::string::npos)
      << message;

  // Block 1 still has a clean replica on node 2.
  EXPECT_TRUE(source.fetch(blocks_[1]).is_ok());
}

TEST_F(FailoverSourceTest, NoReplicaMetadataServesDirectly) {
  StoredBlocks stored(store_);
  FailoverBlockSource source(ns_, stored, health_);
  health_.mark_node_dead(NodeId(0));  // irrelevant to a replica-less block

  auto payload = source.fetch(bare_block_);
  ASSERT_TRUE(payload.is_ok());
  EXPECT_EQ(*payload.value(), "bare");
  EXPECT_EQ(source.failovers(), 0u);
}

TEST_F(FailoverSourceTest, PhysicalCorruptionSurfacesThroughFailover) {
  // A CRC mismatch affects every replica (payloads live once in the store),
  // so failover cannot mask it: the store's kDataLoss passes through.
  StoredBlocks stored(store_);
  FailoverBlockSource source(ns_, stored, health_);
  ASSERT_TRUE(store_.corrupt_payload_for_test(blocks_[0]).is_ok());

  const auto got = source.fetch(blocks_[0]);
  ASSERT_FALSE(got.is_ok());
  EXPECT_EQ(got.status().code(), StatusCode::kDataLoss);
}

}  // namespace
}  // namespace s3::dfs
