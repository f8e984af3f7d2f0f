// Tests for LocalEngine: full threaded MapReduce execution, batch semantics,
// sub-job (multi-batch) equivalence, shared-scan accounting.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <stdexcept>

#include "engine/local_engine.h"
#include "sched/segment_planner.h"
#include "workloads/text_corpus.h"
#include "workloads/wordcount.h"

namespace s3::engine {
namespace {

class LocalEngineTest : public ::testing::Test {
 protected:
  static LocalEngineOptions workers(std::size_t map, std::size_t reduce) {
    LocalEngineOptions opts;
    opts.map_workers = map;
    opts.reduce_workers = reduce;
    return opts;
  }

  void SetUp() override {
    dfs::PlacementTopology topo;
    for (std::uint64_t n = 0; n < 4; ++n) {
      topo.nodes.push_back({NodeId(n), RackId(0)});
    }
    dfs::RoundRobinPlacement placement(topo);
    workloads::TextCorpusGenerator corpus;
    auto file = corpus.generate_file(ns_, store_, placement, "corpus", 8,
                                     ByteSize::kib(8));
    ASSERT_TRUE(file.is_ok());
    file_ = file.value();
  }

  std::vector<BlockId> blocks(std::uint64_t from, std::uint64_t count) const {
    const auto& all = ns_.file(file_).blocks;
    std::vector<BlockId> out;
    for (std::uint64_t i = 0; i < count; ++i) {
      out.push_back(all[(from + i) % all.size()]);
    }
    return out;
  }

  static std::map<std::string, std::string> to_map(const JobResult& result) {
    std::map<std::string, std::string> m;
    for (const auto& kv : result.output) m[kv.key] = kv.value;
    return m;
  }

  // Single-threaded reference: count words with the prefix over all blocks.
  std::map<std::string, std::int64_t> reference_counts(
      const std::string& prefix) const {
    std::map<std::string, std::int64_t> counts;
    for (const BlockId b : ns_.file(file_).blocks) {
      const auto payload = store_.get(b).value();
      std::string word;
      for (const char c : *payload) {
        if (c == ' ' || c == '\n') {
          if (!word.empty() && word.rfind(prefix, 0) == 0) ++counts[word];
          word.clear();
        } else {
          word.push_back(c);
        }
      }
      if (!word.empty() && word.rfind(prefix, 0) == 0) ++counts[word];
    }
    return counts;
  }

  dfs::DfsNamespace ns_;
  dfs::BlockStore store_;
  FileId file_;
};

TEST_F(LocalEngineTest, RegisterValidation) {
  LocalEngine engine(ns_, store_, workers(2, 1));
  JobSpec bad;  // invalid: no factories
  EXPECT_FALSE(engine.register_job(bad).is_ok());

  JobSpec good = workloads::make_wordcount_job(JobId(0), file_, "a", 2);
  EXPECT_TRUE(engine.register_job(good).is_ok());
  EXPECT_EQ(engine.register_job(good).code(), StatusCode::kAlreadyExists);

  JobSpec missing_file = workloads::make_wordcount_job(JobId(1), FileId(77), "a", 2);
  EXPECT_EQ(engine.register_job(missing_file).code(), StatusCode::kNotFound);
}

TEST_F(LocalEngineTest, SingleBatchWordCountMatchesReference) {
  LocalEngine engine(ns_, store_, workers(4, 2));
  const JobSpec spec = workloads::make_wordcount_job(JobId(0), file_, "a", 3);
  ASSERT_TRUE(engine.register_job(spec).is_ok());

  BatchExec batch;
  batch.id = BatchId(0);
  batch.blocks = blocks(0, 8);
  batch.jobs = {JobId(0)};
  ASSERT_TRUE(engine.run_batch(batch).is_ok());

  auto result = engine.finalize_job(JobId(0));
  ASSERT_TRUE(result.is_ok());
  const auto got = to_map(result.value());
  const auto want = reference_counts("a");
  ASSERT_EQ(got.size(), want.size());
  for (const auto& [word, count] : want) {
    ASSERT_TRUE(got.count(word) > 0) << word;
    EXPECT_EQ(got.at(word), std::to_string(count)) << word;
  }
}

TEST_F(LocalEngineTest, OutputSortedByKey) {
  LocalEngine engine(ns_, store_, workers(2, 2));
  const JobSpec spec = workloads::make_wordcount_job(JobId(0), file_, "", 4);
  ASSERT_TRUE(engine.register_job(spec).is_ok());
  BatchExec batch{BatchId(0), blocks(0, 8), {JobId(0)}};
  ASSERT_TRUE(engine.run_batch(batch).is_ok());
  auto result = engine.finalize_job(JobId(0));
  ASSERT_TRUE(result.is_ok());
  const auto& out = result.value().output;
  ASSERT_GT(out.size(), 10u);
  for (std::size_t i = 1; i < out.size(); ++i) {
    EXPECT_LE(out[i - 1].key, out[i].key);
  }
}

TEST_F(LocalEngineTest, SubJobExecutionEqualsWholeFile) {
  // Run the same job as 4 sequential sub-job batches (S3-style, starting at
  // segment 2 to exercise circular wrap-around) and as one whole-file batch;
  // the final outputs must match exactly.
  LocalEngine engine(ns_, store_, workers(4, 2));
  const JobSpec whole = workloads::make_wordcount_job(JobId(0), file_, "b", 2);
  const JobSpec pieces = workloads::make_wordcount_job(JobId(1), file_, "b", 2);
  ASSERT_TRUE(engine.register_job(whole).is_ok());
  ASSERT_TRUE(engine.register_job(pieces).is_ok());

  ASSERT_TRUE(
      engine.run_batch({BatchId(0), blocks(0, 8), {JobId(0)}}).is_ok());
  for (std::uint64_t seg = 0; seg < 4; ++seg) {
    const std::uint64_t start =
        sched::wrap_index(4 + seg * 2, 8);  // begin mid-file
    ASSERT_TRUE(engine
                    .run_batch({BatchId(1 + seg), blocks(start, 2),
                                {JobId(1)}})
                    .is_ok());
  }

  auto whole_result = engine.finalize_job(JobId(0));
  auto pieces_result = engine.finalize_job(JobId(1));
  ASSERT_TRUE(whole_result.is_ok());
  ASSERT_TRUE(pieces_result.is_ok());
  EXPECT_EQ(to_map(whole_result.value()), to_map(pieces_result.value()));
}

TEST_F(LocalEngineTest, SharedBatchReadsEachBlockOnce) {
  LocalEngine engine(ns_, store_, workers(4, 2));
  for (std::uint64_t j = 0; j < 3; ++j) {
    ASSERT_TRUE(engine
                    .register_job(workloads::make_wordcount_job(
                        JobId(j), file_, std::string(1, static_cast<char>('a' + j)), 2))
                    .is_ok());
  }
  BatchExec batch{BatchId(0), blocks(0, 8), {JobId(0), JobId(1), JobId(2)}};
  ASSERT_TRUE(engine.run_batch(batch).is_ok());
  const auto scan = engine.scan_counters();
  EXPECT_EQ(scan.blocks_physical, 8u);
  EXPECT_EQ(scan.blocks_logical, 24u);
  EXPECT_EQ(scan.bytes_logical, scan.bytes_physical * 3);
}

TEST_F(LocalEngineTest, SharedBatchOutputsEqualIndependentRuns) {
  LocalEngine engine(ns_, store_, workers(4, 2));
  const JobSpec shared_a = workloads::make_wordcount_job(JobId(0), file_, "th", 2);
  const JobSpec shared_b = workloads::make_wordcount_job(JobId(1), file_, "s", 2);
  const JobSpec solo_a = workloads::make_wordcount_job(JobId(2), file_, "th", 2);
  const JobSpec solo_b = workloads::make_wordcount_job(JobId(3), file_, "s", 2);
  for (const auto* s : {&shared_a, &shared_b, &solo_a, &solo_b}) {
    ASSERT_TRUE(engine.register_job(*s).is_ok());
  }
  ASSERT_TRUE(engine
                  .run_batch({BatchId(0), blocks(0, 8),
                              {JobId(0), JobId(1)}})
                  .is_ok());
  ASSERT_TRUE(engine.run_batch({BatchId(1), blocks(0, 8), {JobId(2)}})
                  .is_ok());
  ASSERT_TRUE(engine.run_batch({BatchId(2), blocks(0, 8), {JobId(3)}})
                  .is_ok());
  EXPECT_EQ(to_map(engine.finalize_job(JobId(0)).value()),
            to_map(engine.finalize_job(JobId(2)).value()));
  EXPECT_EQ(to_map(engine.finalize_job(JobId(1)).value()),
            to_map(engine.finalize_job(JobId(3)).value()));
}

TEST_F(LocalEngineTest, IncrementalMergeEqualsFinalMerge) {
  LocalEngineOptions incremental;
  incremental.map_workers = 2;
  incremental.reduce_workers = 1;
  incremental.incremental_merge = true;
  LocalEngine a(ns_, store_, incremental);
  LocalEngine b(ns_, store_, workers(2, 1));
  for (LocalEngine* engine : {&a, &b}) {
    ASSERT_TRUE(engine
                    ->register_job(
                        workloads::make_wordcount_job(JobId(0), file_, "c", 2))
                    .is_ok());
    for (std::uint64_t seg = 0; seg < 4; ++seg) {
      ASSERT_TRUE(engine
                      ->run_batch(
                          {BatchId(seg), blocks(seg * 2, 2), {JobId(0)}})
                      .is_ok());
    }
  }
  EXPECT_EQ(to_map(a.finalize_job(JobId(0)).value()),
            to_map(b.finalize_job(JobId(0)).value()));
}

TEST_F(LocalEngineTest, CountersAccumulate) {
  LocalEngine engine(ns_, store_, workers(2, 1));
  ASSERT_TRUE(engine
                  .register_job(
                      workloads::make_wordcount_job(JobId(0), file_, "", 2))
                  .is_ok());
  ASSERT_TRUE(engine.run_batch({BatchId(0), blocks(0, 4), {JobId(0)}})
                  .is_ok());
  const auto after_first = engine.counters(JobId(0));
  EXPECT_EQ(after_first.map_tasks, 4u);
  EXPECT_EQ(after_first.blocks_scanned, 4u);
  EXPECT_GT(after_first.map_input_records, 0u);
  ASSERT_TRUE(engine.run_batch({BatchId(1), blocks(4, 4), {JobId(0)}})
                  .is_ok());
  const auto after_second = engine.counters(JobId(0));
  EXPECT_EQ(after_second.map_tasks, 8u);
  EXPECT_GT(after_second.reduce_tasks, 0u);
}

TEST_F(LocalEngineTest, BatchErrorPaths) {
  LocalEngine engine(ns_, store_, workers(2, 1));
  ASSERT_TRUE(engine
                  .register_job(
                      workloads::make_wordcount_job(JobId(0), file_, "a", 2))
                  .is_ok());
  EXPECT_FALSE(engine.run_batch({BatchId(0), {}, {JobId(0)}}).is_ok());
  EXPECT_FALSE(engine.run_batch({BatchId(1), blocks(0, 1), {}}).is_ok());
  EXPECT_EQ(engine.run_batch({BatchId(2), blocks(0, 1), {JobId(9)}})
                .status()
                .code(),
            StatusCode::kNotFound);
  EXPECT_FALSE(engine.finalize_job(JobId(9)).is_ok());
}

TEST_F(LocalEngineTest, TransientTaskFailuresAreRetried) {
  // Every task's first attempt fails; retries must make the job succeed with
  // results identical to a failure-free run.
  LocalEngineOptions faulty;
  faulty.map_workers = 2;
  faulty.reduce_workers = 1;
  faulty.max_task_attempts = 3;
  std::mutex mu;
  std::map<std::uint64_t, int> attempts_seen;
  faulty.fault_injector = [&](const TaskAttempt& attempt) {
    std::lock_guard<std::mutex> lock(mu);
    attempts_seen[attempt.task.value()] = attempt.attempt;
    Fault f;
    if (attempt.attempt == 1) {
      f.kind = FaultKind::kTransient;  // first attempt of every task fails
    }
    return f;
  };
  LocalEngine engine(ns_, store_, faulty);
  ASSERT_TRUE(engine
                  .register_job(
                      workloads::make_wordcount_job(JobId(0), file_, "a", 2))
                  .is_ok());
  ASSERT_TRUE(engine.run_batch({BatchId(0), blocks(0, 8), {JobId(0)}})
                  .is_ok());
  EXPECT_EQ(engine.failed_attempts(), 8u + 2u);  // 8 map + 2 reduce tasks

  auto result = engine.finalize_job(JobId(0));
  ASSERT_TRUE(result.is_ok());
  const auto counts = reference_counts("a");
  EXPECT_EQ(to_map(result.value()).size(), counts.size());
  for (const auto& [task, attempt] : attempts_seen) {
    EXPECT_EQ(attempt, 2) << "task " << task;  // succeeded on the retry
  }
}

TEST_F(LocalEngineTest, PermanentTaskFailureFailsTheBatch) {
  LocalEngineOptions faulty;
  faulty.map_workers = 2;
  faulty.reduce_workers = 1;
  faulty.max_task_attempts = 2;
  faulty.fault_injector = [](const TaskAttempt& attempt) {
    Fault f;
    if (attempt.task.value() == 0) {
      f.kind = FaultKind::kTransient;  // the first task never succeeds
    }
    return f;
  };
  LocalEngine engine(ns_, store_, faulty);
  ASSERT_TRUE(engine
                  .register_job(
                      workloads::make_wordcount_job(JobId(0), file_, "a", 2))
                  .is_ok());
  const Status status =
      engine.run_batch({BatchId(0), blocks(0, 8), {JobId(0)}}).status();
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(engine.failed_attempts(), 2u);  // both attempts of task 0
}

TEST_F(LocalEngineTest, ThrowingMapperSurfacesAsInternalError) {
  // User code that throws must come back as a Status on the caller's thread
  // (the pool captures the exception and run_batch converts it), never
  // kill a worker or terminate the process.
  class ThrowingMapper final : public Mapper {
   public:
    void map(const dfs::Record&, Emitter&) override {
      throw std::runtime_error("user mapper bug");
    }
  };
  LocalEngine engine(ns_, store_, workers(2, 1));
  JobSpec spec = workloads::make_wordcount_job(JobId(0), file_, "a", 2);
  spec.mapper_factory = [] { return std::make_unique<ThrowingMapper>(); };
  ASSERT_TRUE(engine.register_job(std::move(spec)).is_ok());
  const Status status =
      engine.run_batch({BatchId(0), blocks(0, 8), {JobId(0)}}).status();
  EXPECT_EQ(status.code(), StatusCode::kInternal);
  // The engine is still usable for other jobs afterwards.
  ASSERT_TRUE(engine
                  .register_job(
                      workloads::make_wordcount_job(JobId(1), file_, "b", 2))
                  .is_ok());
  EXPECT_TRUE(engine.run_batch({BatchId(1), blocks(0, 8), {JobId(1)}})
                  .is_ok());
}

// ---------------------------------------------------------------------------
// Failure domains (DESIGN.md §12): options validation, node-death
// re-dispatch, the hung-task watchdog, and poison-member quarantine, all
// through the engine's own run_batch API (the chaos suite covers the same
// paths end-to-end through the driver).

class LocalEngineFailureTest : public LocalEngineTest {
 protected:
  // A second file with real replica placement, so node death has somewhere
  // to fail over to.
  FileId replicated_file(int replication) {
    dfs::PlacementTopology topo;
    for (std::uint64_t n = 0; n < 4; ++n) {
      topo.nodes.push_back({NodeId(n), RackId(0)});
    }
    dfs::RoundRobinPlacement placement(topo);
    workloads::TextCorpusGenerator corpus;
    auto file = corpus.generate_file(ns_, store_, placement, "replicated", 8,
                                     ByteSize::kib(8), replication);
    EXPECT_TRUE(file.is_ok());
    return file.value();
  }

  std::vector<BlockId> file_blocks(FileId f) const {
    return ns_.file(f).blocks;
  }
};

TEST_F(LocalEngineFailureTest, RunBatchRejectsInvalidOptions) {
  const JobSpec spec = workloads::make_wordcount_job(JobId(0), file_, "a", 2);

  LocalEngineOptions no_attempts = workers(2, 1);
  no_attempts.max_task_attempts = 0;
  LocalEngine a(ns_, store_, no_attempts);
  ASSERT_TRUE(a.register_job(spec).is_ok());
  EXPECT_EQ(a.run_batch({BatchId(0), blocks(0, 8), {JobId(0)}})
                .status()
                .code(),
            StatusCode::kInvalidArgument);

  // Zero workers must surface as invalid_argument from run_batch, not crash
  // the constructor.
  LocalEngine no_mappers(ns_, store_, workers(0, 1));
  ASSERT_TRUE(no_mappers.register_job(spec).is_ok());
  EXPECT_EQ(no_mappers.run_batch({BatchId(0), blocks(0, 8), {JobId(0)}})
                .status()
                .code(),
            StatusCode::kInvalidArgument);

  LocalEngine no_reducers(ns_, store_, workers(2, 0));
  ASSERT_TRUE(no_reducers.register_job(spec).is_ok());
  EXPECT_EQ(no_reducers.run_batch({BatchId(0), blocks(0, 8), {JobId(0)}})
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST_F(LocalEngineFailureTest, NodeDeathReDispatchesOnAReplica) {
  const FileId file = replicated_file(/*replication=*/3);
  const std::vector<BlockId> all = file_blocks(file);
  const BlockId trigger = all.front();
  const NodeId victim = ns_.block(trigger).replicas.front();

  dfs::ReplicaHealth health;
  dfs::StoredBlocks stored(store_);
  dfs::FailoverBlockSource source(ns_, stored, health);

  LocalEngineOptions opts = workers(3, 2);
  opts.replica_health = &health;
  opts.fault_injector = [trigger](const TaskAttempt& attempt) {
    Fault f;
    if (attempt.is_map && attempt.block == trigger && attempt.attempt == 1) {
      f.kind = FaultKind::kNodeDeath;  // dead_node defaults to attempt.node
      f.detail = "injected crash";
    }
    return f;
  };
  LocalEngine engine(ns_, source, opts);
  ASSERT_TRUE(engine
                  .register_job(
                      workloads::make_wordcount_job(JobId(0), file, "a", 2))
                  .is_ok());

  auto outcome = engine.run_batch({BatchId(0), all, {JobId(0)}});
  ASSERT_TRUE(outcome.is_ok()) << outcome.status().message();
  ASSERT_EQ(outcome.value().nodes_died.size(), 1u);
  EXPECT_EQ(outcome.value().nodes_died.front(), victim);
  EXPECT_TRUE(outcome.value().quarantined.empty());
  EXPECT_TRUE(engine.node_is_dead(victim));
  EXPECT_TRUE(health.is_node_dead(victim));

  // The re-dispatched scan still produces the right answer.
  LocalEngine clean(ns_, source, workers(3, 2));
  ASSERT_TRUE(clean
                  .register_job(
                      workloads::make_wordcount_job(JobId(0), file, "a", 2))
                  .is_ok());
  ASSERT_TRUE(clean.run_batch({BatchId(0), all, {JobId(0)}}).is_ok());
  EXPECT_EQ(to_map(engine.finalize_job(JobId(0)).value()),
            to_map(clean.finalize_job(JobId(0)).value()));
}

TEST_F(LocalEngineFailureTest, HungMapAttemptsAreAbandonedAndRetried) {
  LocalEngineOptions opts = workers(2, 1);
  opts.fault_injector = [](const TaskAttempt& attempt) {
    Fault f;
    if (attempt.is_map && attempt.attempt == 1) {
      f.kind = FaultKind::kHang;
      f.detail = "wedged container";
    }
    return f;
  };
  LocalEngine engine(ns_, store_, opts);
  ASSERT_TRUE(engine
                  .register_job(
                      workloads::make_wordcount_job(JobId(0), file_, "a", 2))
                  .is_ok());
  auto outcome = engine.run_batch({BatchId(0), blocks(0, 8), {JobId(0)}});
  ASSERT_TRUE(outcome.is_ok()) << outcome.status().message();
  EXPECT_EQ(engine.hung_attempts(), 8u);  // one per map task, all recovered

  auto result = engine.finalize_job(JobId(0));
  ASSERT_TRUE(result.is_ok());
  EXPECT_EQ(to_map(result.value()).size(), reference_counts("a").size());
}

TEST_F(LocalEngineFailureTest, PoisonMemberIsQuarantinedAndSurvivorsCommit) {
  LocalEngineOptions opts = workers(3, 2);
  opts.max_task_attempts = 2;
  opts.fault_injector = [](const TaskAttempt& attempt) {
    Fault f;
    if (attempt.is_map) {
      f.kind = FaultKind::kPoison;  // fires every attempt: retries exhaust
      f.poison_job = JobId(1);
      f.detail = "bad member map fn";
    }
    return f;
  };
  LocalEngine engine(ns_, store_, opts);
  for (std::uint64_t j = 0; j < 3; ++j) {
    ASSERT_TRUE(engine
                    .register_job(workloads::make_wordcount_job(
                        JobId(j), file_,
                        std::string(1, static_cast<char>('a' + j)), 2))
                    .is_ok());
  }

  auto outcome = engine.run_batch(
      {BatchId(0), blocks(0, 8), {JobId(0), JobId(1), JobId(2)}});
  ASSERT_TRUE(outcome.is_ok()) << outcome.status().message();
  ASSERT_EQ(outcome.value().quarantined.size(), 1u);
  EXPECT_EQ(outcome.value().quarantined.front().job, JobId(1));
  EXPECT_FALSE(outcome.value().quarantined.front().reason.is_ok());
  EXPECT_GE(outcome.value().reruns, 1);

  // The quarantined member's state is released; the survivors finish with
  // exactly the answers a fault-free run produces.
  EXPECT_FALSE(engine.finalize_job(JobId(1)).is_ok());
  for (const std::uint64_t j : {0u, 2u}) {
    auto result = engine.finalize_job(JobId(j));
    ASSERT_TRUE(result.is_ok());
    const auto want =
        reference_counts(std::string(1, static_cast<char>('a' + j)));
    EXPECT_EQ(to_map(result.value()).size(), want.size());
  }
}

TEST_F(LocalEngineFailureTest, DataLossReadIsNotRetried) {
  // A block whose stored checksum no longer matches is gone for good: the
  // attempt loop reports kDataLoss after the first read instead of spending
  // the remaining attempts on it.
  ASSERT_TRUE(store_.corrupt_payload_for_test(blocks(0, 1).front()).is_ok());
  LocalEngineOptions opts = workers(2, 1);
  opts.max_task_attempts = 3;
  LocalEngine engine(ns_, store_, opts);
  ASSERT_TRUE(engine
                  .register_job(
                      workloads::make_wordcount_job(JobId(0), file_, "a", 2))
                  .is_ok());
  const auto outcome =
      engine.run_batch({BatchId(0), blocks(0, 8), {JobId(0)}});
  EXPECT_EQ(outcome.status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(engine.failed_attempts(), 1u);
}

TEST_F(LocalEngineFailureTest, ReduceNodeDeathIsRecordedAndRetried) {
  // A node that crashes under a reduce attempt is recorded as dead, and the
  // attempt is re-run; reduce attempts name no node of their own, so only an
  // explicit dead_node is recorded.
  LocalEngineOptions opts = workers(2, 2);
  opts.fault_injector = [](const TaskAttempt& attempt) {
    Fault f;
    if (!attempt.is_map && attempt.partition == 1 && attempt.attempt == 1) {
      f.kind = FaultKind::kNodeDeath;
      f.dead_node = NodeId(3);
    }
    return f;
  };
  LocalEngine engine(ns_, store_, opts);
  ASSERT_TRUE(engine
                  .register_job(
                      workloads::make_wordcount_job(JobId(0), file_, "a", 2))
                  .is_ok());
  auto outcome = engine.run_batch({BatchId(0), blocks(0, 8), {JobId(0)}});
  ASSERT_TRUE(outcome.is_ok()) << outcome.status().message();
  EXPECT_EQ(outcome.value().nodes_died, std::vector<NodeId>{NodeId(3)});
  EXPECT_TRUE(engine.node_is_dead(NodeId(3)));
  EXPECT_EQ(engine.failed_attempts(), 1u);

  auto result = engine.finalize_job(JobId(0));
  ASSERT_TRUE(result.is_ok());
  std::map<std::string, std::string> want;
  for (const auto& [word, count] : reference_counts("a")) {
    want[word] = std::to_string(count);
  }
  EXPECT_EQ(to_map(result.value()), want);
}

TEST_F(LocalEngineTest, JobWithNoMatchesProducesEmptyOutput) {
  LocalEngine engine(ns_, store_, workers(2, 1));
  ASSERT_TRUE(engine
                  .register_job(workloads::make_wordcount_job(
                      JobId(0), file_, "zzzzzzzzzz", 2))
                  .is_ok());
  ASSERT_TRUE(engine.run_batch({BatchId(0), blocks(0, 8), {JobId(0)}})
                  .is_ok());
  auto result = engine.finalize_job(JobId(0));
  ASSERT_TRUE(result.is_ok());
  EXPECT_TRUE(result.value().output.empty());
}

}  // namespace
}  // namespace s3::engine
