// Unit tests for the MapReduce engine internals: partitioning, shuffle,
// map/reduce runners, shared-scan accounting.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "dfs/block_store.h"
#include "dfs/reader.h"
#include "dfs/tokenize.h"
#include "engine/kv.h"
#include "engine/map_runner.h"
#include "engine/reduce_runner.h"
#include "engine/shuffle.h"
#include "workloads/wordcount.h"

namespace s3::engine {
namespace {

TEST(PartitionTest, StableAndInRange) {
  for (const std::uint32_t parts : {1u, 7u, 30u}) {
    const auto p = partition_for_key("hello", parts);
    EXPECT_LT(p, parts);
    EXPECT_EQ(p, partition_for_key("hello", parts));  // deterministic
  }
}

TEST(PartitionTest, SpreadsKeys) {
  std::set<std::uint32_t> used;
  for (int i = 0; i < 200; ++i) {
    used.insert(partition_for_key("key" + std::to_string(i), 16));
  }
  EXPECT_GT(used.size(), 12u);
}

KVBatch make_batch(
    std::initializer_list<std::pair<std::string_view, std::string_view>> kvs) {
  KVBatch batch;
  for (const auto& [k, v] : kvs) batch.append(k, v);
  return batch;
}

std::uint64_t total_records(const std::vector<KVBatch>& runs) {
  std::uint64_t n = 0;
  for (const auto& run : runs) n += run.size();
  return n;
}

TEST(ShuffleStoreTest, AppendAndTake) {
  ShuffleStore shuffle;
  shuffle.register_job(JobId(0), 4);
  shuffle.append(JobId(0), 1, make_batch({{"a", "1"}, {"b", "2"}}));
  shuffle.append(JobId(0), 1, make_batch({{"c", "3"}}));
  EXPECT_EQ(shuffle.pending_records(JobId(0)), 3u);
  const auto runs = shuffle.take(JobId(0), 1);
  EXPECT_EQ(runs.size(), 2u);  // one run per append
  EXPECT_EQ(total_records(runs), 3u);
  EXPECT_EQ(shuffle.pending_records(JobId(0)), 0u);
  EXPECT_TRUE(shuffle.take(JobId(0), 1).empty());  // drained
}

TEST(ShuffleStoreTest, PublishFansOutOneRunPerPartition) {
  ShuffleStore shuffle;
  shuffle.register_job(JobId(0), 3);
  std::vector<KVBatch> runs;
  runs.push_back(make_batch({{"a", "1"}}));
  runs.push_back(KVBatch{});  // empty runs are dropped
  runs.push_back(make_batch({{"b", "2"}, {"c", "3"}}));
  shuffle.publish(JobId(0), std::move(runs));
  EXPECT_EQ(total_records(shuffle.take(JobId(0), 0)), 1u);
  EXPECT_TRUE(shuffle.take(JobId(0), 1).empty());
  EXPECT_EQ(total_records(shuffle.take(JobId(0), 2)), 2u);
}

TEST(ShuffleStoreTest, PartitionsIsolated) {
  ShuffleStore shuffle;
  shuffle.register_job(JobId(0), 2);
  shuffle.append(JobId(0), 0, make_batch({{"a", "1"}}));
  shuffle.append(JobId(0), 1, make_batch({{"b", "2"}}));
  EXPECT_EQ(total_records(shuffle.take(JobId(0), 0)), 1u);
  EXPECT_EQ(total_records(shuffle.take(JobId(0), 1)), 1u);
}

TEST(ShuffleStoreTest, JobsIsolated) {
  ShuffleStore shuffle;
  shuffle.register_job(JobId(0), 1);
  shuffle.register_job(JobId(1), 1);
  shuffle.append(JobId(0), 0, make_batch({{"a", "1"}}));
  EXPECT_TRUE(shuffle.take(JobId(1), 0).empty());
  EXPECT_EQ(total_records(shuffle.take(JobId(0), 0)), 1u);
  EXPECT_EQ(shuffle.partitions(JobId(1)), 1u);
  shuffle.unregister_job(JobId(0));
  shuffle.unregister_job(JobId(1));
}

TEST(SortAndGroupTest, GroupsSortedByKey) {
  std::vector<KeyValue> records = {
      {"b", "1"}, {"a", "2"}, {"b", "3"}, {"c", "4"}, {"a", "5"}};
  std::vector<std::string> keys;
  std::vector<std::size_t> sizes;
  const auto groups = sort_and_group(
      std::move(records),
      [&](const std::string& key, const std::vector<std::string>& values) {
        keys.push_back(key);
        sizes.push_back(values.size());
      });
  EXPECT_EQ(groups, 3u);
  EXPECT_EQ(keys, (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(sizes, (std::vector<std::size_t>{2, 2, 1}));
}

TEST(SortAndGroupTest, Empty) {
  EXPECT_EQ(sort_and_group({}, [](const std::string&,
                                  const std::vector<std::string>&) {
              FAIL() << "no groups expected";
            }),
            0u);
}

class MapReduceRunnerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(store_.put(BlockId(0), "the cat\nthe dog\n").is_ok());
    ASSERT_TRUE(store_.put(BlockId(1), "the cow\nthat duck\n").is_ok());
  }

  JobSpec wordcount_spec(JobId id, const std::string& prefix,
                         std::uint32_t reducers = 2) {
    return workloads::make_wordcount_job(id, FileId(0), prefix, reducers);
  }

  dfs::BlockStore store_;
  dfs::StoredBlocks source_{store_};
  ShuffleStore shuffle_;
};

TEST_F(MapReduceRunnerTest, SingleJobSingleBlock) {
  const JobSpec spec = wordcount_spec(JobId(0), "the");
  shuffle_.register_job(spec.id, spec.num_reduce_tasks);
  MapRunner runner(source_, shuffle_);

  MapTaskSpec task;
  task.id = TaskId(0);
  task.block = BlockId(0);
  task.jobs = {&spec};
  auto outcome = runner.run(task);
  ASSERT_TRUE(outcome.is_ok());
  const auto& counters = outcome.value().per_job.at(spec.id);
  EXPECT_EQ(counters.map_input_records, 2u);
  EXPECT_EQ(counters.map_output_records, 2u);  // "the" twice
  EXPECT_EQ(counters.map_tasks, 1u);
  EXPECT_EQ(outcome.value().scan.blocks_physical, 1u);
  EXPECT_EQ(outcome.value().scan.blocks_logical, 1u);
}

TEST_F(MapReduceRunnerTest, MergedScanReadsOncePerBlock) {
  const JobSpec a = wordcount_spec(JobId(0), "the");
  const JobSpec b = wordcount_spec(JobId(1), "that");
  shuffle_.register_job(a.id, a.num_reduce_tasks);
  shuffle_.register_job(b.id, b.num_reduce_tasks);
  MapRunner runner(source_, shuffle_);

  MapTaskSpec task;
  task.id = TaskId(0);
  task.block = BlockId(1);
  task.jobs = {&a, &b};
  auto outcome = runner.run(task);
  ASSERT_TRUE(outcome.is_ok());
  EXPECT_EQ(outcome.value().scan.blocks_physical, 1u);
  EXPECT_EQ(outcome.value().scan.blocks_logical, 2u);
  EXPECT_EQ(outcome.value().per_job.at(a.id).map_output_records, 1u);  // "the cow" -> the
  EXPECT_EQ(outcome.value().per_job.at(b.id).map_output_records, 1u);  // "that duck" -> that
}

TEST_F(MapReduceRunnerTest, MissingBlockFails) {
  const JobSpec spec = wordcount_spec(JobId(0), "x");
  shuffle_.register_job(spec.id, spec.num_reduce_tasks);
  MapRunner runner(source_, shuffle_);
  MapTaskSpec task;
  task.id = TaskId(0);
  task.block = BlockId(99);
  task.jobs = {&spec};
  EXPECT_FALSE(runner.run(task).is_ok());
}

TEST_F(MapReduceRunnerTest, NoJobsRejected) {
  MapRunner runner(source_, shuffle_);
  MapTaskSpec task;
  task.id = TaskId(0);
  task.block = BlockId(0);
  EXPECT_EQ(runner.run(task).status().code(), StatusCode::kInvalidArgument);
}

TEST_F(MapReduceRunnerTest, ReduceAggregatesAcrossBlocks) {
  const JobSpec spec = wordcount_spec(JobId(0), "the", 1);
  shuffle_.register_job(spec.id, 1);
  MapRunner map_runner(source_, shuffle_);
  for (std::uint64_t b = 0; b < 2; ++b) {
    MapTaskSpec task;
    task.id = TaskId(b);
    task.block = BlockId(b);
    task.jobs = {&spec};
    ASSERT_TRUE(map_runner.run(task).is_ok());
  }
  ReduceRunner reduce_runner(shuffle_);
  ReduceTaskSpec rtask;
  rtask.id = TaskId(10);
  rtask.job = &spec;
  rtask.partition = 0;
  auto outcome = reduce_runner.run(rtask);
  ASSERT_TRUE(outcome.is_ok());
  // "the" appears 3 times across the two blocks.
  ASSERT_EQ(outcome.value().output.size(), 1u);
  EXPECT_EQ(outcome.value().output.key(0), "the");
  EXPECT_EQ(outcome.value().output.value(0), "3");
  EXPECT_EQ(outcome.value().counters.reduce_input_groups, 1u);
}

TEST_F(MapReduceRunnerTest, CombinerShrinksMapOutput) {
  JobSpec with = wordcount_spec(JobId(0), "the", 1);
  JobSpec without = wordcount_spec(JobId(1), "the", 1);
  without.combiner_factory = nullptr;
  shuffle_.register_job(with.id, 1);
  shuffle_.register_job(without.id, 1);
  MapRunner runner(source_, shuffle_);
  MapTaskSpec task;
  task.id = TaskId(0);
  task.block = BlockId(0);  // "the" twice in one block
  task.jobs = {&with, &without};
  auto outcome = runner.run(task);
  ASSERT_TRUE(outcome.is_ok());
  EXPECT_EQ(outcome.value().per_job.at(with.id).combine_output_records, 1u);
  EXPECT_EQ(shuffle_.pending_records(with.id), 1u);     // combined
  EXPECT_EQ(shuffle_.pending_records(without.id), 2u);  // raw
}

// A block of several scan chunks of wordcount text. The first chunk ends on
// an empty line, the second starts with one and ends after a record longer
// than a chunk, and the last record has no trailing newline.
std::string chunked_word_block() {
  static constexpr std::string_view kWords[] = {
      "the", "that", "then", "to", "cat", "dog", "sat", "on", "a", "mat"};
  Rng rng(11);
  auto word = [&]() -> std::string {
    const std::uint64_t pick = rng.uniform_u64(20);
    return pick < 10 ? std::string(kWords[pick])
                     : "w" + std::to_string(rng.uniform_u64(400));
  };
  auto line = [&](std::size_t words) {
    std::string out = word();
    for (std::size_t w = 1; w < words; ++w) out += ' ' + word();
    return out;
  };
  std::string text;
  while (text.size() + 100 < dfs::kScanChunkBytes) text += line(8) + '\n';
  text += "t" + std::string(dfs::kScanChunkBytes - text.size() - 3, 'x');
  text += "\n\n\n";
  text += line(1500) + '\n';
  for (int i = 0; i < 400; ++i) text += line(1 + i % 12) + '\n';
  text += line(5);
  return text;
}

using TakenRun = std::vector<std::pair<std::string, std::string>>;

// One member's output of a map task: its counters, and per partition the
// runs taken from the shuffle store, record by record.
struct MemberOutput {
  std::vector<std::uint64_t> counters;
  std::vector<std::vector<TakenRun>> partitions;
};

std::map<std::uint64_t, MemberOutput> run_map_task(
    const dfs::BlockSource& source, const std::vector<const JobSpec*>& jobs) {
  ShuffleStore shuffle;
  for (const JobSpec* spec : jobs) {
    shuffle.register_job(spec->id, spec->num_reduce_tasks);
  }
  MapRunner runner(source, shuffle);
  MapTaskSpec task;
  task.id = TaskId(0);
  task.block = BlockId(0);
  task.jobs = jobs;
  auto outcome = runner.run(task);
  EXPECT_TRUE(outcome.is_ok());
  std::map<std::uint64_t, MemberOutput> out;
  if (!outcome.is_ok()) return out;
  for (const JobSpec* spec : jobs) {
    const JobCounters& c = outcome.value().per_job.at(spec->id);
    MemberOutput& member = out[spec->id.value()];
    member.counters = {c.map_input_records,     c.map_input_bytes,
                       c.map_output_records,    c.map_output_bytes,
                       c.combine_output_records, c.reduce_input_groups,
                       c.reduce_output_records, c.reduce_output_bytes,
                       c.map_tasks,             c.reduce_tasks,
                       c.blocks_scanned};
    for (std::uint32_t p = 0; p < spec->num_reduce_tasks; ++p) {
      std::vector<TakenRun>& runs = member.partitions.emplace_back();
      for (const KVBatch& batch : shuffle.take(spec->id, p)) {
        TakenRun& run = runs.emplace_back();
        for (std::size_t i = 0; i < batch.size(); ++i) {
          run.emplace_back(std::string(batch.key(i)),
                           std::string(batch.value(i)));
        }
      }
    }
  }
  return out;
}

TEST(MergedMapTaskTest, EqualsSoloTasksAcrossChunkBoundaries) {
  const std::string text = chunked_word_block();
  {
    // The block has the shape the test is about.
    dfs::SharedScanReader reader(std::make_shared<const std::string>(text));
    std::vector<std::vector<std::size_t>> chunks;  // record lengths
    reader.add_consumer([&](dfs::RecordChunk chunk) {
      std::vector<std::size_t>& lengths = chunks.emplace_back();
      for (const dfs::Record& r : chunk) lengths.push_back(r.data.size());
    });
    reader.scan();
    ASSERT_GE(chunks.size(), 4u);
    EXPECT_EQ(chunks[0].back(), 0u);
    EXPECT_EQ(chunks[1].front(), 0u);
    EXPECT_GT(chunks[1].back(), dfs::kScanChunkBytes);
    EXPECT_NE(text.back(), '\n');
  }

  dfs::BlockStore store;
  ASSERT_TRUE(store.put(BlockId(0), text).is_ok());
  dfs::StoredBlocks source(store);
  const JobSpec heavy =
      workloads::make_heavy_wordcount_job(JobId(0), FileId(0), 2, 4);
  const JobSpec prefix =
      workloads::make_wordcount_job(JobId(1), FileId(0), "t", 4, true);
  const JobSpec wide =
      workloads::make_wordcount_job(JobId(2), FileId(0), "", 32, false);
  const auto merged = run_map_task(source, {&heavy, &prefix, &wide});
  for (const JobSpec* spec : {&heavy, &prefix, &wide}) {
    const auto solo = run_map_task(source, {spec});
    ASSERT_EQ(merged.count(spec->id.value()), 1u);
    ASSERT_EQ(solo.count(spec->id.value()), 1u);
    const MemberOutput& m = merged.at(spec->id.value());
    const MemberOutput& s = solo.at(spec->id.value());
    EXPECT_EQ(m.counters, s.counters) << spec->name;
    EXPECT_EQ(m.partitions, s.partitions) << spec->name;
    EXPECT_GT(m.counters[2], 0u) << spec->name;  // map_output_records
  }
}

// A wordcount block of several scan chunks with irregular spacing: leading,
// trailing and repeated spaces, lines of spaces only, an empty line that
// closes the first chunk, and a record longer than a chunk.
std::string irregularly_spaced_block() {
  static constexpr std::string_view kWords[] = {"the", "t",   "to", "tt",
                                                "cat", "a",   "mat"};
  Rng rng(23);
  auto spaces = [&](std::uint64_t most) {
    return std::string(rng.uniform_u64(most + 1), ' ');
  };
  auto line = [&](std::size_t words) {
    std::string out = spaces(2);
    for (std::size_t w = 0; w < words; ++w) {
      if (w > 0) out += ' ' + spaces(2);
      const std::uint64_t pick = rng.uniform_u64(14);
      out += pick < 7 ? std::string(kWords[pick])
                      : "t" + std::to_string(rng.uniform_u64(300));
    }
    return out + spaces(2);
  };
  std::string text;
  while (text.size() + 100 < dfs::kScanChunkBytes) text += line(8) + '\n';
  text += "      \n";
  // A line that ends one byte short of a chunk, so the empty line after it
  // closes the chunk.
  text += "t" + std::string(dfs::kScanChunkBytes - text.size() - 4, ' ') +
          "t\n\n";
  text += "   \n" + line(1500) + '\n';
  for (int i = 0; i < 400; ++i) {
    text += (i % 37 == 0 ? std::string("  ") : line(1 + i % 12)) + '\n';
  }
  text += line(5);
  return text;
}

// Reads record.data and never asks for words: one row per record, keyed on
// the record's length.
class RecordLengthMapper final : public Mapper {
 public:
  void map(const dfs::Record& record, Emitter& out) override {
    out.emit(std::to_string(record.data.size()), "1");
  }
};

TEST(MergedMapTaskTest, SharedSplitEqualsSoloUnderEveryTokenizeMode) {
  const std::string text = irregularly_spaced_block();
  {
    // The block has the shape the test is about.
    dfs::SharedScanReader reader(std::make_shared<const std::string>(text));
    std::vector<std::vector<std::string>> chunks;
    reader.add_consumer([&](dfs::RecordChunk chunk) {
      std::vector<std::string>& records = chunks.emplace_back();
      for (const dfs::Record& r : chunk) records.emplace_back(r.data);
    });
    reader.scan();
    ASSERT_GE(chunks.size(), 4u);
    EXPECT_EQ(chunks[0].back(), "");
    EXPECT_EQ(chunks[1].front(), "   ");
    EXPECT_GT(chunks[1].back().size(), dfs::kScanChunkBytes);
    EXPECT_EQ(chunks[1].back().front(), ' ');
    EXPECT_NE(text.back(), '\n');
  }

  dfs::BlockStore store;
  ASSERT_TRUE(store.put(BlockId(0), text).is_ok());
  dfs::StoredBlocks source(store);
  const JobSpec heavy =
      workloads::make_heavy_wordcount_job(JobId(0), FileId(0), 2, 4);
  const JobSpec prefix =
      workloads::make_wordcount_job(JobId(1), FileId(0), "t", 4, true);
  const JobSpec wide =
      workloads::make_wordcount_job(JobId(2), FileId(0), "", 8, false);
  JobSpec lengths;
  lengths.id = JobId(3);
  lengths.name = "record-lengths";
  lengths.mapper_factory = [] { return std::make_unique<RecordLengthMapper>(); };
  lengths.reducer_factory = [] {
    return std::make_unique<workloads::SumReducer>();
  };
  lengths.num_reduce_tasks = 2;
  const std::vector<const JobSpec*> members = {&heavy, &prefix, &wide,
                                               &lengths};

  struct RestoreAutoMode {
    ~RestoreAutoMode() { dfs::set_tokenize_mode(dfs::TokenizeMode::kAuto); }
  } restore;
  for (const dfs::TokenizeMode mode :
       {dfs::TokenizeMode::kScalar, dfs::TokenizeMode::kSwar,
        dfs::TokenizeMode::kSimd}) {
    SCOPED_TRACE("mode " + std::to_string(static_cast<int>(mode)));
    dfs::set_tokenize_mode(mode);
    const auto merged = run_map_task(source, members);
    for (const JobSpec* spec : members) {
      const auto solo = run_map_task(source, {spec});
      ASSERT_EQ(merged.count(spec->id.value()), 1u);
      ASSERT_EQ(solo.count(spec->id.value()), 1u);
      const MemberOutput& m = merged.at(spec->id.value());
      const MemberOutput& s = solo.at(spec->id.value());
      EXPECT_EQ(m.counters, s.counters) << spec->name;
      EXPECT_EQ(m.partitions, s.partitions) << spec->name;
      EXPECT_GT(m.counters[2], 0u) << spec->name;  // map_output_records
    }
  }
}

TEST_F(MapReduceRunnerTest, ReducePartitionOutOfRange) {
  const JobSpec spec = wordcount_spec(JobId(0), "the", 2);
  shuffle_.register_job(spec.id, 2);
  ReduceRunner runner(shuffle_);
  ReduceTaskSpec task;
  task.id = TaskId(0);
  task.job = &spec;
  task.partition = 5;
  EXPECT_EQ(runner.run(task).status().code(), StatusCode::kOutOfRange);
}

}  // namespace
}  // namespace s3::engine
