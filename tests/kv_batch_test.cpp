// Unit tests for the flat record batch (KVBatch) and the grouping primitives
// of the overhauled data path: hash_group (in-map combining),
// merge_runs_and_group (sorted-run shuffle) and fold_runs (finalize's
// re-reduce), each checked against the legacy sort_and_group oracle on
// randomized data.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "engine/job.h"
#include "engine/kv.h"
#include "engine/kv_batch.h"
#include "engine/reduce_runner.h"
#include "engine/shuffle.h"

namespace s3::engine {
namespace {

TEST(KVBatchTest, EmptyBatch) {
  KVBatch batch;
  EXPECT_TRUE(batch.empty());
  EXPECT_EQ(batch.size(), 0u);
  EXPECT_EQ(batch.payload_bytes(), 0u);
  EXPECT_TRUE(batch.sorted_by_key());  // trivially
  batch.sort_by_key();                 // no-op, must not crash
  EXPECT_EQ(hash_group(batch,
                       [](std::string_view,
                          const std::vector<std::string_view>&) {
                         FAIL() << "no groups expected";
                       }),
            0u);
}

TEST(KVBatchTest, SingleRecord) {
  KVBatch batch;
  batch.append("key", "value");
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch.key(0), "key");
  EXPECT_EQ(batch.value(0), "value");
  EXPECT_EQ(batch.payload_bytes(), 8u);
  EXPECT_TRUE(batch.sorted_by_key());
}

TEST(KVBatchTest, EmptyKeysAndValues) {
  KVBatch batch;
  batch.append("", "v");
  batch.append("k", "");
  batch.append("", "");
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_EQ(batch.key(0), "");
  EXPECT_EQ(batch.value(0), "v");
  EXPECT_EQ(batch.key(1), "k");
  EXPECT_EQ(batch.value(1), "");
  EXPECT_EQ(batch.key(2), "");
  EXPECT_EQ(batch.value(2), "");

  // Grouping must treat the two empty keys as one group.
  std::vector<std::string> keys;
  std::vector<std::size_t> sizes;
  const auto groups = hash_group(
      batch, [&](std::string_view key,
                 const std::vector<std::string_view>& values) {
        keys.emplace_back(key);
        sizes.push_back(values.size());
      });
  EXPECT_EQ(groups, 2u);
  EXPECT_EQ(keys, (std::vector<std::string>{"", "k"}));
  EXPECT_EQ(sizes, (std::vector<std::size_t>{2, 1}));
}

TEST(KVBatchTest, ArenaGrowthAcrossAppendsKeepsAllRecords) {
  // Force many arena reallocations; offset-based accessors must stay correct.
  KVBatch batch;
  constexpr int kRecords = 5000;
  for (int i = 0; i < kRecords; ++i) {
    const std::string key = "key-" + std::to_string(i % 97);
    const std::string value(static_cast<std::size_t>(1 + i % 31), 'v');
    batch.append(key, value);
  }
  ASSERT_EQ(batch.size(), static_cast<std::size_t>(kRecords));
  for (int i = 0; i < kRecords; ++i) {
    EXPECT_EQ(batch.key(static_cast<std::size_t>(i)),
              "key-" + std::to_string(i % 97));
    EXPECT_EQ(batch.value(static_cast<std::size_t>(i)).size(),
              static_cast<std::size_t>(1 + i % 31));
  }
}

TEST(KVBatchTest, SortByKeyIsStable) {
  KVBatch batch;
  batch.append("b", "1");
  batch.append("a", "2");
  batch.append("b", "3");
  batch.append("a", "4");
  batch.sort_by_key();
  ASSERT_TRUE(batch.sorted_by_key());
  EXPECT_EQ(batch.key(0), "a");
  EXPECT_EQ(batch.value(0), "2");
  EXPECT_EQ(batch.value(1), "4");  // append order preserved within "a"
  EXPECT_EQ(batch.key(2), "b");
  EXPECT_EQ(batch.value(2), "1");
  EXPECT_EQ(batch.value(3), "3");
}

TEST(KVBatchTest, SortByKeyOnAscendingInputKeepsEntryOrder) {
  // A reducer's output run usually arrives in key order already: sealing it
  // must leave the entries where they are and mark the run sorted.
  KVBatch batch;
  batch.append("a", "2");
  batch.append("a", "1");
  batch.append("b", "3");
  batch.append("c", "0");
  ASSERT_FALSE(batch.sorted_by_key());
  batch.sort_by_key();
  EXPECT_TRUE(batch.sorted_by_key());
  const std::vector<std::pair<std::string, std::string>> want = {
      {"a", "2"}, {"a", "1"}, {"b", "3"}, {"c", "0"}};
  ASSERT_EQ(batch.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(batch.key(i), want[i].first) << i;
    EXPECT_EQ(batch.value(i), want[i].second) << i;
  }
}

TEST(KVBatchTest, AppendAfterSortClearsSortedFlag) {
  KVBatch batch;
  batch.append("b", "1");
  batch.append("a", "2");
  batch.sort_by_key();
  EXPECT_TRUE(batch.sorted_by_key());
  batch.append("0", "3");
  EXPECT_FALSE(batch.sorted_by_key());
}

// Collects grouping output as key -> concatenated values for comparison.
using GroupMap = std::map<std::string, std::vector<std::string>>;

GroupMap oracle_groups(const KVBatch& batch) {
  std::vector<KeyValue> records;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    records.push_back(
        KeyValue{std::string(batch.key(i)), std::string(batch.value(i))});
  }
  GroupMap out;
  sort_and_group(std::move(records),
                 [&](const std::string& key,
                     const std::vector<std::string>& values) {
                   out[key] = values;
                 });
  return out;
}

KVBatch random_batch(Rng& rng, std::size_t records, std::uint64_t key_space) {
  KVBatch batch;
  for (std::size_t i = 0; i < records; ++i) {
    batch.append("k" + std::to_string(rng.uniform_u64(key_space)),
                 std::to_string(rng.uniform_u64(1000)));
  }
  return batch;
}

TEST(HashGroupTest, MatchesSortOracleOnRandomData) {
  Rng rng(42);
  for (int trial = 0; trial < 10; ++trial) {
    const KVBatch batch = random_batch(rng, 500 + rng.uniform_u64(1500),
                                       1 + rng.uniform_u64(200));
    GroupMap got;
    const auto groups = hash_group(
        batch, [&](std::string_view key,
                   const std::vector<std::string_view>& values) {
          auto& slot = got[std::string(key)];
          for (const auto v : values) slot.emplace_back(v);
        });
    GroupMap want = oracle_groups(batch);
    EXPECT_EQ(groups, want.size());
    // Value order within a key differs (the oracle's std::sort is unstable);
    // the value multiset per key must match exactly.
    for (auto& [k, v] : got) std::sort(v.begin(), v.end());
    for (auto& [k, v] : want) std::sort(v.begin(), v.end());
    EXPECT_EQ(got, want);
  }
}

TEST(MergeRunsTest, MatchesSortOracleOnRandomRuns) {
  Rng rng(7);
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t num_runs = 1 + rng.uniform_u64(6);
    std::vector<KVBatch> runs;
    KVBatch all;  // same records, one flat batch, for the oracle
    for (std::size_t r = 0; r < num_runs; ++r) {
      KVBatch run = random_batch(rng, rng.uniform_u64(400),
                                 1 + rng.uniform_u64(50));
      for (std::size_t i = 0; i < run.size(); ++i) {
        all.append(run.key(i), run.value(i));
      }
      run.sort_by_key();
      runs.push_back(std::move(run));
    }
    GroupMap got;
    std::vector<std::string> key_order;
    const auto groups = merge_runs_and_group(
        runs, [&](std::string_view key,
                  const std::vector<std::string_view>& values) {
          key_order.emplace_back(key);
          auto& slot = got[std::string(key)];
          for (const auto v : values) slot.emplace_back(v);
        });
    GroupMap want = oracle_groups(all);
    // Value multisets per key must match (cross-run value order is the run
    // order, which the flat oracle does not reproduce — sort both).
    for (auto& [k, v] : got) std::sort(v.begin(), v.end());
    for (auto& [k, v] : want) std::sort(v.begin(), v.end());
    EXPECT_EQ(got, want);
    EXPECT_EQ(groups, want.size());
    // Keys must come out in ascending order.
    EXPECT_TRUE(std::is_sorted(key_order.begin(), key_order.end()));
  }
}

TEST(MergeRunsTest, EmptyAndSingleRun) {
  EXPECT_EQ(merge_runs_and_group({}, [](std::string_view,
                                        const std::vector<std::string_view>&) {
              FAIL() << "no groups expected";
            }),
            0u);

  KVBatch run;
  run.append("a", "1");
  run.append("a", "2");
  run.append("b", "3");
  run.sort_by_key();
  std::vector<KVBatch> runs;
  runs.push_back(std::move(run));
  std::vector<std::string> keys;
  std::vector<std::size_t> sizes;
  EXPECT_EQ(merge_runs_and_group(
                runs, [&](std::string_view key,
                          const std::vector<std::string_view>& values) {
                  keys.emplace_back(key);
                  sizes.push_back(values.size());
                }),
            2u);
  EXPECT_EQ(keys, (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(sizes, (std::vector<std::size_t>{2, 1}));
}

// Sums a group's integer values (an algebraic reducer).
class SumValues final : public Reducer {
 public:
  void reduce(std::string_view key, const std::vector<std::string_view>& values,
              Emitter& out) override {
    std::uint64_t sum = 0;
    for (const auto v : values) sum += std::stoull(std::string(v));
    out.emit(key, std::to_string(sum));
  }
};

TEST(FoldRunsTest, MatchesSortOracleOnRandomRuns) {
  JobSpec job;
  job.reducer_factory = [] { return std::make_unique<SumValues>(); };
  Rng rng(11);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<KVBatch> runs;
    KVBatch all;
    const std::size_t num_runs = 1 + rng.uniform_u64(5);
    for (std::size_t r = 0; r < num_runs; ++r) {
      KVBatch run = random_batch(rng, rng.uniform_u64(300),
                                 1 + rng.uniform_u64(60));
      for (std::size_t i = 0; i < run.size(); ++i) {
        all.append(run.key(i), run.value(i));
      }
      run.sort_by_key();
      runs.push_back(std::move(run));
    }
    const KVBatch folded = fold_runs(job, runs);
    EXPECT_TRUE(folded.sorted_by_key());
    std::map<std::string, std::string> got;
    for (std::size_t i = 0; i < folded.size(); ++i) {
      EXPECT_TRUE(got.emplace(std::string(folded.key(i)),
                              std::string(folded.value(i)))
                      .second)
          << "key folded twice: " << folded.key(i);
    }
    std::map<std::string, std::string> want;
    for (const auto& [key, values] : oracle_groups(all)) {
      std::uint64_t sum = 0;
      for (const auto& v : values) sum += std::stoull(v);
      want[key] = std::to_string(sum);
    }
    EXPECT_EQ(got, want);
  }
}

TEST(PartitionTest, ViewAndStringAgree) {
  const std::string key = "some-key";
  EXPECT_EQ(partition_for_key(key, 16), partition_for_key("some-key", 16));
  EXPECT_EQ(fnv1a("abc"), fnv1a(std::string("abc")));
}


#if S3_VIEW_CHECKS
// ---------------------------------------------------------------------------
// Runtime view validation (DebugView / ArenaStamp). Checked builds stamp
// each batch arena with a generation; any arena mutation bumps it, and a
// stale view aborts on dereference with a named witness. These are the
// runtime mirrors of the s3viewcheck static rules.

TEST(KVBatchViewChecksTest, GenerationBumpsTrackInvalidations) {
  KVBatch batch;
  batch.reserve(4, 64);
  const auto g0 = batch.generation_for_test();
  batch.append("a", "1");  // fits in reserved capacity: no reallocation
  EXPECT_EQ(batch.generation_for_test(), g0);
  batch.clear();
  const auto g1 = batch.generation_for_test();
  EXPECT_GT(g1, g0);
  batch.prefault(4, 64);
  EXPECT_GT(batch.generation_for_test(), g1);
}

TEST(KVBatchViewChecksTest, FreshViewsValidateAndCompare) {
  KVBatch batch;
  batch.append("key", "value");
  const auto k = batch.key(0);
  EXPECT_FALSE(k.stale());
  EXPECT_EQ(std::string(k), "key");
  EXPECT_EQ(k, batch.key(0));
  EXPECT_LT(k, batch.value(0));
  batch.clear();
  EXPECT_TRUE(k.stale());  // stale() itself must not abort (test hook)
}

TEST(KVBatchViewChecksDeathTest, StaleViewAfterClearAborts) {
  KVBatch batch;
  batch.append("key", "value");
  const auto k = batch.key(0);
  batch.clear();
  EXPECT_DEATH((void)std::string_view(k), "stale view from KVBatch::key");
}

TEST(KVBatchViewChecksDeathTest, StaleViewAfterArenaGrowthAborts) {
  // The append-after-read hazard: the arena reallocates on growth, so the
  // first key's bytes move out from under the held view.
  KVBatch batch;
  batch.append("key", "value");
  const auto k = batch.key(0);
  EXPECT_DEATH(
      {
        for (int i = 0; i < 4096; ++i) batch.append("grow", "grow");
        (void)std::string_view(k);
      },
      "stale view from KVBatch::key");
}

TEST(KVBatchViewChecksDeathTest, StaleViewAfterMoveAborts) {
  // Moves transfer (or byte-copy, under SSO) the arena: views into the
  // source are dead either way. Pool recycle is release(std::move(batch)).
  KVBatch batch;
  batch.append("key", "value");
  const auto v = batch.value(0);
  KVBatch stolen = std::move(batch);
  EXPECT_DEATH((void)std::string_view(v), "stale view from KVBatch::value");
  EXPECT_EQ(stolen.value(0), "value");  // views re-fetched from the new home
}

TEST(KVBatchViewChecksDeathTest, StaleViewAfterDestructionAborts) {
  // The generation cell outlives the batch (never-freed cell pool), so even
  // a use-after-free validates and aborts deterministically instead of
  // reading freed memory.
  ArenaView k = [] {
    KVBatch batch;
    batch.append("key", "value");
    return batch.key(0);
  }();
  EXPECT_DEATH((void)std::string_view(k), "stale view from KVBatch::key");
}
#endif  // S3_VIEW_CHECKS

}  // namespace
}  // namespace s3::engine
