// Tests for workload generators: synthetic text corpus, TPC-H lineitem,
// arrival patterns, job builders and paper presets.
#include <gtest/gtest.h>

#include <charconv>
#include <set>

#include "workloads/arrival.h"
#include "workloads/suite.h"
#include "workloads/text_corpus.h"
#include "workloads/tpch.h"
#include "workloads/wordcount.h"

namespace s3::workloads {
namespace {

TEST(TextCorpusTest, DeterministicBlocks) {
  TextCorpusGenerator a, b;
  EXPECT_EQ(a.generate_block(3, ByteSize::kib(8)),
            b.generate_block(3, ByteSize::kib(8)));
  EXPECT_NE(a.generate_block(3, ByteSize::kib(8)),
            a.generate_block(4, ByteSize::kib(8)));
}

TEST(TextCorpusTest, SeedChangesContent) {
  TextCorpusOptions opts;
  opts.seed = 1;
  TextCorpusGenerator a(opts);
  opts.seed = 2;
  TextCorpusGenerator b(opts);
  EXPECT_NE(a.generate_block(0, ByteSize::kib(4)),
            b.generate_block(0, ByteSize::kib(4)));
}

TEST(TextCorpusTest, BlockSizeRespected) {
  TextCorpusGenerator corpus;
  const auto block = corpus.generate_block(0, ByteSize::kib(16));
  EXPECT_LE(block.size(), 16u * 1024);
  EXPECT_GT(block.size(), 15u * 1024);  // nearly full
  EXPECT_EQ(block.back(), '\n');
}

TEST(TextCorpusTest, VocabularyUniqueAndSized) {
  TextCorpusOptions opts;
  opts.vocabulary_size = 500;
  TextCorpusGenerator corpus(opts);
  const auto& vocab = corpus.vocabulary();
  EXPECT_EQ(vocab.size(), 500u);
  EXPECT_EQ(std::set<std::string>(vocab.begin(), vocab.end()).size(), 500u);
  for (const auto& word : vocab) {
    EXPECT_GE(word.size(), opts.min_word_len);
    EXPECT_LE(word.size(), opts.max_word_len);
  }
}

TEST(TextCorpusTest, ZipfHeadDominates) {
  TextCorpusGenerator corpus;
  const auto block = corpus.generate_block(0, ByteSize::kib(64));
  // The rank-0 word should appear far more often than a mid-rank word.
  const std::string& head = corpus.vocabulary()[0];
  const std::string& mid = corpus.vocabulary()[200];
  std::size_t head_count = 0, mid_count = 0, pos = 0;
  while ((pos = block.find(head, pos)) != std::string::npos) {
    ++head_count;
    pos += head.size();
  }
  pos = 0;
  while ((pos = block.find(mid, pos)) != std::string::npos) {
    ++mid_count;
    pos += mid.size();
  }
  EXPECT_GT(head_count, mid_count);
}

TEST(TextCorpusTest, GenerateFilePopulatesDfs) {
  dfs::DfsNamespace ns;
  dfs::BlockStore store;
  dfs::PlacementTopology topo;
  topo.nodes.push_back({NodeId(0), RackId(0)});
  topo.nodes.push_back({NodeId(1), RackId(0)});
  dfs::RoundRobinPlacement placement(topo);
  TextCorpusGenerator corpus;
  auto file = corpus.generate_file(ns, store, placement, "f", 6,
                                   ByteSize::kib(4));
  ASSERT_TRUE(file.is_ok());
  EXPECT_EQ(ns.file(file.value()).num_blocks(), 6u);
  EXPECT_EQ(store.num_blocks(), 6u);
  for (const BlockId b : ns.file(file.value()).blocks) {
    EXPECT_EQ(ns.block(b).replicas.size(), 1u);
    EXPECT_TRUE(store.contains(b));
  }
}

TEST(LineitemTest, RowHas16Columns) {
  tpch::LineitemGenerator gen;
  const std::string row = gen.row(0);  // keep alive: fields view into it
  dfs::FieldScratch scratch;
  const auto fields = dfs::fields_of(dfs::Record{0, row}, scratch);
  EXPECT_EQ(fields.size(), static_cast<std::size_t>(tpch::kNumColumns));
}

TEST(LineitemTest, RowsDeterministic) {
  tpch::LineitemGenerator a(3), b(3), c(4);
  EXPECT_EQ(a.row(7), b.row(7));
  EXPECT_NE(a.row(7), c.row(7));
}

TEST(LineitemTest, OrderAndLineNumbers) {
  tpch::LineitemGenerator gen;
  const std::string r0 = gen.row(0);
  const std::string r5 = gen.row(5);
  dfs::FieldScratch s0, s5;
  const auto f0 = dfs::fields_of(dfs::Record{0, r0}, s0);
  const auto f5 = dfs::fields_of(dfs::Record{0, r5}, s5);
  EXPECT_EQ(f0[tpch::kOrderKey], "1");
  EXPECT_EQ(f0[tpch::kLineNumber], "1");
  EXPECT_EQ(f5[tpch::kOrderKey], "2");
  EXPECT_EQ(f5[tpch::kLineNumber], "2");
}

TEST(LineitemTest, QuantityUniformSelectivity) {
  // quantity <= 5 must select ~10 % of rows (quantity uniform 1..50).
  tpch::LineitemGenerator gen;
  int selected = 0;
  const int n = 5000;
  dfs::FieldScratch scratch;
  for (int i = 0; i < n; ++i) {
    const std::string row = gen.row(static_cast<std::uint64_t>(i));
    const auto fields = dfs::fields_of(dfs::Record{0, row}, scratch);
    int quantity = 0;
    const auto q = fields[tpch::kQuantity];
    std::from_chars(q.data(), q.data() + q.size(), quantity);
    ASSERT_GE(quantity, 1);
    ASSERT_LE(quantity, 50);
    if (quantity <= 5) ++selected;
  }
  EXPECT_NEAR(static_cast<double>(selected) / n, 0.10, 0.02);
}

TEST(LineitemTest, BlocksHaveDisjointRows) {
  tpch::LineitemGenerator gen;
  const auto b0 = gen.generate_block(0, ByteSize::kib(4));
  const auto b1 = gen.generate_block(1, ByteSize::kib(4));
  // First row of block 1 differs from any row of block 0 (disjoint ranges).
  const auto first_row = b1.substr(0, b1.find('\n'));
  EXPECT_EQ(b0.find(first_row), std::string::npos);
}

TEST(SelectionMapperTest, FiltersByQuantity) {
  tpch::LineitemGenerator gen;
  tpch::SelectionMapper mapper(5);
  std::vector<engine::KeyValue> out;
  class Collect final : public engine::Emitter {
   public:
    explicit Collect(std::vector<engine::KeyValue>& o) : out_(&o) {}
    void emit(std::string_view k, std::string_view v) override {
      out_->push_back({std::string(k), std::string(v)});
    }
   private:
    std::vector<engine::KeyValue>* out_;
  } collect(out);

  int expected = 0;
  dfs::FieldScratch scratch;
  for (std::uint64_t i = 0; i < 500; ++i) {
    const std::string row = gen.row(i);
    const auto fields = dfs::fields_of(dfs::Record{0, row}, scratch);
    int quantity = 0;
    std::from_chars(fields[tpch::kQuantity].data(),
                    fields[tpch::kQuantity].data() + fields[tpch::kQuantity].size(),
                    quantity);
    if (quantity <= 5) ++expected;
    dfs::Record record{0, row};
    mapper.map(record, collect);
  }
  EXPECT_EQ(out.size(), static_cast<std::size_t>(expected));
}

TEST(SelectionMapperTest, IgnoresMalformedRows) {
  tpch::SelectionMapper mapper(5);
  class Fail final : public engine::Emitter {
   public:
    void emit(std::string_view, std::string_view) override {
      FAIL() << "no emit";
    }
  } collect;
  mapper.map(dfs::Record{0, "not|a|lineitem"}, collect);
  mapper.map(dfs::Record{0, ""}, collect);
  mapper.map(dfs::Record{0, "a|b|c|d|xx|f|g|h|i|j|k|l|m|n|o|p"}, collect);
}

TEST(WordCountMapperTest, PrefixFilter) {
  PatternWordCountMapper mapper("th");
  std::vector<engine::KeyValue> out;
  class Collect final : public engine::Emitter {
   public:
    explicit Collect(std::vector<engine::KeyValue>& o) : out_(&o) {}
    void emit(std::string_view k, std::string_view v) override {
      out_->push_back({std::string(k), std::string(v)});
    }
   private:
    std::vector<engine::KeyValue>* out_;
  } collect(out);
  mapper.map(dfs::Record{0, "the quick thorn  tree th"}, collect);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].key, "the");
  EXPECT_EQ(out[1].key, "thorn");
  EXPECT_EQ(out[2].key, "th");
}

TEST(WordCountMapperTest, EmptyPrefixMatchesAll) {
  PatternWordCountMapper mapper("");
  int count = 0;
  class Count final : public engine::Emitter {
   public:
    explicit Count(int& c) : c_(&c) {}
    void emit(std::string_view, std::string_view) override { ++*c_; }
   private:
    int* c_;
  } collect(count);
  mapper.map(dfs::Record{0, "a b c"}, collect);
  EXPECT_EQ(count, 3);
}

TEST(SumReducerTest, SumsValues) {
  SumReducer reducer;
  std::vector<engine::KeyValue> out;
  class Collect final : public engine::Emitter {
   public:
    explicit Collect(std::vector<engine::KeyValue>& o) : out_(&o) {}
    void emit(std::string_view k, std::string_view v) override {
      out_->push_back({std::string(k), std::string(v)});
    }
   private:
    std::vector<engine::KeyValue>* out_;
  } collect(out);
  reducer.reduce("word", {"1", "2", "30"}, collect);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].value, "33");
}

TEST(HeavyMapperTest, AmplifiesOutput) {
  HeavyWordCountMapper mapper(3);
  int count = 0;
  class Count final : public engine::Emitter {
   public:
    explicit Count(int& c) : c_(&c) {}
    void emit(std::string_view, std::string_view) override { ++*c_; }
   private:
    int* c_;
  } collect(count);
  mapper.map(dfs::Record{0, "x y"}, collect);
  EXPECT_EQ(count, 6);  // 2 words x 3 amplification
}

TEST(ArrivalTest, DensePattern) {
  const auto arrivals = dense_pattern(4, 3.0);
  EXPECT_EQ(arrivals, (std::vector<SimTime>{0.0, 3.0, 6.0, 9.0}));
}

TEST(ArrivalTest, SparseGroups) {
  const auto arrivals = sparse_groups({2, 3}, 100.0, 10.0);
  EXPECT_EQ(arrivals,
            (std::vector<SimTime>{0.0, 10.0, 100.0, 110.0, 120.0}));
}

TEST(ArrivalTest, PoissonSortedAndSized) {
  Rng rng(5);
  const auto arrivals = poisson_pattern(50, 20.0, rng);
  EXPECT_EQ(arrivals.size(), 50u);
  EXPECT_DOUBLE_EQ(arrivals[0], 0.0);
  EXPECT_TRUE(std::is_sorted(arrivals.begin(), arrivals.end()));
}

TEST(SuiteTest, PaperSetupScales) {
  const auto s64 = make_paper_setup(64.0);
  EXPECT_EQ(s64.wordcount_blocks, 2560u);
  EXPECT_EQ(s64.lineitem_blocks, 6400u);
  EXPECT_EQ(s64.default_segment_blocks(), 320u);
  const auto s128 = make_paper_setup(128.0);
  EXPECT_EQ(s128.wordcount_blocks, 1280u);
  EXPECT_EQ(s128.default_segment_blocks(), 160u);
  EXPECT_EQ(s64.topology.num_nodes(), 40u);
  EXPECT_TRUE(s64.catalog.contains(s64.wordcount_file));
  EXPECT_TRUE(s64.catalog.contains(s64.lineitem_file));
}

TEST(SuiteTest, MakeSimJobsAssignsIdsAndArrivals) {
  const auto setup = make_paper_setup(64.0);
  const auto jobs = make_sim_jobs(setup.wordcount_file, {0.0, 5.0},
                                  sim::WorkloadCost::wordcount_heavy(), "wc");
  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_EQ(jobs[0].id, JobId(0));
  EXPECT_EQ(jobs[1].id, JobId(1));
  EXPECT_DOUBLE_EQ(jobs[1].arrival, 5.0);
  EXPECT_EQ(jobs[0].cost.class_name, "wordcount-heavy");
  EXPECT_EQ(jobs[1].label, "wc-1");
}

TEST(SuiteTest, SchedulerFactories) {
  const auto setup = make_paper_setup(64.0);
  EXPECT_EQ(make_fifo(setup.catalog)->name(), "FIFO");
  EXPECT_EQ(make_mrs1(setup.catalog)->name(), "MRS1");
  EXPECT_EQ(make_mrs2(setup.catalog)->name(), "MRS2");
  EXPECT_EQ(make_mrs3(setup.catalog)->name(), "MRS3");
  EXPECT_EQ(make_s3(setup.catalog, setup.topology, 320)->name(), "S3");
}

}  // namespace
}  // namespace s3::workloads
