// Differential tests for the vectorized tokenizer: the SWAR and SSE2 scan
// paths must split every input into exactly the words the scalar loop
// produces — unit-level on adversarial and fuzzed strings, and end-to-end
// through the full engine under all three schedulers (FIFO, MRShare, S3),
// where a single divergent token boundary would change wordcount output.
#include "dfs/tokenize.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/real_driver.h"
#include "workloads/suite.h"
#include "workloads/text_corpus.h"
#include "workloads/wordcount.h"

namespace s3 {
namespace {

using dfs::TokenizeMode;

std::vector<std::string> tokens(std::string_view line, TokenizeMode mode) {
  dfs::set_tokenize_mode(mode);
  std::vector<std::string> out;
  dfs::for_each_word(line, [&](std::string_view w) { out.emplace_back(w); });
  dfs::set_tokenize_mode(TokenizeMode::kAuto);
  return out;
}

class TokenizeTest : public ::testing::Test {
 protected:
  ~TokenizeTest() override {
    dfs::set_tokenize_mode(TokenizeMode::kAuto);
  }
};

TEST_F(TokenizeTest, AllModesAgreeOnEdgeCases) {
  const std::vector<std::string> cases = {
      "",
      " ",
      "                                        ",  // > 2 SIMD chunks of space
      "a",
      " a",
      "a ",
      "  a  b  ",
      "one two three",
      "exactly-sixteen!",                  // 16 bytes, no space
      "exactly-sixteen! and-then-more",    // space right at a chunk edge
      std::string(7, 'x'),                 // SWAR tail only
      std::string(8, 'x'),                 // one exact SWAR word
      std::string(15, 'x'),                // SIMD tail lands in SWAR
      std::string(16, 'x'),                // one exact SIMD chunk
      std::string(17, 'x'),
      std::string(100, 'x'),
      std::string(100, ' '),
      std::string(31, 'x') + " " + std::string(33, 'y'),
      "word\tword",    // tab is NOT a delimiter (corpus is space-separated)
      "word\nword",    // neither is newline (records are pre-split lines)
      std::string("em\0bedded nul", 13),  // NUL bytes are word bytes
      // ' ' followed by '!' (0x21, i.e. delimiter+1): a borrow-propagating
      // SWAR detector falsely flags the '!' as a space. Keep adjacency at
      // several offsets inside and across the 8/16-byte windows.
      " !",
      "hello !world",
      "a ! b !! c !",
      "1234567 !89abcde !",
      std::string(15, 'x') + " !tail",
      " ! ! ! ! ! ! ! ! ! !",
  };
  for (const auto& line : cases) {
    SCOPED_TRACE("line='" + line + "'");
    const auto scalar = tokens(line, TokenizeMode::kScalar);
    EXPECT_EQ(tokens(line, TokenizeMode::kSwar), scalar);
    EXPECT_EQ(tokens(line, TokenizeMode::kSimd), scalar);
  }
}

TEST_F(TokenizeTest, FuzzedLinesMatchScalarOracle) {
  Rng rng(20260807);
  for (int trial = 0; trial < 2000; ++trial) {
    const std::size_t len = rng.uniform_u64(200);
    std::string line;
    line.reserve(len);
    for (std::size_t i = 0; i < len; ++i) {
      // Space-weighted draw over ALL 256 byte values, so runs of delimiters,
      // words of every length relative to the 8/16-byte chunk sizes, and
      // detector-adversarial bytes (0x21 after a space, 0x80+ high bytes,
      // NULs) all occur.
      const std::uint64_t roll = rng.uniform_u64(4);
      line.push_back(roll == 0 ? ' '
                               : static_cast<char>(rng.uniform_u64(256)));
    }
    SCOPED_TRACE("trial " + std::to_string(trial) + " line='" + line + "'");
    const auto scalar = tokens(line, TokenizeMode::kScalar);
    ASSERT_EQ(tokens(line, TokenizeMode::kSwar), scalar);
    ASSERT_EQ(tokens(line, TokenizeMode::kSimd), scalar);
  }
}

TEST_F(TokenizeTest, AutoResolvesToAWideMode) {
  dfs::set_tokenize_mode(TokenizeMode::kAuto);
  const TokenizeMode effective = dfs::effective_tokenize_mode();
  EXPECT_NE(effective, TokenizeMode::kAuto);
  EXPECT_NE(effective, TokenizeMode::kScalar);
}

// --- End-to-end: scalar vs vectorized through all three schedulers ------

struct World {
  dfs::DfsNamespace ns;
  dfs::BlockStore store;
  cluster::Topology topology = cluster::Topology::uniform(3, 1);
  sched::FileCatalog catalog;
  FileId text_file;
  static constexpr std::uint64_t kBlocks = 6;

  World() {
    dfs::PlacementTopology ptopo;
    for (const auto& n : topology.nodes()) {
      ptopo.nodes.push_back({n.id, n.rack});
    }
    dfs::RoundRobinPlacement placement(ptopo);
    workloads::TextCorpusGenerator corpus;
    text_file = corpus
                    .generate_file(ns, store, placement, "text", kBlocks,
                                   ByteSize::kib(8))
                    .value();
    catalog.add(text_file, kBlocks);
  }
};

std::unordered_map<JobId, engine::JobResult> run_wordcount_mix(
    World& world, const char* scheme, TokenizeMode mode) {
  dfs::set_tokenize_mode(mode);
  std::unique_ptr<sched::Scheduler> scheduler;
  if (scheme[0] == 'f') {
    scheduler = workloads::make_fifo(world.catalog);
  } else if (scheme[0] == 'm') {
    scheduler = workloads::make_mrs3(world.catalog);
  } else {
    scheduler = workloads::make_s3(world.catalog, world.topology, 3);
  }
  engine::LocalEngineOptions opts;
  opts.map_workers = 3;
  opts.reduce_workers = 2;
  engine::LocalEngine engine(world.ns, world.store, opts);
  core::RealDriver driver(world.ns, engine, world.catalog,
                          {/*time_scale=*/1e5});
  std::vector<core::RealJob> jobs;
  jobs.push_back({workloads::make_wordcount_job(JobId(0), world.text_file, "t",
                                                3, /*with_combiner=*/true),
                  0.0, 0});
  jobs.push_back({workloads::make_wordcount_job(JobId(1), world.text_file, "",
                                                2, /*with_combiner=*/false),
                  0.5, 0});
  jobs.push_back(
      {workloads::make_heavy_wordcount_job(JobId(2), world.text_file, 2, 2),
       1.0, 0});
  auto run = driver.run(*scheduler, std::move(jobs));
  dfs::set_tokenize_mode(TokenizeMode::kAuto);
  EXPECT_TRUE(run.is_ok()) << scheme << ": " << run.status();
  return std::move(run.value().outputs);
}

TEST_F(TokenizeTest, VectorizedMatchesScalarAcrossAllSchedulers) {
  for (const char* scheme : {"fifo", "mrs3", "s3"}) {
    SCOPED_TRACE(scheme);
    World world;
    const auto scalar =
        run_wordcount_mix(world, scheme, TokenizeMode::kScalar);
    const auto simd = run_wordcount_mix(world, scheme, TokenizeMode::kSimd);
    const auto swar = run_wordcount_mix(world, scheme, TokenizeMode::kSwar);
    ASSERT_EQ(simd.size(), scalar.size());
    ASSERT_EQ(swar.size(), scalar.size());
    for (const auto& [job, result] : scalar) {
      SCOPED_TRACE("job " + std::to_string(job.value()));
      for (const auto* other : {&simd, &swar}) {
        const auto it = other->find(job);
        ASSERT_NE(it, other->end());
        ASSERT_EQ(it->second.output.size(), result.output.size());
        for (std::size_t i = 0; i < result.output.size(); ++i) {
          EXPECT_EQ(it->second.output[i].key, result.output[i].key);
          EXPECT_EQ(it->second.output[i].value, result.output[i].value);
        }
      }
    }
  }
}

}  // namespace
}  // namespace s3
