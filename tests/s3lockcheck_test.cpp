// Tests for the s3lockcheck whole-project analyzer: model extraction on
// synthetic sources, and end-to-end runs over temp-dir fixture trees —
// seeded two-lock and three-lock cycles, a blocking-under-lock fixture, and
// a clean miniature of the real hierarchy that must come back green.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <string>

#include "s3lint/lexer.h"
#include "s3lockcheck/graph.h"
#include "s3lockcheck/model.h"
#include "s3lockcheck/s3lockcheck.h"

namespace s3lockcheck {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Model extraction

FileModel extract(const std::string& src) {
  return extract_model("src/test.h", s3lint::tokenize(src));
}

TEST(LockcheckModel, FindsAnnotatedMutexWithRank) {
  const FileModel fm = extract(
      "class Engine {\n"
      "  AnnotatedMutex mu_{LockRank::kEngineState};\n"
      "  AnnotatedSharedMutex reg_mu_{LockRank::kShuffleRegistry};\n"
      "  AnnotatedMutex* borrowed_;  // pointer: not a declaration\n"
      "};\n");
  ASSERT_EQ(fm.mutexes.size(), 2u);
  EXPECT_EQ(fm.mutexes[0].id, "Engine::mu_");
  EXPECT_EQ(fm.mutexes[0].rank, "kEngineState");
  EXPECT_FALSE(fm.mutexes[0].shared);
  EXPECT_EQ(fm.mutexes[1].id, "Engine::reg_mu_");
  EXPECT_TRUE(fm.mutexes[1].shared);
}

TEST(LockcheckModel, NestedClassAndTemplateMemberTypes) {
  const FileModel fm = extract(
      "class Pool {\n"
      "  struct Queue {\n"
      "    AnnotatedMutex mu{LockRank::kPoolQueue};\n"
      "  };\n"
      "  std::vector<std::unique_ptr<Queue>> queues_;\n"
      "};\n");
  ASSERT_EQ(fm.mutexes.size(), 1u);
  EXPECT_EQ(fm.mutexes[0].id, "Pool::Queue::mu");
  // The member type must see through the template wrappers so receiver
  // resolution can map queues_[i]->mu to Pool::Queue::mu.
  EXPECT_EQ(fm.members.at("Pool").at("queues_"), "Queue");
}

TEST(LockcheckModel, RecordsGuardNestingAndHeldSets) {
  const FileModel fm = extract(
      "void Engine::commit() {\n"
      "  MutexLock outer(map_mu_);\n"
      "  MutexLock inner(state_mu_);\n"
      "}\n");
  ASSERT_EQ(fm.functions.size(), 1u);
  const FunctionModel& fn = fm.functions[0];
  ASSERT_EQ(fn.acquires.size(), 2u);
  EXPECT_TRUE(fn.acquires[0].held.empty());
  ASSERT_EQ(fn.acquires[1].held.size(), 1u);
  EXPECT_EQ(fn.acquires[1].held[0], 0);
}

TEST(LockcheckModel, LambdaSitesAreMarkedDeferred) {
  const FileModel fm = extract(
      "void Engine::run() {\n"
      "  MutexLock lock(mu_);\n"
      "  tasks.push_back([this] {\n"
      "    MutexLock inner(worker_mu_);\n"
      "  });\n"
      "}\n");
  ASSERT_EQ(fm.functions.size(), 1u);
  const FunctionModel& fn = fm.functions[0];
  ASSERT_EQ(fn.acquires.size(), 2u);
  EXPECT_FALSE(fn.acquires[0].in_lambda);
  EXPECT_TRUE(fn.acquires[1].in_lambda);
  // The deferred body runs on a pool thread: no inherited held-set.
  EXPECT_TRUE(fn.acquires[1].held.empty());
}

TEST(LockcheckModel, AnnotationsAndRankEnum) {
  const FileModel fm = extract(
      "enum class LockRank : std::uint16_t {\n"
      "  kUnranked = 0,\n"
      "  kA = 10,\n"
      "  kB = 20,\n"
      "};\n"
      "class C {\n"
      "  void locked() S3_REQUIRES(mu_);\n"
      "  void takes() S3_EXCLUDES(mu_);\n"
      "};\n");
  EXPECT_EQ(fm.rank_values.at("kA"), 10);
  EXPECT_EQ(fm.rank_values.at("kB"), 20);
  ASSERT_EQ(fm.functions.size(), 2u);
  ASSERT_EQ(fm.functions[0].requires_args.size(), 1u);
  EXPECT_EQ(fm.functions[0].requires_args[0], "mu_");
  ASSERT_EQ(fm.functions[1].excludes_args.size(), 1u);
  EXPECT_EQ(fm.functions[1].excludes_args[0], "mu_");
}

TEST(LockcheckModel, OwnGuardWaitIsMarked) {
  const FileModel fm = extract(
      "void Pool::drain() {\n"
      "  MutexLock lock(mu_);\n"
      "  while (pending_ != 0) lock.wait(idle_cv_);\n"
      "}\n");
  ASSERT_EQ(fm.functions.size(), 1u);
  const FunctionModel& fn = fm.functions[0];
  bool found = false;
  for (const CallSite& call : fn.calls) {
    if (call.callee == "wait") {
      EXPECT_EQ(call.wait_guard, 0);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(LockcheckModel, ParamTypesSeeThroughTemplates) {
  // Parameters are typed like members: the last class-ish identifier at any
  // template depth, so a lock reached through `q->mu` resolves via Queue.
  const FileModel fm = extract(
      "void Engine::merge(const std::vector<KVBatch>& runs, "
      "std::unique_ptr<Queue>& q, Bucket* b) {}\n");
  ASSERT_EQ(fm.functions.size(), 1u);
  const FunctionModel& fn = fm.functions[0];
  EXPECT_EQ(fn.display, "Engine::merge");
  ASSERT_EQ(fn.params.size(), 3u);
  EXPECT_EQ(fn.params[0].type, "KVBatch");
  EXPECT_EQ(fn.params[0].name, "runs");
  EXPECT_EQ(fn.params[1].type, "Queue");
  EXPECT_EQ(fn.params[1].name, "q");
  EXPECT_EQ(fn.params[2].type, "Bucket");
  EXPECT_EQ(fn.params[2].name, "b");
}

TEST(LockcheckModel, AttributeMacrosAreNotClassNames) {
  // The class name is the last identifier before `final`, a base clause or
  // `{`: an attribute macro, with or without arguments, is skipped.
  const FileModel fm = extract(
      "class S3_CAPABILITY(\"mutex\") Mu {\n"
      " public:\n"
      "  void lock() {}\n"
      " private:\n"
      "  AnnotatedMutex inner_{LockRank::kEngineState};\n"
      "};\n"
      "class S3_SCOPED_CAPABILITY Guard final {\n"
      " public:\n"
      "  void wait() {}\n"
      " private:\n"
      "  Mu* mu_;\n"
      "};\n");
  ASSERT_EQ(fm.mutexes.size(), 1u);
  EXPECT_EQ(fm.mutexes[0].id, "Mu::inner_");
  EXPECT_EQ(fm.members.at("Mu").at("inner_"), "AnnotatedMutex");
  EXPECT_EQ(fm.members.at("Guard").at("mu_"), "Mu");
  EXPECT_EQ(fm.members.count("S3_CAPABILITY"), 0u);
  EXPECT_EQ(fm.members.count("S3_SCOPED_CAPABILITY"), 0u);
  std::set<std::string> functions;
  for (const FunctionModel& fn : fm.functions) functions.insert(fn.display);
  EXPECT_EQ(functions, (std::set<std::string>{"Guard::wait", "Mu::lock"}));
}

// ---------------------------------------------------------------------------
// End-to-end fixture trees

class LockcheckFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fs::temp_directory_path() /
            ("s3lockcheck_test_" +
             std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
             "_" + ::testing::UnitTest::GetInstance()
                       ->current_test_info()
                       ->name());
    fs::create_directories(root_ / "src");
  }
  void TearDown() override { fs::remove_all(root_); }

  void write(const std::string& rel, const std::string& content) {
    const fs::path p = root_ / rel;
    fs::create_directories(p.parent_path());
    std::ofstream out(p);
    out << content;
  }

  int run(std::string* output, std::set<std::string> rules = {}) {
    LockcheckOptions options;
    options.root = root_.string();
    options.rules = std::move(rules);
    return run_lockcheck(options, output);
  }

  // A miniature lock_rank.h so fixtures can rank their mutexes.
  static const char* rank_header() {
    return "#pragma once\n"
           "enum class LockRank : std::uint16_t {\n"
           "  kUnranked = 0,\n"
           "  kOuter = 10,\n"
           "  kMiddle = 20,\n"
           "  kInner = 30,\n"
           "};\n";
  }

  fs::path root_;
};

TEST_F(LockcheckFixture, TwoLockCycleDetected) {
  write("src/lock_rank.h", rank_header());
  write("src/cycle.h",
        "#pragma once\n"
        "class Engine {\n"
        " public:\n"
        "  void ab() {\n"
        "    MutexLock a(mu_a_);\n"
        "    MutexLock b(mu_b_);\n"
        "  }\n"
        "  void ba() {\n"
        "    MutexLock b(mu_b_);\n"
        "    MutexLock a(mu_a_);\n"
        "  }\n"
        " private:\n"
        "  AnnotatedMutex mu_a_{LockRank::kOuter};\n"
        "  AnnotatedMutex mu_b_{LockRank::kInner};\n"
        "};\n");
  std::string output;
  EXPECT_EQ(run(&output, {"lock-cycle"}), 1);
  EXPECT_NE(output.find("lock-cycle"), std::string::npos) << output;
  EXPECT_NE(output.find("Engine::mu_a_"), std::string::npos) << output;
  EXPECT_NE(output.find("Engine::mu_b_"), std::string::npos) << output;
}

TEST_F(LockcheckFixture, ThreeLockCycleAcrossFunctions) {
  write("src/lock_rank.h", rank_header());
  // A -> B in one class, B -> C in another, C -> A through a cross-class
  // call made under lock: the cycle only exists in the merged project graph.
  write("src/three.h",
        "#pragma once\n"
        "class One {\n"
        " public:\n"
        "  void ab() {\n"
        "    MutexLock a(mu_a_);\n"
        "    MutexLock b(other_->mu_b_);\n"
        "  }\n"
        "  AnnotatedMutex mu_a_{LockRank::kOuter};\n"
        "  Two* other_;\n"
        "};\n");
  write("src/two.h",
        "#pragma once\n"
        "class Two {\n"
        " public:\n"
        "  void bc() {\n"
        "    MutexLock b(mu_b_);\n"
        "    MutexLock c(third_->mu_c_);\n"
        "  }\n"
        "  AnnotatedMutex mu_b_{LockRank::kMiddle};\n"
        "  Three* third_;\n"
        "};\n");
  write("src/third.h",
        "#pragma once\n"
        "class Three {\n"
        " public:\n"
        "  void takes_a() {\n"
        "    MutexLock a(one_->mu_a_);\n"
        "  }\n"
        "  void ca() {\n"
        "    MutexLock c(mu_c_);\n"
        "    takes_a();\n"
        "  }\n"
        "  AnnotatedMutex mu_c_{LockRank::kInner};\n"
        "  One* one_;\n"
        "};\n");
  std::string output;
  EXPECT_EQ(run(&output, {"lock-cycle"}), 1);
  EXPECT_NE(output.find("lock-cycle"), std::string::npos) << output;
  EXPECT_NE(output.find("One::mu_a_"), std::string::npos) << output;
  EXPECT_NE(output.find("Two::mu_b_"), std::string::npos) << output;
  EXPECT_NE(output.find("Three::mu_c_"), std::string::npos) << output;
}

TEST_F(LockcheckFixture, BlockingUnderLockDetected) {
  write("src/lock_rank.h", rank_header());
  write("src/block.h",
        "#pragma once\n"
        "class ThreadPool {\n"
        " public:\n"
        "  void submit();\n"
        "};\n"
        "class Driver {\n"
        " public:\n"
        "  void bad() {\n"
        "    MutexLock lock(mu_);\n"
        "    pool_->submit();\n"
        "  }\n"
        "  void good() {\n"
        "    {\n"
        "      MutexLock lock(mu_);\n"
        "    }\n"
        "    pool_->submit();\n"
        "  }\n"
        " private:\n"
        "  AnnotatedMutex mu_{LockRank::kOuter};\n"
        "  ThreadPool* pool_;\n"
        "};\n");
  std::string output;
  EXPECT_EQ(run(&output, {"blocking-under-lock"}), 1);
  EXPECT_NE(output.find("blocking-under-lock"), std::string::npos) << output;
  EXPECT_NE(output.find("Driver::bad"), std::string::npos) << output;
  EXPECT_EQ(output.find("Driver::good"), std::string::npos) << output;
}

TEST_F(LockcheckFixture, TransitiveBlockingThroughCallGraph) {
  write("src/lock_rank.h", rank_header());
  write("src/chain.h",
        "#pragma once\n"
        "class BlockStore {\n"
        " public:\n"
        "  void get();\n"
        "};\n"
        "class Reader {\n"
        " public:\n"
        "  void fetch_one() { store_->get(); }\n"
        "  void bad() {\n"
        "    MutexLock lock(mu_);\n"
        "    fetch_one();\n"
        "  }\n"
        " private:\n"
        "  AnnotatedMutex mu_{LockRank::kOuter};\n"
        "  BlockStore* store_;\n"
        "};\n");
  std::string output;
  EXPECT_EQ(run(&output, {"blocking-under-lock"}), 1);
  EXPECT_NE(output.find("BlockStore::get"), std::string::npos) << output;
}

TEST_F(LockcheckFixture, RankOrderViolationDetected) {
  write("src/lock_rank.h", rank_header());
  write("src/inverted.h",
        "#pragma once\n"
        "class Engine {\n"
        " public:\n"
        "  void inverted() {\n"
        "    MutexLock inner(mu_inner_);\n"
        "    MutexLock outer(mu_outer_);\n"
        "  }\n"
        " private:\n"
        "  AnnotatedMutex mu_outer_{LockRank::kOuter};\n"
        "  AnnotatedMutex mu_inner_{LockRank::kInner};\n"
        "};\n");
  std::string output;
  EXPECT_EQ(run(&output, {"rank-order"}), 1);
  EXPECT_NE(output.find("rank-order"), std::string::npos) << output;
  EXPECT_NE(output.find("kInner"), std::string::npos) << output;
}

TEST_F(LockcheckFixture, UnrankedMutexDetected) {
  write("src/lock_rank.h", rank_header());
  write("src/unranked.h",
        "#pragma once\n"
        "class Engine {\n"
        "  AnnotatedMutex mu_;\n"
        "};\n");
  std::string output;
  EXPECT_EQ(run(&output, {"unranked-mutex"}), 1);
  EXPECT_NE(output.find("unranked-mutex"), std::string::npos) << output;
}

TEST_F(LockcheckFixture, CleanHierarchyPasses) {
  // A miniature of the real tree: ranked locks, rank-increasing nesting,
  // guard-wait in the pool, submit after the guard scope closes.
  write("src/lock_rank.h", rank_header());
  write("src/clean.h",
        "#pragma once\n"
        "class Pool {\n"
        " public:\n"
        "  void wait_idle() {\n"
        "    MutexLock lock(mu_);\n"
        "    while (pending_ != 0) lock.wait(idle_cv_);\n"
        "  }\n"
        "  void submit();\n"
        " private:\n"
        "  AnnotatedMutex mu_{LockRank::kInner};\n"
        "  int pending_ = 0;\n"
        "};\n"
        "class Engine {\n"
        " public:\n"
        "  void run() {\n"
        "    {\n"
        "      MutexLock outer(mu_outer_);\n"
        "      MutexLock inner(mu_middle_);\n"
        "      state_ = 1;\n"
        "    }\n"
        "    pool_->submit();\n"
        "    pool_->wait_idle();\n"
        "  }\n"
        " private:\n"
        "  AnnotatedMutex mu_outer_{LockRank::kOuter};\n"
        "  AnnotatedMutex mu_middle_{LockRank::kMiddle};\n"
        "  Pool* pool_;\n"
        "  int state_ = 0;\n"
        "};\n");
  std::string output;
  EXPECT_EQ(run(&output), 0) << output;
  EXPECT_TRUE(output.empty()) << output;
}

TEST_F(LockcheckFixture, SuppressionSilencesFinding) {
  write("src/lock_rank.h", rank_header());
  write("src/block.h",
        "#pragma once\n"
        "class ThreadPool {\n"
        " public:\n"
        "  void submit();\n"
        "};\n"
        "class Driver {\n"
        " public:\n"
        "  void bad() {\n"
        "    MutexLock lock(mu_);\n"
        "    // s3lockcheck: disable(blocking-under-lock)\n"
        "    pool_->submit();\n"
        "  }\n"
        " private:\n"
        "  AnnotatedMutex mu_{LockRank::kOuter};\n"
        "  ThreadPool* pool_;\n"
        "};\n");
  std::string output;
  EXPECT_EQ(run(&output, {"blocking-under-lock"}), 0) << output;
}

TEST_F(LockcheckFixture, OtherToolsSuppressionTagDoesNotSilence) {
  // Each analyzer honors only its own tag: an s3viewcheck comment naming
  // this rule is not an s3lockcheck suppression.
  write("src/lock_rank.h", rank_header());
  write("src/block.h",
        "#pragma once\n"
        "class ThreadPool {\n"
        " public:\n"
        "  void submit();\n"
        "};\n"
        "class Driver {\n"
        " public:\n"
        "  void bad() {\n"
        "    MutexLock lock(mu_);\n"
        "    // s3viewcheck: disable(blocking-under-lock)\n"
        "    pool_->submit();\n"
        "  }\n"
        " private:\n"
        "  AnnotatedMutex mu_{LockRank::kOuter};\n"
        "  ThreadPool* pool_;\n"
        "};\n");
  std::string output;
  EXPECT_EQ(run(&output, {"blocking-under-lock"}), 1) << output;
  EXPECT_NE(output.find("Driver::bad"), std::string::npos) << output;
}

TEST_F(LockcheckFixture, LockThroughTemplateWrappedParamResolves) {
  // `mu` names two locks in one file, so only q's parameter type can say
  // which one `q->mu` is; seen through unique_ptr it is Queue::mu.
  write("src/lock_rank.h", rank_header());
  write("src/param.h",
        "#pragma once\n"
        "class Queue {\n"
        " public:\n"
        "  AnnotatedMutex mu{LockRank::kInner};\n"
        "};\n"
        "class Other {\n"
        " public:\n"
        "  AnnotatedMutex mu{LockRank::kInner};\n"
        "};\n"
        "class User {\n"
        " public:\n"
        "  void take(std::unique_ptr<Queue>& q) {\n"
        "    MutexLock inner(q->mu);\n"
        "    MutexLock outer(mu_);\n"
        "  }\n"
        " private:\n"
        "  AnnotatedMutex mu_{LockRank::kOuter};\n"
        "};\n");
  std::string output;
  EXPECT_EQ(run(&output, {"rank-order"}), 1) << output;
  EXPECT_NE(output.find("User::mu_ (kOuter = 10) acquired while holding "
                        "Queue::mu (kInner = 30)"),
            std::string::npos)
      << output;
}

TEST_F(LockcheckFixture, MissingSrcDirIsUsageError) {
  fs::remove_all(root_ / "src");
  std::string output;
  EXPECT_EQ(run(&output), 2);
}

// ---------------------------------------------------------------------------
// The real tree must be clean (the same invariant CI gates on).

TEST(LockcheckTree, RealSourceTreeIsClean) {
  // Locate the repo root: walk up from the test binary's cwd until src/
  // and tools/ both exist. ctest runs from build/tests, so two levels up.
  fs::path root = fs::current_path();
  bool found = false;
  for (int i = 0; i < 5 && !root.empty(); ++i) {
    if (fs::exists(root / "src") && fs::exists(root / "tools")) {
      found = true;
      break;
    }
    root = root.parent_path();
  }
  if (!found) GTEST_SKIP() << "repo root not found from cwd";
  LockcheckOptions options;
  options.root = root.string();
  std::string output;
  EXPECT_EQ(run_lockcheck(options, &output), 0) << output;
}

}  // namespace
}  // namespace s3lockcheck
