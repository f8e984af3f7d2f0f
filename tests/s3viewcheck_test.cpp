// Tests for the s3viewcheck whole-project analyzer: model extraction on
// synthetic sources, end-to-end runs over temp-dir fixture trees with one
// seeded bug per rule (plus clean shapes that must stay silent), suppression
// handling, and a run over the real tree that must come back green — the
// same invariant CI gates on.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <string>

#include "s3lint/lexer.h"
#include "s3viewcheck/graph.h"
#include "s3viewcheck/model.h"
#include "s3viewcheck/s3viewcheck.h"

namespace s3viewcheck {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Model extraction

FileModel extract(const std::string& src) {
  return extract_model("src/test.h", s3lint::tokenize(src));
}

TEST(ViewcheckModel, RecordsParamsLocalsAndReturnType) {
  const FileModel fm = extract(
      "std::string_view first_key(const KVBatch& batch,\n"
      "                           std::vector<KVBatch>& runs) {\n"
      "  std::size_t i = 0;\n"
      "  std::string_view k = batch.key(i);\n"
      "  return k;\n"
      "}\n");
  ASSERT_EQ(fm.functions.size(), 1u);
  const FunctionModel& fn = fm.functions[0];
  EXPECT_EQ(fn.name, "first_key");
  EXPECT_EQ(fn.return_type, "string_view");
  ASSERT_EQ(fn.params.size(), 2u);
  EXPECT_EQ(fn.params[0].type, "KVBatch");
  EXPECT_EQ(fn.params[0].name, "batch");
  // vector<KVBatch> reads as KVBatch: element access is arena access.
  EXPECT_EQ(fn.params[1].type, "KVBatch");
  EXPECT_EQ(fn.params[1].name, "runs");
  bool saw_k = false;
  for (const LocalDecl& d : fn.locals) {
    if (d.name == "k") {
      saw_k = true;
      EXPECT_EQ(d.type, "string_view");
    }
  }
  EXPECT_TRUE(saw_k);
}

TEST(ViewcheckModel, BindsInitializerCallsToTheDeclaredLocal) {
  const FileModel fm = extract(
      "void f(KVBatch& b) {\n"
      "  auto k = b.key(0);\n"
      "  consume(k);\n"
      "}\n");
  ASSERT_EQ(fm.functions.size(), 1u);
  const FunctionModel& fn = fm.functions[0];
  bool bound = false;
  for (const CallSite& c : fn.calls) {
    if (c.callee == "key") {
      bound = true;
      ASSERT_EQ(c.chain.size(), 1u);
      EXPECT_EQ(c.chain[0], "b");
      EXPECT_EQ(c.bound_to, "k");
      EXPECT_EQ(c.bound_type, "auto");
    }
  }
  EXPECT_TRUE(bound);
  bool used = false;
  for (const Event& ev : fn.events) {
    if (ev.kind == EventKind::kUse && ev.view == "k") used = true;
  }
  EXPECT_TRUE(used);
}

TEST(ViewcheckModel, RangeForBatchReferenceIsABatchLocal) {
  const FileModel fm = extract(
      "void f(std::vector<KVBatch>& runs) {\n"
      "  for (KVBatch& run : runs) {\n"
      "    auto k = run.key(0);\n"
      "  }\n"
      "}\n");
  ASSERT_EQ(fm.functions.size(), 1u);
  bool saw_run = false;
  for (const LocalDecl& d : fm.functions[0].locals) {
    if (d.name == "run") {
      saw_run = true;
      EXPECT_EQ(d.type, "KVBatch");
    }
  }
  EXPECT_TRUE(saw_run);
}

TEST(ViewcheckModel, SubmittedLambdaIsMarked) {
  const FileModel fm = extract(
      "void f(ThreadPool& pool, KVBatch& b) {\n"
      "  auto k = b.key(0);\n"
      "  pool.submit([k] { consume(k); });\n"
      "  auto fn = [k] { consume(k); };\n"
      "}\n");
  ASSERT_EQ(fm.functions.size(), 1u);
  const FunctionModel& f = fm.functions[0];
  ASSERT_EQ(f.lambdas.size(), 2u);
  EXPECT_TRUE(f.lambdas[0].submitted);
  EXPECT_FALSE(f.lambdas[1].submitted);
}

TEST(ViewcheckModel, MemberTableSeesThroughTemplates) {
  const FileModel fm = extract(
      "class Shuffle {\n"
      "  std::vector<KVBatch> buckets_;\n"
      "  std::string_view held_;\n"
      "};\n");
  EXPECT_EQ(fm.members.at("Shuffle").at("buckets_"), "KVBatch");
  EXPECT_EQ(fm.members.at("Shuffle").at("held_"), "string_view");
}

TEST(ViewcheckModel, MovedArgumentsAreFlagged) {
  const FileModel fm = extract(
      "void f(Pool& pool, KVBatch batch) {\n"
      "  pool.release(0, std::move(batch));\n"
      "}\n");
  ASSERT_EQ(fm.functions.size(), 1u);
  bool saw = false;
  for (const CallSite& c : fm.functions[0].calls) {
    if (c.callee != "release") continue;
    saw = true;
    ASSERT_EQ(c.args.size(), 2u);
    EXPECT_EQ(c.args[1], "batch");
    EXPECT_TRUE(c.moved[1]);
  }
  EXPECT_TRUE(saw);
}

TEST(ViewcheckModel, ParamTypesSeeThroughTemplates) {
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

TEST(ViewcheckModel, AttributeMacrosAreNotClassNames) {
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

class ViewcheckFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fs::temp_directory_path() /
            ("s3viewcheck_test_" +
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
    ViewcheckOptions options;
    options.root = root_.string();
    options.rules = std::move(rules);
    return run_viewcheck(options, output);
  }

  fs::path root_;
};

TEST_F(ViewcheckFixture, DanglingViewAfterClearDetected) {
  write("src/bug.cpp",
        "void f(KVBatch& b) {\n"
        "  auto k = b.key(0);\n"
        "  b.clear();\n"
        "  consume(k);\n"
        "}\n");
  std::string output;
  EXPECT_EQ(run(&output), 1);
  EXPECT_NE(output.find("[dangling-view]"), std::string::npos) << output;
  EXPECT_NE(output.find("src/bug.cpp:4"), std::string::npos) << output;
  EXPECT_NE(output.find("clear()"), std::string::npos) << output;
}

TEST_F(ViewcheckFixture, DanglingViewThroughMoveAndPrefault) {
  write("src/bug.cpp",
        "void f(KVBatch& b, std::vector<KVBatch>& out) {\n"
        "  auto k = b.key(0);\n"
        "  out.push_back(std::move(b));\n"
        "  consume(k);\n"
        "}\n"
        "void g(KVBatch& b) {\n"
        "  auto k = b.value(0);\n"
        "  b.prefault(8, 64);\n"
        "  consume(k);\n"
        "}\n");
  std::string output;
  EXPECT_EQ(run(&output), 1);
  EXPECT_NE(output.find("std::move"), std::string::npos) << output;
  EXPECT_NE(output.find("prefault()"), std::string::npos) << output;
}

TEST_F(ViewcheckFixture, DanglingViewThroughCalleeSummary) {
  // reset_batch invalidates its parameter; the caller's view dies with it.
  write("src/bug.cpp",
        "void reset_batch(KVBatch& b) { b.clear(); }\n"
        "void f(KVBatch& b) {\n"
        "  auto k = b.key(0);\n"
        "  reset_batch(b);\n"
        "  consume(k);\n"
        "}\n");
  std::string output;
  EXPECT_EQ(run(&output), 1);
  EXPECT_NE(output.find("[dangling-view]"), std::string::npos) << output;
  EXPECT_NE(output.find("reset_batch"), std::string::npos) << output;
}

TEST_F(ViewcheckFixture, AppendAfterReadDetected) {
  // The canonical S3 hot-path hazard: hold the first key while the append
  // loop grows the arena past its capacity.
  write("src/bug.cpp",
        "void combine(KVBatch& b, const KVBatch& in) {\n"
        "  auto first = b.key(0);\n"
        "  for (std::size_t i = 0; i < in.size(); ++i) {\n"
        "    b.append(in.key(i), in.value(i));\n"
        "  }\n"
        "  consume(first);\n"
        "}\n");
  std::string output;
  EXPECT_EQ(run(&output), 1);
  EXPECT_NE(output.find("[append-after-read]"), std::string::npos) << output;
  EXPECT_NE(output.find("reallocate"), std::string::npos) << output;
}

TEST_F(ViewcheckFixture, ViewOutlivesArenaReturnAndStores) {
  write("src/ret.cpp",
        "std::string_view f() {\n"
        "  KVBatch local;\n"
        "  local.append(\"a\", \"b\");\n"
        "  return local.key(0);\n"
        "}\n");
  write("src/store.cpp",
        "class Holder {\n"
        "  std::string_view held_;\n"
        "  std::vector<std::string_view> views_;\n"
        "  void grab(KVBatch& b) {\n"
        "    held_ = b.key(0);\n"
        "    auto v = b.value(0);\n"
        "    views_.push_back(v);\n"
        "  }\n"
        "};\n");
  std::string output;
  EXPECT_EQ(run(&output), 1);
  EXPECT_NE(output.find("src/ret.cpp:4"), std::string::npos) << output;
  EXPECT_NE(output.find("held_"), std::string::npos) << output;
  EXPECT_NE(output.find("views_"), std::string::npos) << output;
}

TEST_F(ViewcheckFixture, ReturnedViewOfLocalThroughNamedViewDetected) {
  write("src/bug.cpp",
        "std::string_view f() {\n"
        "  KVBatch local;\n"
        "  auto k = local.key(0);\n"
        "  return k;\n"
        "}\n");
  std::string output;
  EXPECT_EQ(run(&output), 1);
  EXPECT_NE(output.find("[view-outlives-arena]"), std::string::npos) << output;
}

TEST_F(ViewcheckFixture, CrossThreadViewDetected) {
  write("src/bug.cpp",
        "void f(ThreadPool& pool, KVBatch& b) {\n"
        "  auto k = b.key(0);\n"
        "  pool.submit([k] { consume(k); });\n"
        "}\n");
  std::string output;
  EXPECT_EQ(run(&output), 1);
  EXPECT_NE(output.find("[cross-thread-view]"), std::string::npos) << output;
}

TEST_F(ViewcheckFixture, CleanShapesStaySilent) {
  // Refetch after append, std::string copies, in-place consumption, and a
  // lambda that derives its own views from a captured batch reference.
  write("src/clean.cpp",
        "void f(KVBatch& b) {\n"
        "  auto k = b.key(0);\n"
        "  consume(k);\n"
        "  b.append(\"x\", \"y\");\n"
        "  auto k2 = b.key(1);\n"
        "  consume(k2);\n"
        "}\n"
        "std::string g() {\n"
        "  KVBatch local;\n"
        "  local.append(\"a\", \"b\");\n"
        "  return std::string(local.key(0));\n"
        "}\n"
        "void h(ThreadPool& pool, KVBatch& b) {\n"
        "  pool.submit([&b] { consume(b.key(0)); });\n"
        "}\n"
        "void i(KVBatch& b) {\n"
        "  const auto len = b.key(0).size();\n"
        "  b.clear();\n"
        "  use(len);\n"
        "}\n");
  std::string output;
  EXPECT_EQ(run(&output), 0) << output;
}

TEST_F(ViewcheckFixture, ReassignedViewIsRetracked) {
  // The refresh idiom: rebinding the same name after the append is clean.
  write("src/clean.cpp",
        "void f(KVBatch& b) {\n"
        "  std::string_view k = b.key(0);\n"
        "  b.append(\"x\", \"y\");\n"
        "  k = b.key(0);\n"
        "  consume(k);\n"
        "}\n");
  std::string output;
  EXPECT_EQ(run(&output), 0) << output;
}

TEST_F(ViewcheckFixture, RulesFilterSelectsSubset) {
  write("src/bug.cpp",
        "void f(KVBatch& b) {\n"
        "  auto k = b.key(0);\n"
        "  b.clear();\n"
        "  consume(k);\n"
        "}\n"
        "std::string_view g() {\n"
        "  KVBatch local;\n"
        "  return local.key(0);\n"
        "}\n");
  std::string output;
  EXPECT_EQ(run(&output, {"view-outlives-arena"}), 1);
  EXPECT_EQ(output.find("[dangling-view]"), std::string::npos) << output;
  EXPECT_NE(output.find("[view-outlives-arena]"), std::string::npos) << output;
}

TEST_F(ViewcheckFixture, SuppressionsSilenceFindings) {
  write("src/bug.cpp",
        "// s3viewcheck: disable-file(dangling-view)\n"
        "void f(KVBatch& b) {\n"
        "  auto k = b.key(0);\n"
        "  b.clear();\n"
        "  consume(k);\n"
        "}\n");
  std::string output;
  EXPECT_EQ(run(&output), 0) << output;
}

TEST_F(ViewcheckFixture, OtherToolsSuppressionTagDoesNotSilence) {
  // Each analyzer honors only its own tag: an s3lockcheck comment naming
  // this rule is not an s3viewcheck suppression.
  write("src/bug.cpp",
        "void f(KVBatch& b) {\n"
        "  auto k = b.key(0);\n"
        "  b.clear();\n"
        "  // s3lockcheck: disable(dangling-view)\n"
        "  consume(k);\n"
        "}\n");
  std::string output;
  EXPECT_EQ(run(&output), 1) << output;
  EXPECT_NE(output.find("src/bug.cpp:5: error: [dangling-view]"),
            std::string::npos)
      << output;
}

TEST_F(ViewcheckFixture, GraphDumpListsModel) {
  write("src/a.cpp",
        "void f(KVBatch& b) {\n"
        "  auto k = b.key(0);\n"
        "}\n");
  ViewcheckOptions options;
  options.root = root_.string();
  options.dump_graph = true;
  std::string output;
  EXPECT_EQ(run_viewcheck(options, &output), 0);
  EXPECT_NE(output.find("param b : KVBatch"), std::string::npos) << output;
  EXPECT_NE(output.find("call b.key"), std::string::npos) << output;
}

TEST_F(ViewcheckFixture, MissingSrcDirIsUsageError) {
  fs::remove_all(root_ / "src");
  std::string output;
  EXPECT_EQ(run(&output), 2);
}

// ---------------------------------------------------------------------------
// The real tree must be clean (the same invariant CI gates on).

TEST(ViewcheckTree, RealSourceTreeIsClean) {
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
  ViewcheckOptions options;
  options.root = root.string();
  std::string output;
  EXPECT_EQ(run_viewcheck(options, &output), 0) << output;
}

}  // namespace
}  // namespace s3viewcheck
