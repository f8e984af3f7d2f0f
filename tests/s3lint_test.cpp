// Unit tests for the s3lint static-analysis pass: one positive (violating)
// and one negative (clean) case per rule, plus lexer and suppression
// behavior. Sources are synthetic strings run through the same lint_file
// entry point the CLI driver uses.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "s3lint/decl_index.h"
#include "s3lint/lexer.h"
#include "s3lint/rules.h"

namespace s3lint {
namespace {

std::vector<Violation> lint(const std::string& path, const std::string& src,
                            const DeclIndex& index) {
  return lint_file(path, tokenize(src), index, all_rules());
}

std::vector<Violation> lint(const std::string& path, const std::string& src) {
  DeclIndex empty;
  return lint(path, src, empty);
}

bool has_rule(const std::vector<Violation>& vs, const std::string& rule) {
  return std::any_of(vs.begin(), vs.end(),
                     [&](const Violation& v) { return v.rule == rule; });
}

// ---------------------------------------------------------------------------
// Lexer

TEST(S3LintLexer, StripsCommentsAndStrings) {
  const TokenizedFile f = tokenize(
      "int x = 1; // cursor % size\n"
      "const char* s = \"std::cout << cursor % n\";\n"
      "/* std::mutex m; */\n");
  for (const Token& t : f.tokens) {
    EXPECT_NE(t.text, "cursor") << "comment/string content leaked";
    EXPECT_NE(t.text, "cout");
    EXPECT_NE(t.text, "mutex");
  }
  ASSERT_EQ(f.comments.size(), 2u);
  EXPECT_FALSE(f.comments[0].own_line);  // trailing comment
  EXPECT_TRUE(f.comments[1].own_line);
}

TEST(S3LintLexer, FoldsPreprocessorDirectives) {
  const TokenizedFile f = tokenize("#define WRAP(x) \\\n  ((x) % size_)\nint y;\n");
  ASSERT_FALSE(f.tokens.empty());
  EXPECT_EQ(f.tokens[0].kind, TokKind::kDirective);
  // The % inside the macro body must not surface as a punct token.
  for (std::size_t i = 1; i < f.tokens.size(); ++i) {
    EXPECT_NE(f.tokens[i].text, "%");
  }
}

TEST(S3LintLexer, RawStringsDoNotLeak) {
  const TokenizedFile f = tokenize("auto s = R\"(cursor % n; std::mutex m;)\";");
  for (const Token& t : f.tokens) {
    EXPECT_NE(t.text, "cursor");
    EXPECT_NE(t.text, "mutex");
  }
}

TEST(S3LintLexer, TracksLineNumbers) {
  const TokenizedFile f = tokenize("int a;\nint b;\nint c;\n");
  ASSERT_GE(f.tokens.size(), 9u);
  EXPECT_EQ(f.tokens[0].line, 1);
  EXPECT_EQ(f.tokens[3].line, 2);
  EXPECT_EQ(f.tokens[6].line, 3);
}

// ---------------------------------------------------------------------------
// naked-mutex

TEST(S3LintRules, NakedMutexMemberFlagged) {
  const auto vs = lint("src/foo/widget.h",
                       "#pragma once\n"
                       "#include <mutex>\n"
                       "class Widget {\n"
                       "  std::mutex mu_;\n"
                       "};\n");
  ASSERT_TRUE(has_rule(vs, "naked-mutex"));
  EXPECT_EQ(vs[0].line, 4);
}

TEST(S3LintRules, AnnotatedMutexMemberClean) {
  const auto vs = lint("src/foo/widget.h",
                       "#pragma once\n"
                       "class Widget {\n"
                       "  mutable AnnotatedMutex mu_;\n"
                       "};\n");
  EXPECT_FALSE(has_rule(vs, "naked-mutex"));
}

TEST(S3LintRules, MutexReferenceParameterClean) {
  // A std::mutex& in a method signature is not a stored member.
  const auto vs = lint("src/foo/widget.h",
                       "#pragma once\n"
                       "class Widget {\n"
                       " public:\n"
                       "  void with_lock(std::mutex& m);\n"
                       "};\n");
  EXPECT_FALSE(has_rule(vs, "naked-mutex"));
}

TEST(S3LintRules, ThreadAnnotationsHeaderExempt) {
  const auto vs = lint("src/common/thread_annotations.h",
                       "#pragma once\n"
                       "class AnnotatedMutex {\n"
                       "  std::mutex mu_;\n"
                       "};\n");
  EXPECT_FALSE(has_rule(vs, "naked-mutex"));
}

// ---------------------------------------------------------------------------
// status-discard / status-nodiscard

DeclIndex make_status_index() {
  DeclIndex index;
  index.index_file("src/foo/api.h",
                   tokenize("#pragma once\n"
                            "[[nodiscard]] Status do_work(int n);\n"
                            "Status flush();\n"  // missing [[nodiscard]]
                            "[[nodiscard]] StatusOr<int> parse();\n"
                            "void log_it(int n);\n"));
  return index;
}

TEST(S3LintRules, BareStatusCallFlagged) {
  const auto index = make_status_index();
  const auto vs = lint("src/foo/use.cpp",
                       "void f() {\n"
                       "  do_work(3);\n"
                       "}\n",
                       index);
  ASSERT_TRUE(has_rule(vs, "status-discard"));
  EXPECT_EQ(vs[0].line, 2);
}

TEST(S3LintRules, CheckedStatusCallClean) {
  const auto index = make_status_index();
  const auto vs = lint("src/foo/use.cpp",
                       "void f() {\n"
                       "  Status s = do_work(3);\n"
                       "  if (!do_work(4).is_ok()) return;\n"
                       "  log_it(5);\n"
                       "}\n",
                       index);
  EXPECT_FALSE(has_rule(vs, "status-discard"));
}

TEST(S3LintRules, AmbiguousNameNotFlagged) {
  DeclIndex index;
  index.index_file("src/a.h", tokenize("Status run();\n"));
  index.index_file("src/b.h", tokenize("double run();\n"));
  const auto vs = lint("src/foo/use.cpp", "void f() {\n  run();\n}\n", index);
  EXPECT_FALSE(has_rule(vs, "status-discard"));
}

TEST(S3LintRules, LocalHelperShadowingIndexedNameNotFlagged) {
  const auto index = make_status_index();
  // This file defines its own void flush(); calling it is not a discard.
  const auto vs = lint("src/foo/use.cpp",
                       "void flush();\n"
                       "void f() {\n"
                       "  flush();\n"
                       "}\n",
                       index);
  EXPECT_FALSE(has_rule(vs, "status-discard"));
}

TEST(S3LintRules, StatusDeclWithoutNodiscardFlagged) {
  const auto index = make_status_index();
  const auto vs = lint("src/foo/api.h",
                       "#pragma once\n"
                       "[[nodiscard]] Status do_work(int n);\n"
                       "Status flush();\n"
                       "[[nodiscard]] StatusOr<int> parse();\n"
                       "void log_it(int n);\n",
                       index);
  ASSERT_TRUE(has_rule(vs, "status-nodiscard"));
  int flagged = 0;
  for (const Violation& v : vs) {
    if (v.rule == "status-nodiscard") {
      ++flagged;
      EXPECT_EQ(v.line, 3);  // only flush() lacks the attribute
    }
  }
  EXPECT_EQ(flagged, 1);
}

TEST(S3LintRules, GuardedStatusMemberIsNotAFunctionDecl) {
  // `Status s S3_GUARDED_BY(mu);` is a member declaration with an annotation
  // macro, not a function named S3_GUARDED_BY returning Status.
  DeclIndex index;
  index.index_file("src/foo/state.h",
                   tokenize("#pragma once\n"
                            "struct WaveCtx {\n"
                            "  Status poison_status S3_GUARDED_BY(mu);\n"
                            "};\n"));
  const auto vs = lint("src/foo/state.h",
                       "#pragma once\n"
                       "struct WaveCtx {\n"
                       "  Status poison_status S3_GUARDED_BY(mu);\n"
                       "};\n",
                       index);
  EXPECT_FALSE(has_rule(vs, "status-nodiscard"));
}

// ---------------------------------------------------------------------------
// segment-modulo

TEST(S3LintRules, RawCursorModuloFlagged) {
  const auto vs = lint("src/sched/other.cpp",
                       "void f() {\n"
                       "  cursor_ = (cursor_ + wave) % file_blocks_;\n"
                       "}\n");
  ASSERT_TRUE(has_rule(vs, "segment-modulo"));
  EXPECT_EQ(vs[0].line, 2);
}

TEST(S3LintRules, StartBlockModuloFlagged) {
  const auto vs = lint("tests/foo_test.cpp",
                       "void f() {\n"
                       "  auto x = (b.start_block + i) % n;\n"
                       "}\n");
  EXPECT_TRUE(has_rule(vs, "segment-modulo"));
}

TEST(S3LintRules, UnrelatedModuloClean) {
  const auto vs = lint("src/foo/hash.cpp",
                       "void f() {\n"
                       "  bucket = hash % num_buckets;\n"
                       "  if (i % 2 == 0) return;\n"
                       "}\n");
  EXPECT_FALSE(has_rule(vs, "segment-modulo"));
}

TEST(S3LintRules, SegmentPlannerExemptFromModuloRule) {
  const auto vs = lint("src/sched/segment_planner.h",
                       "#pragma once\n"
                       "inline int f(int cursor, int n) { return cursor % n; }\n");
  EXPECT_FALSE(has_rule(vs, "segment-modulo"));
}

// ---------------------------------------------------------------------------
// view-retention

TEST(S3LintRules, StringViewMemberInBatchConsumerFlagged) {
  const auto vs = lint("src/engine/op.h",
                       "#pragma once\n"
                       "class Op {\n"
                       " public:\n"
                       "  void consume(const KVBatch& batch);\n"
                       " private:\n"
                       "  std::string_view last_key_;\n"
                       "};\n");
  ASSERT_TRUE(has_rule(vs, "view-retention"));
  EXPECT_EQ(vs[0].line, 6);
}

TEST(S3LintRules, StringViewContainerMemberFlagged) {
  const auto vs = lint("src/engine/op.h",
                       "#pragma once\n"
                       "class Op {\n"
                       "  void consume(const KVBatch& batch);\n"
                       "  std::vector<std::string_view> keys_;\n"
                       "};\n");
  EXPECT_TRUE(has_rule(vs, "view-retention"));
}

TEST(S3LintRules, StringMemberInBatchConsumerClean) {
  const auto vs = lint("src/engine/op.h",
                       "#pragma once\n"
                       "class Op {\n"
                       "  void consume(const KVBatch& batch);\n"
                       "  std::string last_key_;\n"
                       "};\n");
  EXPECT_FALSE(has_rule(vs, "view-retention"));
}

TEST(S3LintRules, ViewcheckSuppressionTagSilencesViewRetention) {
  // The lexical rule is the fast path of s3viewcheck's view-outlives-arena
  // model; a site vetted under the deeper analyzer's tag must not be
  // re-flagged here.
  const auto vs = lint("src/engine/op.h",
                       "#pragma once\n"
                       "class Op {\n"
                       "  void consume(const KVBatch& batch);\n"
                       "  // s3viewcheck: disable(view-outlives-arena)\n"
                       "  std::string_view last_key_;\n"
                       "};\n");
  EXPECT_FALSE(has_rule(vs, "view-retention"));
}

TEST(S3LintRules, ViewRetentionMessagePointsAtViewcheck) {
  const auto vs = lint("src/engine/op.h",
                       "#pragma once\n"
                       "class Op {\n"
                       "  void consume(const KVBatch& batch);\n"
                       "  std::string_view last_key_;\n"
                       "};\n");
  ASSERT_TRUE(has_rule(vs, "view-retention"));
  bool forwarded = false;
  for (const auto& v : vs) {
    if (v.rule == "view-retention" &&
        v.message.find("s3viewcheck") != std::string::npos) {
      forwarded = true;
    }
  }
  EXPECT_TRUE(forwarded);
}

TEST(S3LintRules, StringViewParameterOrNonConsumerClean) {
  // A string_view method parameter is fine, and so is a member in a class
  // that never touches KVBatch.
  const auto vs = lint("src/engine/op.h",
                       "#pragma once\n"
                       "class Consumer {\n"
                       "  void consume(const KVBatch& batch);\n"
                       "  std::string_view name() const;\n"
                       "};\n"
                       "class Unrelated {\n"
                       "  std::string_view tag_;\n"
                       "};\n");
  EXPECT_FALSE(has_rule(vs, "view-retention"));
}

// ---------------------------------------------------------------------------
// hygiene rules

TEST(S3LintRules, ThreadDetachFlagged) {
  const auto vs = lint("src/foo/runner.cpp",
                       "void f() {\n"
                       "  std::thread t(work);\n"
                       "  t.detach();\n"
                       "}\n");
  ASSERT_TRUE(has_rule(vs, "thread-detach"));
  for (const Violation& v : vs) {
    if (v.rule == "thread-detach") {
      EXPECT_EQ(v.line, 3);
    }
  }
  // The same fixture also constructs a raw std::thread in src/ — the two
  // rules fire independently.
  EXPECT_TRUE(has_rule(vs, "raw-thread"));
}

TEST(S3LintRules, JoinedThreadClean) {
  const auto vs = lint("src/foo/runner.cpp",
                       "void f() {\n"
                       "  std::thread t(work);\n"
                       "  t.join();\n"
                       "}\n");
  EXPECT_FALSE(has_rule(vs, "thread-detach"));
}

TEST(S3LintRules, RawThreadInSrcFlagged) {
  const auto vs = lint("src/engine/runner.cpp",
                       "void f() {\n"
                       "  std::thread worker([] {});\n"
                       "  worker.join();\n"
                       "}\n");
  ASSERT_TRUE(has_rule(vs, "raw-thread"));
  for (const Violation& v : vs) {
    if (v.rule == "raw-thread") {
      EXPECT_EQ(v.line, 2);
    }
  }
}

TEST(S3LintRules, PthreadCreateInSrcFlagged) {
  const auto vs = lint("src/engine/runner.cpp",
                       "void f() {\n"
                       "  pthread_create(&tid, nullptr, body, nullptr);\n"
                       "}\n");
  EXPECT_TRUE(has_rule(vs, "raw-thread"));
}

TEST(S3LintRules, RawThreadInCommonClean) {
  // src/common/ hosts the pool implementations themselves — the one
  // sanctioned home for raw threads.
  const auto vs = lint("src/common/pinned_thread_pool.cpp",
                       "void f() {\n"
                       "  std::thread worker([] {});\n"
                       "  worker.join();\n"
                       "}\n");
  EXPECT_FALSE(has_rule(vs, "raw-thread"));
}

TEST(S3LintRules, RawThreadInOtherCommonFileFlagged) {
  // Only the pool's own files are exempt: a second pool (or any other raw
  // thread) elsewhere in src/common/ is flagged.
  const auto vs = lint("src/common/logging.cpp",
                       "void f() {\n"
                       "  std::thread worker([] {});\n"
                       "  worker.join();\n"
                       "}\n");
  EXPECT_TRUE(has_rule(vs, "raw-thread"));
}

TEST(S3LintRules, RawThreadOutsideSrcClean) {
  const auto vs = lint("tests/pool_test.cpp",
                       "void f() {\n"
                       "  std::thread worker([] {});\n"
                       "  worker.join();\n"
                       "}\n");
  EXPECT_FALSE(has_rule(vs, "raw-thread"));
}

TEST(S3LintRules, ThisThreadNotFlaggedAsRawThread) {
  const auto vs = lint("src/engine/runner.cpp",
                       "void f() {\n"
                       "  std::this_thread::yield();\n"
                       "}\n");
  EXPECT_FALSE(has_rule(vs, "raw-thread"));
}

TEST(S3LintRules, CoutInSrcFlagged) {
  const auto vs = lint("src/foo/debug.cpp",
                       "void f() {\n"
                       "  std::cout << \"x\";\n"
                       "}\n");
  EXPECT_TRUE(has_rule(vs, "stray-cout"));
}

TEST(S3LintRules, CoutInToolsClean) {
  const auto vs = lint("tools/s3sim.cpp",
                       "void f() {\n"
                       "  std::cout << \"x\";\n"
                       "}\n");
  EXPECT_FALSE(has_rule(vs, "stray-cout"));
}

TEST(S3LintRules, SleepInSrcFlagged) {
  const auto vs = lint("src/foo/poll.cpp",
                       "void f() {\n"
                       "  std::this_thread::sleep_for(std::chrono::seconds(1));\n"
                       "}\n");
  EXPECT_TRUE(has_rule(vs, "sleep-in-src"));
}

TEST(S3LintRules, SleepInTestsClean) {
  const auto vs = lint("tests/foo_test.cpp",
                       "void f() {\n"
                       "  std::this_thread::sleep_for(std::chrono::seconds(1));\n"
                       "}\n");
  EXPECT_FALSE(has_rule(vs, "sleep-in-src"));
}

TEST(S3LintRules, RawClockInSrcFlagged) {
  const auto vs = lint("src/core/driver.cpp",
                       "void f() {\n"
                       "  const auto t0 = std::chrono::steady_clock::now();\n"
                       "}\n");
  EXPECT_TRUE(has_rule(vs, "raw-clock"));
}

TEST(S3LintRules, SystemClockInSrcFlagged) {
  const auto vs = lint("src/engine/runner.cpp",
                       "void f() {\n"
                       "  auto t = std::chrono::system_clock::now();\n"
                       "}\n");
  EXPECT_TRUE(has_rule(vs, "raw-clock"));
}

TEST(S3LintRules, RawClockInObsClean) {
  const auto vs = lint("src/obs/clock.h",
                       "#pragma once\n"
                       "inline auto now() {\n"
                       "  return std::chrono::steady_clock::now();\n"
                       "}\n");
  EXPECT_FALSE(has_rule(vs, "raw-clock"));
}

TEST(S3LintRules, RawClockInCommonClean) {
  const auto vs = lint("src/common/logging.cpp",
                       "void f() {\n"
                       "  auto t = std::chrono::system_clock::now();\n"
                       "}\n");
  EXPECT_FALSE(has_rule(vs, "raw-clock"));
}

TEST(S3LintRules, RawClockOutsideSrcClean) {
  const auto vs = lint("bench/harness.cpp",
                       "void f() {\n"
                       "  auto t = std::chrono::steady_clock::now();\n"
                       "}\n");
  EXPECT_FALSE(has_rule(vs, "raw-clock"));
}

TEST(S3LintRules, MissingPragmaOnceFlagged) {
  const auto vs = lint("src/foo/bare.h", "int f();\n");
  EXPECT_TRUE(has_rule(vs, "pragma-once"));
}

TEST(S3LintRules, PragmaOncePresentClean) {
  const auto vs = lint("src/foo/bare.h", "#pragma once\nint f();\n");
  EXPECT_FALSE(has_rule(vs, "pragma-once"));
  const auto spaced = lint("src/foo/bare.h", "#  pragma   once\nint f();\n");
  EXPECT_FALSE(has_rule(spaced, "pragma-once"));
}

TEST(S3LintRules, PragmaOnceNotRequiredForCpp) {
  const auto vs = lint("src/foo/bare.cpp", "int f() { return 0; }\n");
  EXPECT_FALSE(has_rule(vs, "pragma-once"));
}

// ---------------------------------------------------------------------------
// suppressions

TEST(S3LintSuppressions, TrailingDisableSuppressesLine) {
  const auto vs = lint("src/sched/other.cpp",
                       "void f() {\n"
                       "  cursor_ = cursor_ % n;  // s3lint: disable(segment-modulo)\n"
                       "}\n");
  EXPECT_FALSE(has_rule(vs, "segment-modulo"));
}

TEST(S3LintSuppressions, PrecedingLineDisableSuppressesNext) {
  const auto vs = lint("src/sched/other.cpp",
                       "void f() {\n"
                       "  // s3lint: disable(segment-modulo)\n"
                       "  cursor_ = cursor_ % n;\n"
                       "}\n");
  EXPECT_FALSE(has_rule(vs, "segment-modulo"));
}

// ---------------------------------------------------------------------------
// status-dataloss

TEST(S3LintRules, AnonymousDataLossFlagged) {
  const auto vs = lint("src/dfs/thing.cpp",
                       "Status read() {\n"
                       "  return Status::data_loss(\"payload corrupted\");\n"
                       "}\n");
  ASSERT_TRUE(has_rule(vs, "status-dataloss"));
}

TEST(S3LintRules, DataLossNamingBlockInLiteralClean) {
  const auto vs = lint(
      "src/dfs/thing.cpp",
      "Status read() {\n"
      "  return Status::data_loss(\"block 3: all replicas unusable\");\n"
      "}\n");
  EXPECT_FALSE(has_rule(vs, "status-dataloss"));
}

TEST(S3LintRules, DataLossStreamedBlockIdClean) {
  // The message is assembled out-of-line; the block mention streamed into it
  // just above the call satisfies the rule.
  const auto vs = lint("src/dfs/thing.cpp",
                       "Status read(BlockId block) {\n"
                       "  std::ostringstream os;\n"
                       "  os << \"block \" << block << \": gone\";\n"
                       "  return Status::data_loss(os.str());\n"
                       "}\n");
  EXPECT_FALSE(has_rule(vs, "status-dataloss"));
}

TEST(S3LintRules, DataLossFactoryDeclarationExempt) {
  const auto vs = lint("src/common/status.h",
                       "#pragma once\n"
                       "class Status {\n"
                       "  [[nodiscard]] static Status data_loss(std::string m);\n"
                       "};\n");
  EXPECT_FALSE(has_rule(vs, "status-dataloss"));
}

// ---------------------------------------------------------------------------
// wait-under-lock

TEST(S3LintWaitUnderLock, RawCvWaitInsideGuardScope) {
  const auto vs = lint("src/engine/worker.cpp",
                       "void f() {\n"
                       "  MutexLock lock(mu_);\n"
                       "  cv_.wait(inner);\n"
                       "}\n");
  EXPECT_TRUE(has_rule(vs, "wait-under-lock"));
}

TEST(S3LintWaitUnderLock, GuardWaitIsSanctioned) {
  // lock.wait(cv) releases the guard's lock while parked — the pattern the
  // rule steers people toward must not be flagged.
  const auto vs = lint("src/common/pool.cpp",
                       "void f() {\n"
                       "  MutexLock lock(mu_);\n"
                       "  while (pending_ != 0) lock.wait(idle_cv_);\n"
                       "}\n");
  EXPECT_FALSE(has_rule(vs, "wait-under-lock"));
}

TEST(S3LintWaitUnderLock, PoolSubmitInsideGuardScope) {
  const auto vs = lint("src/engine/driver.cpp",
                       "void f() {\n"
                       "  MutexLock lock(mu_);\n"
                       "  pool_->submit(task);\n"
                       "}\n");
  EXPECT_TRUE(has_rule(vs, "wait-under-lock"));
}

TEST(S3LintWaitUnderLock, SubmitAfterGuardScopeCloses) {
  const auto vs = lint("src/engine/driver.cpp",
                       "void f() {\n"
                       "  {\n"
                       "    MutexLock lock(mu_);\n"
                       "    state_ = 1;\n"
                       "  }\n"
                       "  pool_->submit(task);\n"
                       "}\n");
  EXPECT_FALSE(has_rule(vs, "wait-under-lock"));
}

TEST(S3LintWaitUnderLock, SleepUnderReaderLock) {
  const auto vs = lint("src/dfs/store.cpp",
                       "void f() {\n"
                       "  ReaderMutexLock lock(mu_);\n"
                       "  std::this_thread::sleep_for(d);\n"
                       "}\n");
  EXPECT_TRUE(has_rule(vs, "wait-under-lock"));
}

TEST(S3LintWaitUnderLock, OnlyFlagsSrcTree) {
  const auto vs = lint("tests/pool_test.cpp",
                       "void f() {\n"
                       "  MutexLock lock(mu_);\n"
                       "  pool_->submit(task);\n"
                       "}\n");
  EXPECT_FALSE(has_rule(vs, "wait-under-lock"));
}

TEST(S3LintWaitUnderLock, SuppressionSilences) {
  const auto vs = lint("src/engine/driver.cpp",
                       "void f() {\n"
                       "  MutexLock lock(mu_);\n"
                       "  // s3lint: disable(wait-under-lock)\n"
                       "  pool_->submit(task);\n"
                       "}\n");
  EXPECT_FALSE(has_rule(vs, "wait-under-lock"));
}

// ---------------------------------------------------------------------------
// raw-abort

TEST(S3LintRawAbort, AbortInSrcFlagged) {
  const auto vs = lint("src/engine/runner.cpp",
                       "void f() {\n"
                       "  std::abort();\n"
                       "}\n");
  ASSERT_TRUE(has_rule(vs, "raw-abort"));
  for (const Violation& v : vs) {
    if (v.rule == "raw-abort") {
      EXPECT_EQ(v.line, 2);
    }
  }
}

TEST(S3LintRawAbort, BareAbortAndExitFlagged) {
  const auto vs = lint("src/sched/queue.cpp",
                       "void f() {\n"
                       "  if (bad) abort();\n"
                       "  if (worse) exit(1);\n"
                       "  if (worst) _Exit(2);\n"
                       "}\n");
  int hits = 0;
  for (const Violation& v : vs) {
    if (v.rule == "raw-abort") ++hits;
  }
  EXPECT_EQ(hits, 3);
}

TEST(S3LintRawAbort, CommonIsExempt) {
  // common/ implements fatal_abort itself; the real abort lives there.
  const auto vs = lint("src/common/contracts.cpp",
                       "void fatal_abort(const char* m) {\n"
                       "  std::abort();\n"
                       "}\n");
  EXPECT_FALSE(has_rule(vs, "raw-abort"));
}

TEST(S3LintRawAbort, OutsideSrcClean) {
  const auto vs = lint("tools/s3sim.cpp",
                       "void f() {\n"
                       "  exit(2);\n"
                       "}\n");
  EXPECT_FALSE(has_rule(vs, "raw-abort"));
}

TEST(S3LintRawAbort, MemberAndForeignNamespaceClean) {
  // guard.abort() / txn->exit() / bio::abort() are different functions; only
  // the process-killing C spellings bypass the crash-dump hook.
  const auto vs = lint("src/engine/runner.cpp",
                       "void f() {\n"
                       "  guard.abort();\n"
                       "  txn->exit();\n"
                       "  bio::abort(ctx);\n"
                       "}\n");
  EXPECT_FALSE(has_rule(vs, "raw-abort"));
}

TEST(S3LintRawAbort, AbortIdentifierWithoutCallClean) {
  const auto vs = lint("src/engine/runner.cpp",
                       "void f() {\n"
                       "  const bool abort = true;\n"
                       "  if (abort) stop();\n"
                       "}\n");
  EXPECT_FALSE(has_rule(vs, "raw-abort"));
}

// ---------------------------------------------------------------------------
// Suppressions

TEST(S3LintSuppressions, DisableFileSuppressesWholeFile) {
  const auto vs = lint("src/sched/other.cpp",
                       "// s3lint: disable-file(segment-modulo)\n"
                       "void f() {\n"
                       "  cursor_ = cursor_ % n;\n"
                       "  wave = wave % k;\n"
                       "}\n");
  EXPECT_FALSE(has_rule(vs, "segment-modulo"));
}

TEST(S3LintSuppressions, DisableAllWildcard) {
  const auto vs = lint("src/foo/dbg.cpp",
                       "void f() {\n"
                       "  std::cout << 1;  // s3lint: disable(all)\n"
                       "}\n");
  EXPECT_FALSE(has_rule(vs, "stray-cout"));
}

TEST(S3LintSuppressions, OtherRuleStillReported) {
  // A suppression for one rule must not hide a different rule on that line.
  const auto vs = lint("src/sched/other.cpp",
                       "void f() {\n"
                       "  cursor_ = cursor_ % n;  // s3lint: disable(stray-cout)\n"
                       "}\n");
  EXPECT_TRUE(has_rule(vs, "segment-modulo"));
}

TEST(S3LintSuppressions, UnsuppressedLineStillReported) {
  const auto vs = lint("src/sched/other.cpp",
                       "void f() {\n"
                       "  // s3lint: disable(segment-modulo)\n"
                       "  cursor_ = cursor_ % n;\n"
                       "  wave = wave % k;\n"  // two lines below: not covered
                       "}\n");
  EXPECT_TRUE(has_rule(vs, "segment-modulo"));
}

// ---------------------------------------------------------------------------
// bounded-queue

TEST(S3LintBoundedQueue, FlagsStdQueueContainersInService) {
  const auto vs = lint("src/service/pipeline.cpp",
                       "struct S {\n"
                       "  std::deque<int> backlog;\n"
                       "  std::queue<int> fifo;\n"
                       "};\n");
  ASSERT_TRUE(has_rule(vs, "bounded-queue"));
}

TEST(S3LintBoundedQueue, FlagsDefaultConstructedBlockingQueue) {
  const auto vs = lint("src/service/pipeline.h",
                       "class P {\n"
                       "  BlockingQueue<Submission> inbox_;\n"
                       "};\n");
  EXPECT_TRUE(has_rule(vs, "bounded-queue"));
}

TEST(S3LintBoundedQueue, CapacityConstructedBlockingQueueIsClean) {
  const auto vs = lint("src/service/pipeline.h",
                       "class P {\n"
                       "  BlockingQueue<Submission> inbox_{64};\n"
                       "  BoundedDeque<Submission> lane_;\n"
                       "};\n"
                       "void f(BlockingQueue<int>& q) { q.push(1); }\n");
  EXPECT_FALSE(has_rule(vs, "bounded-queue"));
}

TEST(S3LintBoundedQueue, OtherDirectoriesAreExempt) {
  const auto vs = lint("src/engine/pool.h",
                       "struct E { std::deque<int> tasks; };\n");
  EXPECT_FALSE(has_rule(vs, "bounded-queue"));
}

}  // namespace
}  // namespace s3lint
