// Tests for the observability layer: histogram quantile edges, tracer ring
// spill/drain, journal ordering under concurrent late arrivals, the golden
// Chrome-trace export, the live sharing-efficiency gauge, and TraceSession
// file output.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "engine/local_engine.h"
#include "obs/chrome_trace.h"
#include "obs/journal.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "obs/trace_session.h"
#include "sched/job_queue_manager.h"
#include "workloads/text_corpus.h"
#include "workloads/wordcount.h"

namespace s3::obs {
namespace {

// Every test leaves the global tracer/journal disabled and empty so suites
// sharing the binary do not observe each other's events.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override { reset(); }
  void TearDown() override { reset(); }

  static void reset() {
    Tracer::instance().set_enabled(false);
    Tracer::instance().clear();
    EventJournal::instance().set_enabled(false);
    EventJournal::instance().clear();
  }
};

// ---------------------------------------------------------------------------
// LogHistogram

TEST(LogHistogramTest, BucketIndexEdges) {
  EXPECT_EQ(LogHistogram::bucket_index(0), 0u);
  EXPECT_EQ(LogHistogram::bucket_index(1), 1u);
  EXPECT_EQ(LogHistogram::bucket_index(2), 2u);
  EXPECT_EQ(LogHistogram::bucket_index(3), 2u);
  EXPECT_EQ(LogHistogram::bucket_index(4), 3u);
  EXPECT_EQ(LogHistogram::bucket_index((1ull << 61)), 62u);
  EXPECT_EQ(LogHistogram::bucket_index((1ull << 62)), 63u);
  EXPECT_EQ(LogHistogram::bucket_index(~0ull), 63u);
}

TEST(LogHistogramTest, EmptyHistogramQuantilesAreZero) {
  LogHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(h.p50(), 0.0);
  EXPECT_DOUBLE_EQ(h.p99(), 0.0);
}

TEST(LogHistogramTest, OneSampleReportsItsBucketForEveryQuantile) {
  LogHistogram h;
  h.observe(1000);  // bucket [512, 1024) upper edge 1024
  EXPECT_EQ(h.count(), 1u);
  for (const double q : {0.0, 0.25, 0.5, 0.95, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(h.quantile(q), 1024.0) << "q=" << q;
  }
}

TEST(LogHistogramTest, OverflowBucketReportsInfinity) {
  LogHistogram h;
  h.observe(~0ull);
  EXPECT_TRUE(std::isinf(h.p50()));
  h.observe(1);
  h.observe(1);
  // Two of three samples in bucket 1: p50 within range, p99 overflows.
  EXPECT_DOUBLE_EQ(h.p50(), 2.0);
  EXPECT_TRUE(std::isinf(h.p99()));
}

TEST(LogHistogramTest, QuantilesAreMonotoneAndClamped) {
  LogHistogram h;
  for (std::uint64_t v = 1; v <= 1024; ++v) h.observe(v);
  EXPECT_LE(h.p50(), h.p95());
  EXPECT_LE(h.p95(), h.p99());
  EXPECT_DOUBLE_EQ(h.quantile(-1.0), h.quantile(0.0));
  EXPECT_DOUBLE_EQ(h.quantile(2.0), h.quantile(1.0));
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.p99(), 0.0);
}

// ---------------------------------------------------------------------------
// Registry

TEST(RegistryTest, FindOrCreateReturnsStableReferences) {
  auto& registry = Registry::instance();
  auto& c1 = registry.counter("obs_test.stable");
  c1.add(7);
  auto& c2 = registry.counter("obs_test.stable");
  EXPECT_EQ(&c1, &c2);
  EXPECT_EQ(c2.value(), 7u);

  registry.gauge("obs_test.gauge").set(2.5);
  EXPECT_DOUBLE_EQ(registry.gauge("obs_test.gauge").value(), 2.5);

  const std::string jsonl = registry.to_jsonl();
  EXPECT_NE(jsonl.find("\"metric\":\"obs_test.stable\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"metric\":\"obs_test.gauge\""), std::string::npos);

  registry.reset_for_test();
  EXPECT_EQ(c1.value(), 0u);  // zeroed in place, reference still valid
}

// ---------------------------------------------------------------------------
// Tracer

TEST_F(ObsTest, DisabledTracerRecordsNothing) {
  { S3_TRACE_SPAN("test", "ignored"); }
  EXPECT_TRUE(Tracer::instance().drain().empty());
}

TEST_F(ObsTest, SpanGuardRecordsNameCategoryAndArgs) {
  Tracer::instance().set_enabled(true);
  {
    S3_TRACE_SPAN_NAMED(span, "cat", "work");
    ASSERT_TRUE(span.active());
    span.arg("n", std::uint64_t{42}).arg("label", std::string("x"));
  }
  const auto events = Tracer::instance().drain();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "work");
  EXPECT_EQ(events[0].category, "cat");
  EXPECT_GE(events[0].end_ns, events[0].start_ns);
  ASSERT_EQ(events[0].args.size(), 2u);
  EXPECT_EQ(events[0].args[0].key, "n");
  EXPECT_EQ(events[0].args[0].number, 42u);
  EXPECT_EQ(events[0].args[1].text, "x");
}

TEST_F(ObsTest, RingOverflowSpillsEverySpanToTheSink) {
  Tracer::instance().set_enabled(true);
  const std::size_t total = Tracer::kRingCapacity * 2 + 17;
  for (std::size_t i = 0; i < total; ++i) {
    S3_TRACE_SPAN("test", "tick");
  }
  EXPECT_EQ(Tracer::instance().drain().size(), total);
  EXPECT_EQ(Tracer::instance().dropped(), 0u);
  EXPECT_TRUE(Tracer::instance().drain().empty());  // drain empties
}

TEST_F(ObsTest, ConcurrentRecordersAllLand) {
  Tracer::instance().set_enabled(true);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 5000;  // > ring capacity: exercises spills
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < kPerThread; ++i) {
        S3_TRACE_SPAN("test", "t");
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(Tracer::instance().drain().size(),
            static_cast<std::size_t>(kThreads) * kPerThread);
}

// ---------------------------------------------------------------------------
// EventJournal

TEST_F(ObsTest, JournalStampsStrictlyIncreasingSeq) {
  auto& journal = EventJournal::instance();
  journal.set_enabled(true);
  for (int i = 0; i < 5; ++i) {
    JournalEvent event;
    event.type = JournalEventType::kJobAdmitted;
    journal.record(std::move(event));
  }
  const auto events = journal.snapshot();
  ASSERT_EQ(events.size(), 5u);
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, events[i - 1].seq + 1);
    EXPECT_GE(events[i].ts_ns, events[i - 1].ts_ns);
  }
}

TEST_F(ObsTest, JournalOrderingUnderConcurrentLateArrivals) {
  auto& journal = EventJournal::instance();
  journal.set_enabled(true);

  sched::JobQueueManager jqm(FileId(0), 64);
  jqm.admit(JobId(0));
  auto batch = jqm.form_batch(BatchId(0), 8);
  ASSERT_EQ(batch.members.size(), 1u);

  // Late arrivals race while the batch is in flight: each must journal as a
  // late join, and the journal's seq order must match a valid serialization
  // (all seqs unique, every job present exactly once).
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  for (int t = 1; t <= kThreads; ++t) {
    threads.emplace_back(
        [&jqm, t] { jqm.admit(JobId(static_cast<std::uint64_t>(t))); });
  }
  for (auto& t : threads) t.join();
  jqm.complete_batch();

  const auto events = journal.drain();
  std::set<std::uint64_t> late_jobs;
  std::uint64_t last_seq = 0;
  bool first = true;
  for (const auto& event : events) {
    if (!first) {
      EXPECT_GT(event.seq, last_seq);
    }
    last_seq = event.seq;
    first = false;
    if (event.type == JournalEventType::kLateJobJoined) {
      EXPECT_TRUE(late_jobs.insert(event.job.value()).second)
          << "job journaled twice: " << event.job;
    }
  }
  EXPECT_EQ(late_jobs.size(), static_cast<std::size_t>(kThreads));
  // The admitted job + the wave it joined were journaled too.
  EXPECT_EQ(std::count_if(events.begin(), events.end(),
                          [](const JournalEvent& e) {
                            return e.type == JournalEventType::kJobAdmitted;
                          }),
            1);
  EXPECT_EQ(std::count_if(events.begin(), events.end(),
                          [](const JournalEvent& e) {
                            return e.type == JournalEventType::kBatchRetired;
                          }),
            1);
}

// ---------------------------------------------------------------------------
// Chrome trace export (golden)

TEST(ChromeTraceTest, GoldenExport) {
  std::vector<TraceEvent> spans;
  TraceEvent batch;
  batch.name = "batch";
  batch.category = "driver";
  batch.tid = 2;
  batch.start_ns = 1000;
  batch.end_ns = 9000;
  spans.push_back(batch);
  TraceEvent map_task;
  map_task.name = "map_task";
  map_task.category = "engine";
  map_task.tid = 1;
  map_task.start_ns = 2000;
  map_task.end_ns = 5500;
  map_task.args.push_back(TraceArg{"block", {}, 7, true});
  spans.push_back(map_task);

  std::vector<JournalEvent> journal;
  JournalEvent admitted;
  admitted.type = JournalEventType::kJobAdmitted;
  admitted.seq = 0;
  admitted.ts_ns = 1500;
  admitted.file = FileId(3);
  admitted.job = JobId(4);
  admitted.cursor = 2;
  admitted.remaining = 8;
  journal.push_back(admitted);
  JournalEvent launched;
  launched.type = JournalEventType::kBatchLaunched;
  launched.seq = 1;
  launched.ts_ns = 1800;
  launched.sim_time = 2.5;
  launched.file = FileId(3);
  launched.batch = BatchId(0);
  launched.wave = 8;
  launched.members = 2;
  launched.detail = "say \"hi\"";
  journal.push_back(launched);

  const std::string expected =
      "{\"traceEvents\":[\n"
      "{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\","
      "\"args\":{\"name\":\"s3\"}},\n"
      "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"thread_name\","
      "\"args\":{\"name\":\"scheduler journal\"}},\n"
      "{\"ph\":\"X\",\"pid\":1,\"tid\":2,\"ts\":0.000,\"dur\":8.000,"
      "\"cat\":\"driver\",\"name\":\"batch\"},\n"
      "{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":1.000,\"dur\":3.500,"
      "\"cat\":\"engine\",\"name\":\"map_task\",\"args\":{\"block\":7}},\n"
      "{\"ph\":\"i\",\"pid\":1,\"tid\":0,\"ts\":0.500,\"s\":\"p\","
      "\"cat\":\"journal\",\"name\":\"job_admitted\","
      "\"args\":{\"seq\":0,\"file\":3,\"job\":4,\"cursor\":2,\"wave\":0,"
      "\"members\":0,\"remaining\":8}},\n"
      "{\"ph\":\"i\",\"pid\":1,\"tid\":0,\"ts\":0.800,\"s\":\"p\","
      "\"cat\":\"journal\",\"name\":\"batch_launched\","
      "\"args\":{\"seq\":1,\"file\":3,\"batch\":0,\"cursor\":0,\"wave\":8,"
      "\"members\":2,\"remaining\":0,\"sim_time\":2500000,"
      "\"detail\":\"say \\\"hi\\\"\"}}\n"
      "],\n"
      "\"displayTimeUnit\":\"ms\"}\n";
  EXPECT_EQ(to_chrome_trace_json(spans, journal), expected);
}

TEST(ChromeTraceTest, TruncationIsAnnounced) {
  const std::string json = to_chrome_trace_json({}, {}, /*dropped=*/12);
  EXPECT_NE(json.find("\"trace_truncated\""), std::string::npos);
  EXPECT_NE(json.find("\"dropped_events\":12"), std::string::npos);
}

TEST(ChromeTraceTest, SpansSortedByStartTime) {
  std::vector<TraceEvent> spans;
  for (const std::uint64_t start : {5000u, 1000u, 3000u}) {
    TraceEvent e;
    e.name = "s" + std::to_string(start);
    e.category = "t";
    e.start_ns = start;
    e.end_ns = start + 1;
    spans.push_back(e);
  }
  const std::string json = to_chrome_trace_json(std::move(spans), {});
  const auto p1 = json.find("\"name\":\"s1000\"");
  const auto p3 = json.find("\"name\":\"s3000\"");
  const auto p5 = json.find("\"name\":\"s5000\"");
  ASSERT_NE(p1, std::string::npos);
  EXPECT_LT(p1, p3);
  EXPECT_LT(p3, p5);
}

// ---------------------------------------------------------------------------
// Sharing-efficiency gauge (acceptance: n-job batch reports exactly n)

TEST_F(ObsTest, SharingGaugeReportsJobsPerPhysicalBlock) {
  Registry::instance().reset_for_test();

  dfs::DfsNamespace ns;
  dfs::BlockStore store;
  dfs::PlacementTopology topo;
  topo.nodes.push_back({NodeId(0), RackId(0)});
  dfs::RoundRobinPlacement placement(topo);
  workloads::TextCorpusGenerator corpus;
  const FileId file =
      corpus.generate_file(ns, store, placement, "gauge", 4, ByteSize::kib(4))
          .value();

  engine::LocalEngineOptions opts;
  opts.map_workers = 2;
  opts.reduce_workers = 1;
  engine::LocalEngine engine(ns, store, opts);
  constexpr std::uint64_t kJobs = 3;
  std::vector<JobId> jobs;
  for (std::uint64_t j = 0; j < kJobs; ++j) {
    const std::string prefix(1, static_cast<char>('a' + j));
    ASSERT_TRUE(engine
                    .register_job(workloads::make_wordcount_job(
                        JobId(j), file, prefix, 2))
                    .is_ok());
    jobs.push_back(JobId(j));
  }
  ASSERT_TRUE(
      engine.run_batch({BatchId(0), ns.file(file).blocks, jobs}).is_ok());

  EXPECT_DOUBLE_EQ(
      Registry::instance().gauge("engine.sharing_efficiency").value(),
      static_cast<double>(kJobs));
  EXPECT_EQ(Registry::instance().counter("engine.blocks_physical").value(),
            4u);
  EXPECT_EQ(Registry::instance().counter("engine.blocks_logical").value(),
            4u * kJobs);
  for (const JobId j : jobs) ASSERT_TRUE(engine.finalize_job(j).is_ok());
}

// ---------------------------------------------------------------------------
// TraceSession

TEST_F(ObsTest, InertSessionLeavesTracingDisabled) {
  TraceSession session{std::string()};
  EXPECT_FALSE(session.active());
  EXPECT_FALSE(Tracer::instance().enabled());
}

TEST_F(ObsTest, SessionWritesTraceAndMetricsFiles) {
  const std::string path =
      ::testing::TempDir() + "obs_session_trace.json";
  {
    TraceSession session(path);
    ASSERT_TRUE(session.active());
    EXPECT_TRUE(Tracer::instance().enabled());
    EXPECT_TRUE(EventJournal::instance().enabled());
    { S3_TRACE_SPAN("test", "scoped_work"); }
    JournalEvent event;
    event.type = JournalEventType::kCursorAdvanced;
    EventJournal::instance().record(std::move(event));
  }
  EXPECT_FALSE(Tracer::instance().enabled());

  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string json = buffer.str();
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(json.find("\"name\":\"scoped_work\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"cursor_advanced\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);

  std::ifstream metrics(path + ".metrics.jsonl");
  EXPECT_TRUE(metrics.is_open());
  std::remove(path.c_str());
  std::remove((path + ".metrics.jsonl").c_str());
}

}  // namespace
}  // namespace s3::obs
