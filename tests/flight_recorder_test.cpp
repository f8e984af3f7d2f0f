// Flight recorder unit tests: ring mechanics (sequencing, wrap/overwrite
// accounting), correlation propagation and restoration, the journal and span
// bridges, and the dump_to_fd text format round-tripping through the
// postmortem parser the tools share.
#include "obs/flight_recorder.h"

#include <fcntl.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/pinned_thread_pool.h"
#include "gtest/gtest.h"
#include "obs/journal.h"
#include "obs/trace.h"
#include "postmortem.h"

namespace s3::obs {
namespace {

// The recorder's rings are append-only and per-thread, so tests cannot
// clear them; instead each test remembers the calling thread's current
// position and asserts on records written after it.
std::vector<FlightRecorder::RecordCopy> records_after(std::uint64_t seq_from,
                                                      const char* name) {
  std::vector<FlightRecorder::RecordCopy> out;
  for (const FlightRecorder::ThreadLog& log : FlightRecorder::instance()
           .snapshot()) {
    for (const FlightRecorder::RecordCopy& rec : log.records) {
      if (rec.seq < seq_from) continue;
      if (rec.name == nullptr || std::string(rec.name) != name) continue;
      out.push_back(rec);
    }
  }
  return out;
}

std::uint64_t max_head() {
  std::uint64_t head = 0;
  for (const FlightRecorder::ThreadLog& log : FlightRecorder::instance()
           .snapshot()) {
    head = std::max(head, log.head);
  }
  return head;
}

TEST(FlightRecorder, MarkCarriesAmbientCorrelation) {
  auto& recorder = FlightRecorder::instance();
  recorder.set_enabled(true);
  const std::uint64_t start = max_head();
  {
    CorrelationScope corr(JobId(11), BatchId(22), NodeId(33));
    S3_FLIGHT_MARK("test.correlated_mark", 5, 6);
  }
  S3_FLIGHT_MARK("test.uncorrelated_mark", 7, 8);

  const auto correlated = records_after(start, "test.correlated_mark");
  ASSERT_EQ(correlated.size(), 1u);
  EXPECT_EQ(correlated[0].kind, FlightKind::kMark);
  EXPECT_EQ(correlated[0].job, 11u);
  EXPECT_EQ(correlated[0].batch, 22u);
  EXPECT_EQ(correlated[0].node, 33u);
  EXPECT_EQ(correlated[0].a, 5u);
  EXPECT_EQ(correlated[0].b, 6u);

  // The scope restored on exit: the second mark is unattributed again.
  const auto uncorrelated = records_after(start, "test.uncorrelated_mark");
  ASSERT_EQ(uncorrelated.size(), 1u);
  EXPECT_EQ(uncorrelated[0].job, StrongId<JobTag>::kInvalid);
  EXPECT_EQ(uncorrelated[0].batch, StrongId<BatchTag>::kInvalid);
}

TEST(FlightRecorder, NestedScopesOverlayAndInherit) {
  CorrelationScope outer(JobId(1), BatchId(2), NodeId());
  {
    // Inner scope overrides the batch, inherits the job, adds a node.
    CorrelationScope inner(JobId(), BatchId(9), NodeId(4));
    const Correlation c = current_correlation();
    EXPECT_EQ(c.job, 1u);
    EXPECT_EQ(c.batch, 9u);
    EXPECT_EQ(c.node, 4u);
  }
  const Correlation c = current_correlation();
  EXPECT_EQ(c.job, 1u);
  EXPECT_EQ(c.batch, 2u);
  EXPECT_EQ(c.node, StrongId<NodeTag>::kInvalid);
}

TEST(FlightRecorder, JournalEventsRecordedEvenWhenJournalDisabled) {
  auto& recorder = FlightRecorder::instance();
  recorder.set_enabled(true);
  auto& journal = EventJournal::instance();
  journal.set_enabled(false);
  EXPECT_TRUE(journal.observed());  // flight recorder keeps producers live

  const std::uint64_t start = max_head();
  JournalEvent event;
  event.type = JournalEventType::kBatchLaunched;
  event.job = JobId(3);
  event.batch = BatchId(4);
  event.cursor = 17;
  event.wave = 8;
  event.detail = "flight-journal-bridge";
  journal.record(std::move(event));

  bool found = false;
  for (const FlightRecorder::ThreadLog& log : recorder.snapshot()) {
    for (const FlightRecorder::RecordCopy& rec : log.records) {
      if (rec.seq < start || rec.kind != FlightKind::kJournal) continue;
      if (rec.detail != "flight-journal-bridge") continue;
      found = true;
      EXPECT_EQ(rec.job, 3u);
      EXPECT_EQ(rec.batch, 4u);
      EXPECT_EQ(rec.a, 17u);  // cursor
      EXPECT_EQ(rec.b, 8u);   // wave
    }
  }
  EXPECT_TRUE(found);
}

TEST(FlightRecorder, SpanGuardRecordsBeginAndEndWithoutTracer) {
  auto& recorder = FlightRecorder::instance();
  recorder.set_enabled(true);
  const std::uint64_t start = max_head();
  {
    S3_TRACE_SPAN_NAMED(span, "flighttest", "unit_span");
  }
  const auto edges = records_after(start, "unit_span");
  ASSERT_EQ(edges.size(), 2u);
  EXPECT_EQ(edges[0].kind, FlightKind::kSpanBegin);
  EXPECT_EQ(edges[1].kind, FlightKind::kSpanEnd);
  EXPECT_STREQ(edges[0].category, "flighttest");
  EXPECT_LE(edges[0].ts_ns, edges[1].ts_ns);
}

TEST(FlightRecorder, DisabledRecorderDropsRecords) {
  auto& recorder = FlightRecorder::instance();
  recorder.set_enabled(false);
  const std::uint64_t start = max_head();
  S3_FLIGHT_MARK("test.disabled_mark", 1, 2);
  recorder.set_enabled(true);
  EXPECT_TRUE(records_after(start, "test.disabled_mark").empty());
}

TEST(FlightRecorder, RingWrapKeepsLastCapacityAndCountsOverwritten) {
  auto& recorder = FlightRecorder::instance();
  recorder.set_enabled(true);
  // A worker thread gets a fresh ring, so the wrap arithmetic is exact.
  PinnedThreadPool pool(1);
  const std::size_t total = FlightRecorder::kRingCapacity + 40;
  ASSERT_TRUE(pool.submit([total] {
    for (std::size_t i = 0; i < total; ++i) {
      S3_FLIGHT_MARK("test.wrap_mark", i, 0);
    }
  }));
  pool.shutdown();

  for (const FlightRecorder::ThreadLog& log : recorder.snapshot()) {
    if (log.head != total) continue;
    bool all_wrap_marks = true;
    for (const auto& rec : log.records) {
      if (rec.name == nullptr || std::string(rec.name) != "test.wrap_mark") {
        all_wrap_marks = false;
      }
    }
    if (!all_wrap_marks) continue;
    EXPECT_EQ(log.overwritten, 40u);
    ASSERT_EQ(log.records.size(), FlightRecorder::kRingCapacity);
    // The survivors are exactly the last kRingCapacity, in order.
    EXPECT_EQ(log.records.front().seq, 40u);
    EXPECT_EQ(log.records.front().a, 40u);
    EXPECT_EQ(log.records.back().seq, total - 1);
    EXPECT_EQ(log.records.back().a, total - 1);
    return;
  }
  FAIL() << "no ring with " << total << " wrap marks found";
}

TEST(FlightRecorder, DumpRoundTripsThroughPostmortemParser) {
  auto& recorder = FlightRecorder::instance();
  recorder.set_enabled(true);
  {
    CorrelationScope corr(JobId(77), BatchId(88), NodeId(99));
    S3_FLIGHT_MARK("test.dump_mark", 123, 456);
  }

  const std::string path =
      ::testing::TempDir() + "/flight_dump_roundtrip.txt";
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  ASSERT_GE(fd, 0);
  recorder.dump_to_fd(fd);
  ::close(fd);

  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  // dump_to_fd writes only the flight section; wrap it in the dump framing
  // the parser expects.
  std::stringstream framed;
  framed << "# s3-crash-dump v1\nreason: roundtrip\npid: 1\n"
         << in.rdbuf() << "== end\n";
  const tools::CrashDump dump = tools::parse_crash_dump(framed);
  EXPECT_TRUE(dump.valid) << dump.error;
  EXPECT_TRUE(dump.complete);
  bool found = false;
  for (const tools::ThreadRing& ring : dump.rings) {
    EXPECT_EQ(ring.capacity, FlightRecorder::kRingCapacity);
    for (const tools::FlightEvent& event : ring.events) {
      if (event.name != "test.dump_mark") continue;
      found = true;
      EXPECT_EQ(event.job, "77");
      EXPECT_EQ(event.batch, "88");
      EXPECT_EQ(event.node, "99");
      EXPECT_EQ(event.a, 123u);
      EXPECT_EQ(event.b, 456u);
    }
  }
  EXPECT_TRUE(found);
  std::remove(path.c_str());
}

// Threads that first record after the ring table is full must allocate
// nothing: no snapshot or dump could read their rings, so under
// LeakSanitizer a ring kept for them fails the process at exit. The child
// process keeps the full table out of later tests and makes the leak check
// part of this test's verdict.
TEST(FlightRecorder, ThreadsPastTheRingTableLeakNothing) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_EXIT(
      {
        auto& recorder = FlightRecorder::instance();
        recorder.set_enabled(true);
        for (std::size_t i = 0; i < FlightRecorder::kMaxThreads + 8; ++i) {
          std::thread([i] { S3_FLIGHT_MARK("test.table_mark", i, 0); })
              .join();
        }
        const bool bounded =
            recorder.snapshot().size() <= FlightRecorder::kMaxThreads;
        std::exit(bounded ? 0 : 1);
      },
      ::testing::ExitedWithCode(0), "");
}

}  // namespace
}  // namespace s3::obs
