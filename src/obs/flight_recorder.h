// Always-on black-box flight recorder: every thread keeps a lock-free ring
// of its last kRingCapacity journal events, span edges, and marks, so a
// crash (S3_CHECK failure, lock-rank inversion, stale-view abort, fatal
// signal) can dump the final seconds of scheduler/engine activity even when
// no TraceSession was ever opened. This is the black box the Chrome tracer
// is not: the tracer is opt-in and unbounded, the flight recorder is on by
// default and strictly bounded (DESIGN.md §16).
//
// Design constraints, in order:
//  * Hot-path cost: one relaxed atomic load when disabled; when enabled (the
//    default) a record is ~a dozen relaxed stores into the calling thread's
//    own ring plus one release store to publish — no locks, no allocation
//    after a thread's first record. Budget: ≤2% on BM_MapRunnerEndToEnd,
//    enforced by check.sh --flight.
//  * Crash readable: every record field is a word-sized relaxed atomic and
//    every name is a pointer to a static string, so the crash-dump writer
//    can walk all rings from a signal handler (or from another thread while
//    writers are live) without locks, malloc, or torn reads — a per-record
//    commit word (seqlock-style) lets it skip in-flight slots. Rings are
//    leaked on thread exit on purpose: a dead worker's last events are
//    exactly what a post-mortem needs.
//  * Attribution: records carry the ambient job/batch/node correlation ids
//    propagated via CorrelationScope (JobQueueManager → S3Scheduler →
//    LocalEngine → map_runner/reduce_runner/shuffle), so a dump names the
//    work that was in flight, not just the code location.
//
// Disable with S3_FLIGHT=0 in the environment (overhead A/B runs) or
// set_enabled(false) (tests).
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"

namespace s3::obs {

struct JournalEvent;

enum class FlightKind : std::uint8_t {
  kJournal = 1,    // one typed scheduler/failure-domain journal event
  kSpanBegin = 2,  // a SpanGuard opened (tracer enabled or not)
  kSpanEnd = 3,    // the matching close
  kMark = 4,       // a point event from S3_FLIGHT_MARK
};

[[nodiscard]] const char* flight_kind_name(FlightKind kind);

// The ambient correlation for the calling thread; records snapshot it at
// write time. kInvalid fields mean "not attributed".
struct Correlation {
  std::uint64_t job = StrongId<JobTag>::kInvalid;
  std::uint64_t batch = StrongId<BatchTag>::kInvalid;
  std::uint64_t node = StrongId<NodeTag>::kInvalid;
};

[[nodiscard]] Correlation current_correlation();

// RAII overlay on the thread's correlation: fields passed as valid ids are
// set for the scope, invalid ones inherit the enclosing scope's value, and
// the previous correlation is restored on exit. Scopes do not cross thread
// boundaries — a task lambda running on a pool worker opens its own.
class CorrelationScope {
 public:
  CorrelationScope(JobId job, BatchId batch, NodeId node);
  ~CorrelationScope();

  CorrelationScope(const CorrelationScope&) = delete;
  CorrelationScope& operator=(const CorrelationScope&) = delete;

 private:
  Correlation saved_;
};

class FlightRecorder {
 public:
  // Records a thread retains; sized so a ring outlives any single wave
  // (a wave writes two span edges per task plus a handful of journal
  // events) while keeping the per-thread footprint ~40 KiB.
  static constexpr std::size_t kRingCapacity = 256;
  // Rings registered for dumping, one per recording thread (far above any
  // real worker count). A thread that first records after the table is full
  // allocates no ring and records nothing: no snapshot or dump could read it.
  static constexpr std::size_t kMaxThreads = 256;
  static constexpr std::size_t kDetailWords = 6;  // 48 bytes of detail text
  static constexpr std::size_t kDetailBytes = kDetailWords * 8;

  // One slot. Fields are individually atomic (relaxed) so a concurrent
  // dumper never races; `commit` holds seq+1 of the occupying record and is
  // the last store (release) — a reader that sees the same commit value on
  // both sides of its field loads has a consistent record.
  struct Record {
    std::atomic<std::uint64_t> commit{0};
    std::atomic<std::uint64_t> ts_ns{0};
    std::atomic<std::uint8_t> kind{0};
    std::atomic<std::uint16_t> type{0};  // JournalEventType for kJournal
    std::atomic<const char*> name{nullptr};      // static string only
    std::atomic<const char*> category{nullptr};  // static string only
    std::atomic<std::uint64_t> job{StrongId<JobTag>::kInvalid};
    std::atomic<std::uint64_t> batch{StrongId<BatchTag>::kInvalid};
    std::atomic<std::uint64_t> node{StrongId<NodeTag>::kInvalid};
    std::atomic<std::uint64_t> a{0};
    std::atomic<std::uint64_t> b{0};
    // Truncated copy of the event's dynamic detail, packed 8 chars per word
    // so the bytes stay atomically readable.
    std::array<std::atomic<std::uint64_t>, kDetailWords> detail{};
  };

  struct Ring {
    std::array<Record, kRingCapacity> slots;
    // Records this thread ever wrote; slot for seq s is s % kRingCapacity.
    std::atomic<std::uint64_t> head{0};
    std::uint32_t ordinal = 0;  // stable dump label, assigned at registration
  };

  static FlightRecorder& instance();

  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }
  void set_enabled(bool enabled);

  // Producers. Each snapshots the thread's ambient correlation; journal
  // events prefer their own explicit ids where valid.
  void record_journal(const JournalEvent& event);
  void record_span(FlightKind kind, const char* category, const char* name);
  void record_mark(const char* name, std::uint64_t a, std::uint64_t b);

  // Plain-struct copy of one record, for snapshots and tests.
  struct RecordCopy {
    std::uint64_t seq = 0;
    std::uint64_t ts_ns = 0;
    FlightKind kind{};
    std::uint16_t type = 0;
    const char* name = nullptr;
    const char* category = nullptr;
    std::uint64_t job = StrongId<JobTag>::kInvalid;
    std::uint64_t batch = StrongId<BatchTag>::kInvalid;
    std::uint64_t node = StrongId<NodeTag>::kInvalid;
    std::uint64_t a = 0;
    std::uint64_t b = 0;
    std::string detail;
  };
  struct ThreadLog {
    std::uint32_t ordinal = 0;
    std::uint64_t head = 0;         // records ever written by the thread
    std::uint64_t overwritten = 0;  // records lost to ring wrap
    std::vector<RecordCopy> records;  // oldest first; torn slots skipped
  };

  // Consistent best-effort copy of every registered ring. Safe to call
  // while other threads record (in-flight slots are skipped).
  [[nodiscard]] std::vector<ThreadLog> snapshot() const;

  // Async-signal-safe dump of every ring to `fd` in the crash-dump text
  // format ("== flight thread=..." sections; see DESIGN.md §16). Uses only
  // write(2) and stack buffers.
  void dump_to_fd(int fd) const;

 private:
  FlightRecorder();

  Ring* ring_for_this_thread();

  std::atomic<bool> enabled_{true};
  std::array<std::atomic<Ring*>, kMaxThreads> rings_{};
  std::atomic<std::size_t> ring_count_{0};
};

}  // namespace s3::obs

// Point event in the flight record (never the Chrome trace): cheap enough
// for always-on use at shuffle/runner milestones the journal does not cover.
#define S3_FLIGHT_MARK(name, a, b) \
  ::s3::obs::FlightRecorder::instance().record_mark((name), (a), (b))
