#include "obs/flight_recorder.h"

#include <unistd.h>

#include <cstdlib>
#include <cstring>

#include "obs/clock.h"
#include "obs/crash_dump.h"
#include "obs/journal.h"
#include "obs/sigsafe_format.h"

namespace s3::obs {

const char* flight_kind_name(FlightKind kind) {
  switch (kind) {
    case FlightKind::kJournal:
      return "journal";
    case FlightKind::kSpanBegin:
      return "span_begin";
    case FlightKind::kSpanEnd:
      return "span_end";
    case FlightKind::kMark:
      return "mark";
  }
  return "unknown";
}

namespace {

using sigsafe::LineBuf;

thread_local Correlation t_correlation;

constexpr std::uint64_t kNoId = StrongId<JobTag>::kInvalid;

// Everything a record holds, as plain values. Shared by snapshot() and the
// signal-safe dump writer (which cannot touch std::string).
struct PlainRecord {
  std::uint64_t seq = 0;
  std::uint64_t ts_ns = 0;
  std::uint8_t kind = 0;
  std::uint16_t type = 0;
  const char* name = nullptr;
  const char* category = nullptr;
  std::uint64_t job = kNoId;
  std::uint64_t batch = kNoId;
  std::uint64_t node = kNoId;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  char detail[FlightRecorder::kDetailBytes] = {};
};

// Seqlock-style read: the record is only accepted when the commit word holds
// seq+1 on both sides of the field loads, so a slot being rewritten by its
// owning thread (ring wrap) is skipped instead of surfacing torn.
bool read_record(const FlightRecorder::Record& slot, std::uint64_t seq,
                 PlainRecord* out) {
  const std::uint64_t before = slot.commit.load(std::memory_order_acquire);
  if (before != seq + 1) return false;
  out->seq = seq;
  out->ts_ns = slot.ts_ns.load(std::memory_order_relaxed);
  out->kind = slot.kind.load(std::memory_order_relaxed);
  out->type = slot.type.load(std::memory_order_relaxed);
  out->name = slot.name.load(std::memory_order_relaxed);
  out->category = slot.category.load(std::memory_order_relaxed);
  out->job = slot.job.load(std::memory_order_relaxed);
  out->batch = slot.batch.load(std::memory_order_relaxed);
  out->node = slot.node.load(std::memory_order_relaxed);
  out->a = slot.a.load(std::memory_order_relaxed);
  out->b = slot.b.load(std::memory_order_relaxed);
  for (std::size_t w = 0; w < FlightRecorder::kDetailWords; ++w) {
    const std::uint64_t word = slot.detail[w].load(std::memory_order_relaxed);
    std::memcpy(out->detail + w * 8, &word, 8);
  }
  const std::uint64_t after = slot.commit.load(std::memory_order_acquire);
  return after == before;
}

void format_record(LineBuf* line, const PlainRecord& rec) {
  line->add_str("event seq=");
  line->add_u64(rec.seq);
  line->add_str(" ts_ns=");
  line->add_u64(rec.ts_ns);
  line->add_str(" kind=");
  line->add_str(flight_kind_name(static_cast<FlightKind>(rec.kind)));
  line->add_str(" name=");
  if (rec.category != nullptr) {
    line->add_str(rec.category);
    line->add_char(':');
  }
  line->add_str(rec.name != nullptr ? rec.name : "?");
  line->add_str(" job=");
  line->add_id(rec.job);
  line->add_str(" batch=");
  line->add_id(rec.batch);
  line->add_str(" node=");
  line->add_id(rec.node);
  line->add_str(" a=");
  line->add_u64(rec.a);
  line->add_str(" b=");
  line->add_u64(rec.b);
  line->add_str(" detail=");
  line->add_quoted(rec.detail, FlightRecorder::kDetailBytes);
  line->add_char('\n');
}

}  // namespace

Correlation current_correlation() { return t_correlation; }

CorrelationScope::CorrelationScope(JobId job, BatchId batch, NodeId node)
    : saved_(t_correlation) {
  if (job.valid()) t_correlation.job = job.value();
  if (batch.valid()) t_correlation.batch = batch.value();
  if (node.valid()) t_correlation.node = node.value();
}

CorrelationScope::~CorrelationScope() { t_correlation = saved_; }

FlightRecorder& FlightRecorder::instance() {
  // Leaked: rings must stay readable during crash handling and static
  // destruction. First use also arms the crash sink, so any instrumented
  // process gets black-box dumps without explicit wiring.
  static FlightRecorder* recorder = [] {
    auto* r = new FlightRecorder();
    install_crash_handler();
    return r;
  }();
  return *recorder;
}

FlightRecorder::FlightRecorder() {
  const char* env = std::getenv("S3_FLIGHT");
  if (env != nullptr && env[0] == '0' && env[1] == '\0') {
    enabled_.store(false, std::memory_order_relaxed);
  }
}

void FlightRecorder::set_enabled(bool enabled) {
  enabled_.store(enabled, std::memory_order_relaxed);
}

FlightRecorder::Ring* FlightRecorder::ring_for_this_thread() {
  // Claimed once per thread. A thread past the table gets nullptr: no
  // snapshot or dump could read its ring, so it allocates none.
  thread_local Ring* const ring = [this]() -> Ring* {
    const std::size_t index =
        ring_count_.fetch_add(1, std::memory_order_acq_rel);
    if (index >= kMaxThreads) return nullptr;
    auto* claimed = new Ring();  // kept after thread exit: see the header
    claimed->ordinal = static_cast<std::uint32_t>(index);
    rings_[index].store(claimed, std::memory_order_release);
    return claimed;
  }();
  return ring;
}

void FlightRecorder::record_journal(const JournalEvent& event) {
  if (!enabled()) return;
  Ring* ring = ring_for_this_thread();
  if (ring == nullptr) return;
  const Correlation corr = t_correlation;
  const std::uint64_t seq = ring->head.load(std::memory_order_relaxed);
  Record& slot = ring->slots[seq % kRingCapacity];
  slot.commit.store(0, std::memory_order_release);
  slot.ts_ns.store(event.ts_ns != 0 ? event.ts_ns : now_ns(),
                   std::memory_order_relaxed);
  slot.kind.store(static_cast<std::uint8_t>(FlightKind::kJournal),
                  std::memory_order_relaxed);
  slot.type.store(static_cast<std::uint16_t>(event.type),
                  std::memory_order_relaxed);
  slot.name.store(journal_event_name(event.type), std::memory_order_relaxed);
  slot.category.store(nullptr, std::memory_order_relaxed);
  slot.job.store(event.job.valid() ? event.job.value() : corr.job,
                 std::memory_order_relaxed);
  slot.batch.store(event.batch.valid() ? event.batch.value() : corr.batch,
                   std::memory_order_relaxed);
  slot.node.store(event.node.valid() ? event.node.value() : corr.node,
                  std::memory_order_relaxed);
  slot.a.store(event.cursor, std::memory_order_relaxed);
  slot.b.store(event.wave, std::memory_order_relaxed);
  char packed[kDetailBytes] = {};
  const std::size_t copy = event.detail.size() < kDetailBytes - 1
                               ? event.detail.size()
                               : kDetailBytes - 1;
  std::memcpy(packed, event.detail.data(), copy);
  for (std::size_t w = 0; w < kDetailWords; ++w) {
    std::uint64_t word = 0;
    std::memcpy(&word, packed + w * 8, 8);
    slot.detail[w].store(word, std::memory_order_relaxed);
  }
  slot.commit.store(seq + 1, std::memory_order_release);
  ring->head.store(seq + 1, std::memory_order_release);
}

void FlightRecorder::record_span(FlightKind kind, const char* category,
                                 const char* name) {
  if (!enabled()) return;
  Ring* ring = ring_for_this_thread();
  if (ring == nullptr) return;
  const Correlation corr = t_correlation;
  const std::uint64_t seq = ring->head.load(std::memory_order_relaxed);
  Record& slot = ring->slots[seq % kRingCapacity];
  slot.commit.store(0, std::memory_order_release);
  slot.ts_ns.store(now_ns(), std::memory_order_relaxed);
  slot.kind.store(static_cast<std::uint8_t>(kind), std::memory_order_relaxed);
  slot.type.store(0, std::memory_order_relaxed);
  slot.name.store(name, std::memory_order_relaxed);
  slot.category.store(category, std::memory_order_relaxed);
  slot.job.store(corr.job, std::memory_order_relaxed);
  slot.batch.store(corr.batch, std::memory_order_relaxed);
  slot.node.store(corr.node, std::memory_order_relaxed);
  slot.a.store(0, std::memory_order_relaxed);
  slot.b.store(0, std::memory_order_relaxed);
  for (std::size_t w = 0; w < kDetailWords; ++w) {
    slot.detail[w].store(0, std::memory_order_relaxed);
  }
  slot.commit.store(seq + 1, std::memory_order_release);
  ring->head.store(seq + 1, std::memory_order_release);
}

void FlightRecorder::record_mark(const char* name, std::uint64_t a,
                                 std::uint64_t b) {
  if (!enabled()) return;
  Ring* ring = ring_for_this_thread();
  if (ring == nullptr) return;
  const Correlation corr = t_correlation;
  const std::uint64_t seq = ring->head.load(std::memory_order_relaxed);
  Record& slot = ring->slots[seq % kRingCapacity];
  slot.commit.store(0, std::memory_order_release);
  slot.ts_ns.store(now_ns(), std::memory_order_relaxed);
  slot.kind.store(static_cast<std::uint8_t>(FlightKind::kMark),
                  std::memory_order_relaxed);
  slot.type.store(0, std::memory_order_relaxed);
  slot.name.store(name, std::memory_order_relaxed);
  slot.category.store(nullptr, std::memory_order_relaxed);
  slot.job.store(corr.job, std::memory_order_relaxed);
  slot.batch.store(corr.batch, std::memory_order_relaxed);
  slot.node.store(corr.node, std::memory_order_relaxed);
  slot.a.store(a, std::memory_order_relaxed);
  slot.b.store(b, std::memory_order_relaxed);
  for (std::size_t w = 0; w < kDetailWords; ++w) {
    slot.detail[w].store(0, std::memory_order_relaxed);
  }
  slot.commit.store(seq + 1, std::memory_order_release);
  ring->head.store(seq + 1, std::memory_order_release);
}

std::vector<FlightRecorder::ThreadLog> FlightRecorder::snapshot() const {
  std::vector<ThreadLog> out;
  std::size_t count = ring_count_.load(std::memory_order_acquire);
  if (count > kMaxThreads) count = kMaxThreads;
  for (std::size_t i = 0; i < count; ++i) {
    const Ring* ring = rings_[i].load(std::memory_order_acquire);
    if (ring == nullptr) continue;
    ThreadLog log;
    log.ordinal = ring->ordinal;
    log.head = ring->head.load(std::memory_order_acquire);
    const std::uint64_t begin =
        log.head > kRingCapacity ? log.head - kRingCapacity : 0;
    log.overwritten = begin;
    for (std::uint64_t seq = begin; seq < log.head; ++seq) {
      PlainRecord rec;
      if (!read_record(ring->slots[seq % kRingCapacity], seq, &rec)) continue;
      RecordCopy copy;
      copy.seq = rec.seq;
      copy.ts_ns = rec.ts_ns;
      copy.kind = static_cast<FlightKind>(rec.kind);
      copy.type = rec.type;
      copy.name = rec.name;
      copy.category = rec.category;
      copy.job = rec.job;
      copy.batch = rec.batch;
      copy.node = rec.node;
      copy.a = rec.a;
      copy.b = rec.b;
      copy.detail.assign(rec.detail,
                         rec.detail + ::strnlen(rec.detail, kDetailBytes));
      log.records.push_back(std::move(copy));
    }
    out.push_back(std::move(log));
  }
  return out;
}

void FlightRecorder::dump_to_fd(int fd) const {
  LineBuf line;
  std::size_t count = ring_count_.load(std::memory_order_acquire);
  if (count > kMaxThreads) count = kMaxThreads;
  for (std::size_t i = 0; i < count; ++i) {
    const Ring* ring = rings_[i].load(std::memory_order_acquire);
    if (ring == nullptr) continue;
    const std::uint64_t head = ring->head.load(std::memory_order_acquire);
    const std::uint64_t begin =
        head > kRingCapacity ? head - kRingCapacity : 0;
    line.add_str("== flight thread=");
    line.add_u64(ring->ordinal);
    line.add_str(" head=");
    line.add_u64(head);
    line.add_str(" capacity=");
    line.add_u64(kRingCapacity);
    line.add_str(" overwritten=");
    line.add_u64(begin);
    line.add_char('\n');
    line.flush(fd);
    for (std::uint64_t seq = begin; seq < head; ++seq) {
      PlainRecord rec;
      if (!read_record(ring->slots[seq % kRingCapacity], seq, &rec)) continue;
      format_record(&line, rec);
      line.flush(fd);
    }
  }
}

}  // namespace s3::obs
