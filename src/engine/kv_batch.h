// KVBatch — the flat record representation of the engine's hot path. One
// contiguous byte arena holds every key and value back to back; a parallel
// entry array records {offset, key_len, value_len}. Appending copies the
// record bytes once and never allocates per record (amortized arena growth
// only).
//
// View-lifetime invariant: the {offset, len} entries survive arena
// reallocation — a held std::string_view does NOT. key()/value() compute a
// view from the arena's *current* base pointer, so any arena mutation
// (a reallocating append, clear(), prefault(), recycle through
// BatchArenaPool, a move, destruction) leaves previously-fetched views
// dangling. Re-fetch after any append; never hold a view across a mutation.
// The engine's phases respect this by construction (append-once, then
// read). Checked builds enforce it: key()/value() return an ArenaView
// (s3::DebugView) stamped with the arena's generation, and a stale
// dereference aborts with a witness (common/view_checks.h; the static half
// is tools/s3viewcheck).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/view_checks.h"

namespace s3::engine {

// What key()/value() hand out: a validating DebugView in checked builds, a
// plain std::string_view (zero overhead) in Release.
#if S3_VIEW_CHECKS
using ArenaView = ::s3::DebugView;
#else
using ArenaView = std::string_view;
#endif

class KVBatch {
 public:
  struct Entry {
    std::uint64_t offset = 0;      // first key byte within the arena
    std::uint32_t key_len = 0;
    std::uint32_t value_len = 0;
  };

  void append(std::string_view key, std::string_view value) {
#if S3_VIEW_CHECKS
    // Growth reallocates the arena: every outstanding view dangles.
    if (arena_.size() + key.size() + value.size() > arena_.capacity()) {
      stamp_.bump();
    }
#endif
    entries_.push_back(Entry{arena_.size(),
                             static_cast<std::uint32_t>(key.size()),
                             static_cast<std::uint32_t>(value.size())});
    arena_.append(key);
    arena_.append(value);
    sorted_ = false;
  }

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] bool empty() const { return entries_.empty(); }
  // Total key+value bytes held (the map_output_bytes unit).
  [[nodiscard]] std::uint64_t payload_bytes() const { return arena_.size(); }

  [[nodiscard]] ArenaView key(std::size_t i) const {
    const Entry& e = entries_[i];
    return tag(std::string_view(arena_).substr(e.offset, e.key_len),
               "KVBatch::key");
  }
  [[nodiscard]] ArenaView value(std::size_t i) const {
    const Entry& e = entries_[i];
    return tag(
        std::string_view(arena_).substr(e.offset + e.key_len, e.value_len),
        "KVBatch::value");
  }

  void reserve(std::size_t records, std::size_t bytes) {
    entries_.reserve(records);
    arena_.reserve(bytes);
  }

  // Reserves AND touches one byte per page of the arena and entry storage,
  // so the pages are faulted in (and, under first-touch NUMA placement,
  // owned by the calling thread's node) before the timed phase starts —
  // Metis's map_prefault/reduce_prefault. The batch is left logically empty.
  void prefault(std::size_t records, std::size_t bytes);

  void clear() {
    entries_.clear();
    arena_.clear();
    sorted_ = false;
#if S3_VIEW_CHECKS
    stamp_.bump();
#endif
  }

  // Reorders the entry index so keys ascend (stable: equal keys keep their
  // append order). Only the 16-byte entries move; the arena is untouched,
  // so held views stay valid — they just no longer correspond to the same
  // index. Entries that already ascend are found in one pass and not moved.
  void sort_by_key();

  // True iff keys ascend in index order (set by sort_by_key, cleared by
  // append; trivially true for <= 1 record).
  [[nodiscard]] bool sorted_by_key() const {
    return sorted_ || entries_.size() <= 1;
  }

#if S3_VIEW_CHECKS
  // Current arena generation (test hook: proves which mutations bump).
  [[nodiscard]] std::uint64_t generation_for_test() const {
    return stamp_.generation();
  }
#endif

 private:
  [[nodiscard]] ArenaView tag(std::string_view view,
                              const char* source) const {
#if S3_VIEW_CHECKS
    return ArenaView(view, stamp_.cell(), source);
#else
    (void)source;
    return view;
#endif
  }

  std::string arena_;
  std::vector<Entry> entries_;
  bool sorted_ = false;
#if S3_VIEW_CHECKS
  // Declared last: destroyed first, so a stale view dereferenced after the
  // batch dies fails the generation compare before the arena is freed.
  // ArenaStamp's copy/move semantics bump the right cells when batches are
  // copied, moved (vector growth in shuffle buckets / pool shards), or
  // overwritten — see common/view_checks.h.
  ArenaStamp stamp_;
#endif
};

}  // namespace s3::engine
