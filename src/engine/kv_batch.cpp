#include "engine/kv_batch.h"

#include <algorithm>

namespace s3::engine {

void KVBatch::prefault(std::size_t records, std::size_t bytes) {
  // resize (not reserve) so every byte is written: value-initialization
  // faults every page in, and under first-touch placement the pages land on
  // the calling thread's node. reserve alone maps address space lazily and
  // the faults would bill to the timed phase instead.
  arena_.resize(bytes);
  arena_.clear();
  entries_.resize(records);
  entries_.clear();
  sorted_ = false;
#if S3_VIEW_CHECKS
  // resize may have reallocated, and the batch is logically reset either
  // way: outstanding views are invalid.
  stamp_.bump();
#endif
}

void KVBatch::sort_by_key() {
  const std::string_view arena(arena_);
  const auto key_less = [arena](const Entry& a, const Entry& b) {
    return arena.substr(a.offset, a.key_len) <
           arena.substr(b.offset, b.key_len);
  };
  // Records that already ascend (a reducer's output, emitted in merge
  // order) cost one pass and keep their entry order.
  if (!std::is_sorted(entries_.begin(), entries_.end(), key_less)) {
    std::stable_sort(entries_.begin(), entries_.end(), key_less);
  }
  sorted_ = true;
}

}  // namespace s3::engine
