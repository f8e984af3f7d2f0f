#include "dfs/block_store.h"

#include <sstream>

#include "common/crc32.h"
#include "obs/journal.h"
#include "obs/registry.h"

namespace s3::dfs {

Status BlockStore::put(BlockId block, std::string payload) {
  static auto& writes = obs::Registry::instance().counter("dfs.block_writes");
  static auto& bytes = obs::Registry::instance().counter("dfs.bytes_written");
  const std::uint32_t crc = crc32(payload);
  MutexLock lock(mu_);
  if (payloads_.count(block) > 0) {
    return Status::already_exists("block payload already written");
  }
  total_bytes_ += payload.size();
  writes.add();
  bytes.add(payload.size());
  payloads_.emplace(
      block,
      Stored{std::make_shared<const std::string>(std::move(payload)), crc});
  return Status::ok();
}

StatusOr<Payload> BlockStore::get(BlockId block) const {
  static auto& reads = obs::Registry::instance().counter("dfs.block_reads");
  static auto& bytes = obs::Registry::instance().counter("dfs.bytes_read");
  static auto& corrupt =
      obs::Registry::instance().counter("dfs.corrupt_reads");
  Payload payload;
  std::uint32_t expected = 0;
  {
    MutexLock lock(mu_);
    const auto it = payloads_.find(block);
    if (it == payloads_.end()) {
      return Status::not_found("no payload for block");
    }
    payload = it->second.payload;
    expected = it->second.crc;
  }
  // Verify outside the lock: the payload is immutable-by-contract, and the
  // CRC pass (slicing-by-8, ~1700 MiB/s per thread) is the only part of a
  // read that touches every byte.
  if (crc32(*payload) != expected) {
    corrupt.add();
    auto& journal = obs::EventJournal::instance();
    if (journal.observed()) {
      obs::JournalEvent event;
      event.type = obs::JournalEventType::kBlockCorrupt;
      event.detail = "block=" + std::to_string(block.value()) +
                     ",cause=checksum_mismatch";
      journal.record(std::move(event));
    }
    std::ostringstream os;
    os << "block " << block << ": payload failed CRC-32 verification";
    return Status::data_loss(os.str());
  }
  reads.add();
  bytes.add(payload->size());
  return payload;
}

StatusOr<std::uint32_t> BlockStore::checksum(BlockId block) const {
  MutexLock lock(mu_);
  const auto it = payloads_.find(block);
  if (it == payloads_.end()) return Status::not_found("no payload for block");
  return it->second.crc;
}

bool BlockStore::contains(BlockId block) const {
  MutexLock lock(mu_);
  return payloads_.count(block) > 0;
}

std::size_t BlockStore::num_blocks() const {
  MutexLock lock(mu_);
  return payloads_.size();
}

std::uint64_t BlockStore::total_bytes() const {
  MutexLock lock(mu_);
  return total_bytes_;
}

Status BlockStore::corrupt_payload_for_test(BlockId block) {
  MutexLock lock(mu_);
  const auto it = payloads_.find(block);
  if (it == payloads_.end()) return Status::not_found("no payload for block");
  if (it->second.payload->empty()) {
    return Status::failed_precondition("cannot corrupt an empty payload");
  }
  std::string mutated = *it->second.payload;
  mutated[mutated.size() / 2] =
      static_cast<char>(mutated[mutated.size() / 2] ^ 0x40);
  it->second.payload = std::make_shared<const std::string>(std::move(mutated));
  return Status::ok();
}

}  // namespace s3::dfs
