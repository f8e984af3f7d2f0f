// Record readers over block payloads. LineRecordReader iterates
// newline-delimited records without copying; SharedScanReader performs the
// S3/MRShare data-path primitive — one physical pass over a block feeding
// every registered consumer, one chunk of records at a time.
#pragma once

#include <cstddef>
#include <functional>
#include <span>
#include <string_view>
#include <vector>

#include "common/types.h"
#include "dfs/block_store.h"

namespace s3::dfs {

struct Record {
  std::uint64_t offset = 0;   // byte offset of the record within the block
  std::string_view data;      // record bytes, excluding the trailing '\n'
};

class LineRecordReader {
 public:
  // The payload must outlive the reader (records view into it).
  explicit LineRecordReader(Payload payload);

  // Returns false at end of block; otherwise fills `record`.
  bool next(Record& record);

  void reset();

  [[nodiscard]] std::uint64_t records_read() const { return records_read_; }

 private:
  Payload payload_;
  std::string_view remaining_;
  std::uint64_t offset_ = 0;
  std::uint64_t records_read_ = 0;
};

// Bytes of block one SharedScanReader chunk spans: a chunk closes after the
// record that brings it to at least this many bytes, newlines included, so a
// record longer than this is a chunk of its own. Handing records to the
// members one at a time made a ten-member merged map task cost up to 1.4x
// its members' solo tasks, more the more partition buffers (members x
// partitions) were being appended to at once. Chunk sweep, traced scan+map
// on the dense heavy-wordcount workload: 3.3-3.6 s at 1 KiB; 2.0-2.8 s at
// 4 KiB, 16 KiB, 64 KiB and whole blocks. From 16 KiB up, the sparse
// prefix-wordcount workload lost 5-17%. 4 KiB, one page, is the smallest
// size that recovers the dense case (DESIGN.md §13).
inline constexpr std::size_t kScanChunkBytes = 4096;

// A run of consecutive whole records of one block, in block order.
using RecordChunk = std::span<const Record>;
using ChunkConsumer = std::function<void(RecordChunk)>;

// One scan, many consumers: the core I/O-sharing primitive. The scan is
// member-major within a chunk: each chunk goes to every consumer, in
// registration order, before the next chunk is split, so each consumer sees
// every record exactly once, in block order. Statistics distinguish bytes
// physically read (once) from bytes logically served (once per consumer),
// which is exactly the saving S3 exploits.
class SharedScanReader {
 public:
  explicit SharedScanReader(Payload payload);

  // Registers a consumer; must be called before scan().
  void add_consumer(ChunkConsumer consumer);

  // Performs the single pass, splitting the block into kScanChunkBytes
  // chunks and handing each to every consumer. A chunk's records view into
  // the payload; the span itself is valid only during the call. Returns the
  // number of records scanned.
  std::uint64_t scan();

  [[nodiscard]] std::size_t num_consumers() const { return consumers_.size(); }
  [[nodiscard]] std::uint64_t bytes_physical() const { return bytes_physical_; }
  [[nodiscard]] std::uint64_t bytes_logical() const { return bytes_logical_; }

 private:
  Payload payload_;
  std::vector<ChunkConsumer> consumers_;
  std::uint64_t bytes_physical_ = 0;
  std::uint64_t bytes_logical_ = 0;
};

// Splits a '|'-delimited row (TPC-H text format) into fields. Views into the
// input; no copies.
[[nodiscard]] std::vector<std::string_view> split_fields(std::string_view row,
                                                         char sep = '|');

}  // namespace s3::dfs
