// Record readers over block payloads. LineRecordReader iterates
// newline-delimited records without copying; SharedScanReader performs the
// S3/MRShare data-path primitive — one physical pass over a block feeding
// every registered consumer, one chunk of records at a time. When a scan has
// two or more consumers, it also shares each record's split into words:
// ChunkWords splits a chunk once, and for_each_word(Record) replays it to
// every consumer that asks.
#pragma once

#include <cstddef>
#include <functional>
#include <span>
#include <string_view>
#include <vector>

#include "common/contracts.h"
#include "common/types.h"
#include "dfs/block_store.h"
#include "dfs/tokenize.h"

namespace s3::dfs {

class ChunkWords;

struct Record {
  std::uint64_t offset = 0;   // byte offset of the record within the block
  std::string_view data;      // record bytes, excluding the trailing '\n'
  // The word split of the record's chunk, shared by every consumer of the
  // scan, and the record's index in that chunk. Only a SharedScanReader with
  // two or more consumers sets them; for_each_word splits a record without
  // a table on its own.
  ChunkWords* words = nullptr;
  std::size_t index = 0;
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

// The words of one chunk's records, split once for every consumer of a
// shared scan. The split is lazy: the first words_of() call splits every
// record of the chunk, so a chunk whose consumers never ask for words is
// never split, and later calls only read the table. The table keeps each
// word as its position in its record, not as a view, so it holds nothing
// into the payload. SharedScanReader rebinds it to each chunk and reuses
// its buffers, so after the first chunk splitting allocates nothing.
// Not thread-safe: a scan and its consumers run on one thread.
class ChunkWords {
 public:
  // A word: its byte offset in its record, and its length.
  struct Word {
    std::size_t offset = 0;
    std::size_t size = 0;
  };

  // Binds the table, unsplit, to `chunk`, which must stay alive until the
  // next reset. Invalidates every span words_of() returned before.
  void reset(RecordChunk chunk);

  // The words of record `index` of the chunk, in order.
  [[nodiscard]] std::span<const Word> words_of(std::size_t index) {
    if (!split_) split();
    S3_DCHECK(index + 1 < bounds_.size());
    return std::span<const Word>(words_).subspan(
        bounds_[index], bounds_[index + 1] - bounds_[index]);
  }

  [[nodiscard]] bool is_split() const { return split_; }

 private:
  void split();

  RecordChunk chunk_;
  std::vector<Word> words_;
  // Record i's words are words_[bounds_[i], bounds_[i + 1]).
  std::vector<std::size_t> bounds_;
  bool split_ = false;
};

// Calls fn with a view of each space-separated word of `record`, in order.
// A record that carries its chunk's shared split replays it; any other
// record is tokenized in place, exactly as for_each_word(record.data, fn).
template <typename Fn>
void for_each_word(const Record& record, Fn&& fn) {
  if (record.words == nullptr) {
    for_each_word(record.data, fn);
    return;
  }
  const char* const data = record.data.data();
  for (const ChunkWords::Word& word : record.words->words_of(record.index)) {
    fn(std::string_view(data + word.offset, word.size));
  }
}

// One scan, many consumers: the core I/O-sharing primitive. The scan is
// member-major within a chunk: each chunk goes to every consumer, in
// registration order, before the next chunk is split, so each consumer sees
// every record exactly once, in block order. With two or more consumers,
// every record of a chunk also points at the chunk's one ChunkWords, so the
// consumers share one word split; a single consumer's records carry no
// table and are split as before. Statistics distinguish bytes physically
// read (once) from bytes logically served (once per consumer), which is
// exactly the saving S3 exploits.
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
