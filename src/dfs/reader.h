// Record readers over block payloads. LineRecordReader iterates
// newline-delimited records without copying; SharedScanReader performs the
// S3/MRShare data-path primitive — one physical pass over a block feeding
// every registered consumer, one chunk of records at a time. When a scan has
// two or more consumers, it also shares each record's splits: ChunkSplit
// splits a chunk once into words and once into '|'-separated fields, each on
// its first request, and for_each_word(Record) and fields_of(Record) replay
// those splits to every consumer that asks.
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

class ChunkSplit;

struct Record {
  std::uint64_t offset = 0;   // byte offset of the record within the block
  std::string_view data;      // record bytes, excluding the trailing '\n'
  // The split table of the record's chunk, shared by every consumer of the
  // scan, and the record's index in that chunk. Only a SharedScanReader with
  // two or more consumers sets them; for_each_word and fields_of split a
  // record without a table on their own.
  ChunkSplit* split = nullptr;
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

// A piece of a record, a word or a field: its byte offset in the record and
// its length. Split tables keep these positions rather than views, so they
// hold nothing into the payload.
struct RecordSlice {
  std::size_t offset = 0;
  std::size_t size = 0;
};

// The splits of one chunk's records, made once for every consumer of a
// shared scan: the words (for_each_word) and the '|'-separated fields
// (fields_of) of each record. Each split is lazy: the first request for it
// splits every record of the chunk, so a chunk whose consumers never ask for
// words (or fields) is never split that way, and later requests only read
// the table. SharedScanReader rebinds the tables to each chunk and reuses
// their buffers, so after the first chunk splitting allocates nothing.
// Not thread-safe: a scan and its consumers run on one thread.
class ChunkSplit {
 public:
  // Binds the tables, unsplit, to `chunk`, which must stay alive until the
  // next reset. Invalidates every span words_of() or fields_of() returned
  // before.
  void reset(RecordChunk chunk);

  // The words of record `index` of the chunk, in order.
  [[nodiscard]] std::span<const RecordSlice> words_of(std::size_t index) {
    if (!words_.built) words_.build(chunk_, &append_words);
    return words_.of(index);
  }

  // The fields of record `index` of the chunk, in order.
  [[nodiscard]] std::span<const RecordSlice> fields_of(std::size_t index) {
    if (!fields_.built) fields_.build(chunk_, &append_fields);
    return fields_.of(index);
  }

  [[nodiscard]] bool words_split() const { return words_.built; }
  [[nodiscard]] bool fields_split() const { return fields_.built; }

  // Appends the positions of the fields of `record` to `out`: n separators
  // give n + 1 fields, empty ones included. The one field-splitting loop,
  // for the table and for a record split in place alike.
  static void append_fields(std::string_view record,
                            std::vector<RecordSlice>& out);

 private:
  // Appends the positions of the words of `record` to `out`, as
  // for_each_word(record) finds them.
  static void append_words(std::string_view record,
                           std::vector<RecordSlice>& out);

  // One split of every record of the chunk: record i's slices are
  // slices[bounds[i], bounds[i + 1]).
  struct Table {
    std::vector<RecordSlice> slices;
    std::vector<std::size_t> bounds;
    bool built = false;

    void build(RecordChunk chunk,
               void (*append)(std::string_view, std::vector<RecordSlice>&));
    [[nodiscard]] std::span<const RecordSlice> of(std::size_t index) const {
      S3_DCHECK(index + 1 < bounds.size());
      return std::span<const RecordSlice>(slices).subspan(
          bounds[index], bounds[index + 1] - bounds[index]);
    }
  };

  RecordChunk chunk_;
  Table words_;
  Table fields_;
};

// Calls fn with a view of each space-separated word of `record`, in order.
// A record that carries its chunk's shared split replays it; any other
// record is tokenized in place, exactly as for_each_word(record.data, fn).
template <typename Fn>
void for_each_word(const Record& record, Fn&& fn) {
  if (record.split == nullptr) {
    for_each_word(record.data, fn);
    return;
  }
  const char* const data = record.data.data();
  for (const RecordSlice& word : record.split->words_of(record.index)) {
    fn(std::string_view(data + word.offset, word.size));
  }
}

// The '|'-separated fields of one record, as fields_of() returns them:
// field i is a view into the record's bytes. Valid while the record's
// payload lives and until the next fields_of() call with the same scratch,
// or the next chunk of the scan.
class RecordFields {
 public:
  RecordFields(std::string_view record, std::span<const RecordSlice> fields)
      : data_(record.data()), fields_(fields) {}

  [[nodiscard]] std::size_t size() const { return fields_.size(); }
  [[nodiscard]] std::string_view operator[](std::size_t i) const {
    S3_DCHECK(i < fields_.size());
    return std::string_view(data_ + fields_[i].offset, fields_[i].size);
  }

 private:
  const char* data_;
  std::span<const RecordSlice> fields_;
};

// A mapper's own buffer for fields_of(), reused from record to record.
using FieldScratch = std::vector<RecordSlice>;

// The fields of `record`. A record that carries its chunk's shared split
// reads that table; any other record is split in place into `scratch`. Once
// the scratch or the table has grown to a row's width, neither path
// allocates.
[[nodiscard]] inline RecordFields fields_of(const Record& record,
                                            FieldScratch& scratch) {
  if (record.split != nullptr) {
    return RecordFields(record.data, record.split->fields_of(record.index));
  }
  scratch.clear();
  ChunkSplit::append_fields(record.data, scratch);
  return RecordFields(record.data, scratch);
}

// One scan, many consumers: the core I/O-sharing primitive. The scan is
// member-major within a chunk: each chunk goes to every consumer, in
// registration order, before the next chunk is split, so each consumer sees
// every record exactly once, in block order. With two or more consumers,
// every record of a chunk also points at the chunk's one ChunkSplit, so the
// consumers share one word split and one field split; a single consumer's
// records carry no table and are split in place. Statistics distinguish
// bytes physically read (once) from bytes logically served (once per
// consumer), which is exactly the saving S3 exploits.
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

}  // namespace s3::dfs
