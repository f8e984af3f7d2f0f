#include "dfs/reader.h"

#include <utility>

#include "common/status.h"

namespace s3::dfs {
namespace {

// The separator of the TPC-H text format's fields.
constexpr char kFieldSeparator = '|';

}  // namespace

LineRecordReader::LineRecordReader(Payload payload)
    : payload_(std::move(payload)) {
  S3_CHECK(payload_ != nullptr);
  remaining_ = *payload_;
}

bool LineRecordReader::next(Record& record) {
  if (remaining_.empty()) return false;
  const std::size_t nl = remaining_.find('\n');
  std::string_view line;
  std::size_t consumed;
  if (nl == std::string_view::npos) {
    line = remaining_;
    consumed = remaining_.size();
  } else {
    line = remaining_.substr(0, nl);
    consumed = nl + 1;
  }
  record.offset = offset_;
  record.data = line;
  offset_ += consumed;
  remaining_.remove_prefix(consumed);
  ++records_read_;
  return true;
}

void LineRecordReader::reset() {
  remaining_ = *payload_;
  offset_ = 0;
  records_read_ = 0;
}

void ChunkSplit::reset(RecordChunk chunk) {
  chunk_ = chunk;
  words_.built = false;
  fields_.built = false;
}

void ChunkSplit::append_words(std::string_view record,
                              std::vector<RecordSlice>& out) {
  const char* const start = record.data();
  for_each_word(record, [&](std::string_view word) {
    out.push_back(RecordSlice{static_cast<std::size_t>(word.data() - start),
                              word.size()});
  });
}

void ChunkSplit::append_fields(std::string_view record,
                               std::vector<RecordSlice>& out) {
  std::size_t start = 0;
  for (std::size_t sep = record.find(kFieldSeparator);
       sep != std::string_view::npos;
       sep = record.find(kFieldSeparator, start)) {
    out.push_back(RecordSlice{start, sep - start});
    start = sep + 1;
  }
  out.push_back(RecordSlice{start, record.size() - start});
}

void ChunkSplit::Table::build(
    RecordChunk chunk,
    void (*append)(std::string_view, std::vector<RecordSlice>&)) {
  slices.clear();
  bounds.clear();
  bounds.push_back(0);
  for (const Record& record : chunk) {
    append(record.data, slices);
    bounds.push_back(slices.size());
  }
  built = true;
}

SharedScanReader::SharedScanReader(Payload payload)
    : payload_(std::move(payload)) {
  S3_CHECK(payload_ != nullptr);
}

void SharedScanReader::add_consumer(ChunkConsumer consumer) {
  S3_CHECK(consumer != nullptr);
  consumers_.push_back(std::move(consumer));
}

std::uint64_t SharedScanReader::scan() {
  LineRecordReader reader(payload_);
  // A lone consumer's records carry no table: splitting into a table only
  // to read it back once would cost more than splitting in place.
  ChunkSplit shared_split;
  ChunkSplit* const split = consumers_.size() >= 2 ? &shared_split : nullptr;
  std::vector<Record> chunk;
  const auto deliver = [&] {
    if (split != nullptr) split->reset(chunk);
    for (auto& consumer : consumers_) consumer(chunk);
    chunk.clear();
  };
  Record record;
  while (reader.next(record)) {
    record.split = split;
    record.index = chunk.size();
    chunk.push_back(record);
    // The record's end, counting its newline (one past the payload for an
    // unterminated last record, which closes the chunk anyway).
    const std::uint64_t end = record.offset + record.data.size() + 1;
    if (end - chunk.front().offset >= kScanChunkBytes) deliver();
  }
  if (!chunk.empty()) deliver();
  bytes_physical_ += payload_->size();
  bytes_logical_ += payload_->size() * consumers_.size();
  return reader.records_read();
}

}  // namespace s3::dfs
