#include "dfs/reader.h"

#include <utility>

#include "common/status.h"

namespace s3::dfs {

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

void ChunkWords::reset(RecordChunk chunk) {
  chunk_ = chunk;
  split_ = false;
}

void ChunkWords::split() {
  words_.clear();
  bounds_.clear();
  bounds_.push_back(0);
  for (const Record& record : chunk_) {
    const char* const start = record.data.data();
    for_each_word(record.data, [&](std::string_view word) {
      words_.push_back(
          Word{static_cast<std::size_t>(word.data() - start), word.size()});
    });
    bounds_.push_back(words_.size());
  }
  split_ = true;
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
  ChunkWords shared_words;
  ChunkWords* const words = consumers_.size() >= 2 ? &shared_words : nullptr;
  std::vector<Record> chunk;
  const auto deliver = [&] {
    if (words != nullptr) words->reset(chunk);
    for (auto& consumer : consumers_) consumer(chunk);
    chunk.clear();
  };
  Record record;
  while (reader.next(record)) {
    record.words = words;
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

std::vector<std::string_view> split_fields(std::string_view row, char sep) {
  std::vector<std::string_view> fields;
  std::size_t start = 0;
  while (start <= row.size()) {
    const std::size_t pos = row.find(sep, start);
    if (pos == std::string_view::npos) {
      fields.push_back(row.substr(start));
      break;
    }
    fields.push_back(row.substr(start, pos - start));
    start = pos + 1;
  }
  return fields;
}

}  // namespace s3::dfs
