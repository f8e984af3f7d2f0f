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
  std::vector<Record> chunk;
  Record record;
  while (reader.next(record)) {
    chunk.push_back(record);
    // The record's end, counting its newline (one past the payload for an
    // unterminated last record, which closes the chunk anyway).
    const std::uint64_t end = record.offset + record.data.size() + 1;
    if (end - chunk.front().offset >= kScanChunkBytes) {
      for (auto& consumer : consumers_) consumer(chunk);
      chunk.clear();
    }
  }
  if (!chunk.empty()) {
    for (auto& consumer : consumers_) consumer(chunk);
  }
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
