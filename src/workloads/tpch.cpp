#include "workloads/tpch.h"

#include <charconv>

namespace s3::workloads::tpch {
namespace {

constexpr const char* kShipInstructs[] = {"DELIVER IN PERSON", "COLLECT COD",
                                          "NONE", "TAKE BACK RETURN"};
constexpr const char* kShipModes[] = {"TRUCK", "MAIL",    "SHIP", "AIR",
                                      "FOB",   "REG AIR", "RAIL"};
constexpr const char* kComments[] = {
    "carefully final deposits",  "quickly ironic requests",
    "pending packages haggle",   "furiously bold accounts",
    "slyly regular instructions", "express pinto beans nag"};

std::string date(std::uint64_t days_since_1992) {
  // Bounded intermediates keep snprintf's worst case within buf (the compiler
  // checks the %u ranges under -Wformat-truncation).
  const unsigned year =
      static_cast<unsigned>(1992 + days_since_1992 / 365) % 10000u;
  const unsigned month = 1 + static_cast<unsigned>(days_since_1992 / 30) % 12;
  const unsigned day = 1 + static_cast<unsigned>(days_since_1992 % 28);
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%04u-%02u-%02u", year, month, day);
  return buf;
}

}  // namespace

LineitemGenerator::LineitemGenerator(std::uint64_t seed) : seed_(seed) {}

std::string LineitemGenerator::row(std::uint64_t row_index) const {
  std::uint64_t sm = seed_ ^ (row_index * 0xd1342543de82ef95ULL + 11);
  Rng rng(splitmix64(sm));

  const std::uint64_t orderkey = row_index / 4 + 1;
  const std::uint64_t linenumber = row_index % 4 + 1;
  const std::uint64_t partkey = rng.uniform_u64(200000) + 1;
  const std::uint64_t suppkey = rng.uniform_u64(10000) + 1;
  const std::int64_t quantity = rng.uniform_int(1, 50);
  const double price = static_cast<double>(quantity) *
                       (900.0 + rng.uniform(0.0, 200.0));
  const double discount = 0.01 * static_cast<double>(rng.uniform_int(0, 10));
  const double tax = 0.01 * static_cast<double>(rng.uniform_int(0, 8));
  const char returnflag = "RAN"[rng.uniform_u64(3)];
  const char linestatus = "OF"[rng.uniform_u64(2)];
  const std::uint64_t ship = rng.uniform_u64(2400);

  std::string out;
  out.reserve(160);
  char num[40];
  const auto append_u64 = [&](std::uint64_t v) {
    const auto [p, ec] = std::to_chars(num, num + sizeof(num), v);
    out.append(num, p);
    out.push_back('|');
  };
  append_u64(orderkey);
  append_u64(partkey);
  append_u64(suppkey);
  append_u64(linenumber);
  append_u64(static_cast<std::uint64_t>(quantity));
  std::snprintf(num, sizeof(num), "%.2f|%.2f|%.2f|", price, discount, tax);
  out += num;
  out.push_back(returnflag);
  out.push_back('|');
  out.push_back(linestatus);
  out.push_back('|');
  out += date(ship) + '|';
  out += date(ship + 30) + '|';
  out += date(ship + 60) + '|';
  out += kShipInstructs[rng.uniform_u64(std::size(kShipInstructs))];
  out.push_back('|');
  out += kShipModes[rng.uniform_u64(std::size(kShipModes))];
  out.push_back('|');
  out += kComments[rng.uniform_u64(std::size(kComments))];
  return out;
}

std::string LineitemGenerator::generate_block(std::uint64_t block_index,
                                              ByteSize bytes) const {
  S3_CHECK(bytes.count() > 0);
  // Rows average ~140 bytes; give each block a disjoint row-index range.
  const std::uint64_t rows_per_block = bytes.count() / 100 + 1;
  std::uint64_t row_index = block_index * rows_per_block;
  std::string out;
  out.reserve(bytes.count() + 256);
  while (true) {
    std::string r = row(row_index++);
    r.push_back('\n');
    if (out.size() + r.size() > bytes.count() && !out.empty()) break;
    out += r;
    if (out.size() >= bytes.count()) break;
  }
  return out;
}

StatusOr<FileId> LineitemGenerator::generate_file(
    dfs::DfsNamespace& ns, dfs::BlockStore& store,
    dfs::PlacementPolicy& placement, const std::string& name,
    std::uint64_t num_blocks, ByteSize block_size, int replication) const {
  if (num_blocks == 0) return Status::invalid_argument("need >= 1 block");
  auto file_or = ns.create_file(name, block_size);
  if (!file_or.is_ok()) return file_or.status();
  const FileId file = file_or.value();
  for (std::uint64_t b = 0; b < num_blocks; ++b) {
    std::string payload = generate_block(b, block_size);
    auto block_or = ns.append_block(file, ByteSize(payload.size()));
    if (!block_or.is_ok()) return block_or.status();
    S3_RETURN_IF_ERROR(
        ns.set_replicas(block_or.value(), placement.place(b, replication)));
    S3_RETURN_IF_ERROR(store.put(block_or.value(), std::move(payload)));
  }
  return file;
}

SelectionMapper::SelectionMapper(int max_quantity)
    : max_quantity_(max_quantity) {
  S3_CHECK(max_quantity >= 1 && max_quantity <= 50);
}

void SelectionMapper::map(const dfs::Record& record, engine::Emitter& out) {
  if (record.data.empty()) return;
  const dfs::RecordFields fields = dfs::fields_of(record, fields_);
  if (fields.size() < static_cast<std::size_t>(kNumColumns)) return;  // skip malformed
  int quantity = 0;
  const auto q = fields[kQuantity];
  const auto [p, ec] = std::from_chars(q.data(), q.data() + q.size(), quantity);
  if (ec != std::errc{} || p != q.data() + q.size()) return;
  if (quantity > max_quantity_) return;
  key_buf_.assign(fields[kOrderKey]);
  key_buf_.push_back(':');
  key_buf_.append(fields[kLineNumber]);
  value_buf_.assign(fields[kQuantity]);
  value_buf_.push_back('|');
  value_buf_.append(fields[kExtendedPrice]);
  out.emit(key_buf_, value_buf_);
}

void IdentityReducer::reduce(std::string_view key,
                             const std::vector<std::string_view>& values,
                             engine::Emitter& out) {
  for (const auto v : values) out.emit(key, v);
}

engine::JobSpec make_selection_job(JobId id, FileId input, int max_quantity,
                                   std::uint32_t reduce_tasks) {
  engine::JobSpec spec;
  spec.id = id;
  spec.name = "selection[q<=" + std::to_string(max_quantity) + "]";
  spec.input = input;
  spec.mapper_factory = [max_quantity] {
    return std::make_unique<SelectionMapper>(max_quantity);
  };
  spec.reducer_factory = [] { return std::make_unique<IdentityReducer>(); };
  spec.num_reduce_tasks = reduce_tasks;
  return spec;
}

}  // namespace s3::workloads::tpch
