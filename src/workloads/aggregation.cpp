#include "workloads/aggregation.h"

#include <charconv>

#include "common/status.h"
#include "dfs/reader.h"
#include "workloads/tpch.h"

namespace s3::workloads {

void AvgPriceMapper::map(const dfs::Record& record, engine::Emitter& out) {
  if (record.data.empty()) return;
  const dfs::RecordFields fields = dfs::fields_of(record, fields_);
  if (fields.size() < static_cast<std::size_t>(tpch::kNumColumns)) return;
  // Key: l_returnflag; value: "price|1".
  value_buf_.assign(fields[tpch::kExtendedPrice]);
  value_buf_ += "|1";
  out.emit(fields[tpch::kReturnFlag], value_buf_);
}

std::pair<double, std::uint64_t> parse_pair(std::string_view value) {
  const auto sep = value.find('|');
  S3_CHECK_MSG(sep != std::string_view::npos, "malformed pair: " << value);
  double sum = 0.0;
  const auto [sp, sec] = std::from_chars(value.data(), value.data() + sep, sum);
  S3_CHECK_MSG(sec == std::errc{} && sp == value.data() + sep,
               "malformed sum: " << value);
  std::uint64_t count = 0;
  const auto* begin = value.data() + sep + 1;
  const auto* end = value.data() + value.size();
  const auto [p, ec] = std::from_chars(begin, end, count);
  S3_CHECK_MSG(ec == std::errc{} && p == end, "malformed count: " << value);
  return {sum, count};
}

void PairSumReducer::reduce(std::string_view key,
                            const std::vector<std::string_view>& values,
                            engine::Emitter& out) {
  double sum = 0.0;
  std::uint64_t count = 0;
  for (const auto v : values) {
    const auto [s, c] = parse_pair(v);
    sum += s;
    count += c;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.2f|%llu", sum,
                static_cast<unsigned long long>(count));
  out.emit(key, buf);
}

std::map<std::string, Average> extract_averages(
    const engine::JobResult& result) {
  std::map<std::string, Average> out;
  for (const auto& kv : result.output) {
    const auto [sum, count] = parse_pair(kv.value);
    Average& avg = out[kv.key];
    avg.sum += sum;
    avg.count += count;
  }
  return out;
}

engine::JobSpec make_avg_price_job(JobId id, FileId input,
                                   std::uint32_t reduce_tasks) {
  engine::JobSpec spec;
  spec.id = id;
  spec.name = "avg-price-by-returnflag";
  spec.input = input;
  spec.mapper_factory = [] { return std::make_unique<AvgPriceMapper>(); };
  spec.reducer_factory = [] { return std::make_unique<PairSumReducer>(); };
  spec.combiner_factory = [] { return std::make_unique<PairSumReducer>(); };
  spec.num_reduce_tasks = reduce_tasks;
  return spec;
}

}  // namespace s3::workloads
