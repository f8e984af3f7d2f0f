// Aggregation queries — the paper's §V-G extension. S3 executes a job as a
// sequence of sub-jobs, each producing partial results; "for certain
// applications, in particular aggregation queries, it is possible for
// subsequent phases of sub-jobs to exploit and utilize the results generated
// from earlier phases". The engine supports this through algebraic reducers
// plus incremental merging (LocalEngineOptions::incremental_merge); this
// header supplies a concrete aggregation workload:
//
//   SELECT l_returnflag, AVG(l_extendedprice), COUNT(*)
//   FROM lineitem GROUP BY l_returnflag;
//
// AVG is not algebraic over plain averages, so the reducer carries the
// classic (sum, count) pair, which folds associatively across sub-jobs; the
// final average is extracted after the job completes.
#pragma once

#include <map>
#include <string>

#include "dfs/reader.h"
#include "engine/job.h"
#include "engine/mapper.h"

namespace s3::workloads {

// Emits (l_returnflag, "price|1") per lineitem row.
class AvgPriceMapper final : public engine::Mapper {
 public:
  void map(const dfs::Record& record, engine::Emitter& out) override;

 private:
  // Reused field positions of a record split in place (dfs::fields_of).
  dfs::FieldScratch fields_;
  std::string value_buf_;  // reused "price|1" scratch across records
};

// Folds "sum|count" pairs: reduce({(s1,c1),(s2,c2)}) = (s1+s2, c1+c2).
// Algebraic, so it serves as combiner, per-sub-job reducer, and the final
// cross-sub-job merge (paper §V-G's refined partial aggregation).
class PairSumReducer final : public engine::Reducer {
 public:
  void reduce(std::string_view key,
              const std::vector<std::string_view>& values,
              engine::Emitter& out) override;
};

// Parses one "sum|count" value into (sum, count).
[[nodiscard]] std::pair<double, std::uint64_t> parse_pair(
    std::string_view value);

struct Average {
  double sum = 0.0;
  std::uint64_t count = 0;
  [[nodiscard]] double value() const {
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
  }
};

// Extracts final averages from a completed job's (sum|count) output.
[[nodiscard]] std::map<std::string, Average> extract_averages(
    const engine::JobResult& result);

[[nodiscard]] engine::JobSpec make_avg_price_job(JobId id, FileId input,
                                                 std::uint32_t reduce_tasks);

}  // namespace s3::workloads
