// The paper's wordcount workloads (§V-B): wordcount modified to count only
// words matching a user-specified pattern, so different patterns make
// different jobs over the same input. The heavy variant counts every word
// and amplifies its output, mirroring the paper's "10x map output, 200x
// reduce output" configuration. Both read a record's words through
// dfs::for_each_word(record), so the members of a merged map task share one
// split of each record (dfs/reader.h).
#pragma once

#include <string>

#include "engine/job.h"
#include "engine/mapper.h"

namespace s3::workloads {

// Matches words that start with `prefix` (empty prefix matches every word).
class PatternWordCountMapper final : public engine::Mapper {
 public:
  explicit PatternWordCountMapper(std::string prefix);
  void map(const dfs::Record& record, engine::Emitter& out) override;

 private:
  std::string prefix_;
};

// Heavy variant: counts every word and additionally emits `amplify` tagged
// duplicates per word, inflating map and reduce output volume.
class HeavyWordCountMapper final : public engine::Mapper {
 public:
  explicit HeavyWordCountMapper(int amplify = 2);
  void map(const dfs::Record& record, engine::Emitter& out) override;

 private:
  int amplify_;
  std::string tag_buf_;  // reused "word#N" scratch across records
};

// Sums integer values per key (also usable as a combiner — summation is
// algebraic, which S3's sub-job execution requires).
class SumReducer final : public engine::Reducer {
 public:
  void reduce(std::string_view key,
              const std::vector<std::string_view>& values,
              engine::Emitter& out) override;
};

// Builds a complete JobSpec for a pattern-wordcount job over `input`.
[[nodiscard]] engine::JobSpec make_wordcount_job(JobId id, FileId input,
                                                 std::string prefix,
                                                 std::uint32_t reduce_tasks,
                                                 bool with_combiner = true);

[[nodiscard]] engine::JobSpec make_heavy_wordcount_job(
    JobId id, FileId input, int amplify, std::uint32_t reduce_tasks);

}  // namespace s3::workloads
