#include "workloads/wordcount.h"

#include <charconv>

#include "common/status.h"
#include "dfs/reader.h"

namespace s3::workloads {
namespace {

std::int64_t parse_int(std::string_view s) {
  std::int64_t v = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  S3_CHECK_MSG(ec == std::errc{} && ptr == s.data() + s.size(),
               "non-numeric count value: '" << s << "'");
  return v;
}

}  // namespace

PatternWordCountMapper::PatternWordCountMapper(std::string prefix)
    : prefix_(std::move(prefix)) {}

void PatternWordCountMapper::map(const dfs::Record& record,
                                 engine::Emitter& out) {
  dfs::for_each_word(record, [&](std::string_view word) {
    if (word.size() >= prefix_.size() &&
        word.substr(0, prefix_.size()) == prefix_) {
      out.emit(word, "1");
    }
  });
}

HeavyWordCountMapper::HeavyWordCountMapper(int amplify) : amplify_(amplify) {
  S3_CHECK(amplify >= 1);
}

void HeavyWordCountMapper::map(const dfs::Record& record,
                               engine::Emitter& out) {
  dfs::for_each_word(record, [&](std::string_view word) {
    out.emit(word, "1");
    if (amplify_ <= 1) return;
    // Tagged duplicates create distinct keys, inflating reduce output the
    // way the paper's heavy workload does. The tag is built in a reused
    // buffer: only the digits after "word#" change per amplification step.
    tag_buf_.assign(word);
    tag_buf_.push_back('#');
    const std::size_t stem = tag_buf_.size();
    char digits[16];
    for (int a = 1; a < amplify_; ++a) {
      const auto [p, ec] = std::to_chars(digits, digits + sizeof(digits), a);
      S3_CHECK(ec == std::errc{});
      tag_buf_.resize(stem);
      tag_buf_.append(digits, p);
      out.emit(tag_buf_, "1");
    }
  });
}

void SumReducer::reduce(std::string_view key,
                        const std::vector<std::string_view>& values,
                        engine::Emitter& out) {
  std::int64_t sum = 0;
  for (const auto v : values) sum += parse_int(v);
  char digits[24];
  const auto [p, ec] = std::to_chars(digits, digits + sizeof(digits), sum);
  S3_CHECK(ec == std::errc{});
  out.emit(key, std::string_view(digits, static_cast<std::size_t>(p - digits)));
}

engine::JobSpec make_wordcount_job(JobId id, FileId input, std::string prefix,
                                   std::uint32_t reduce_tasks,
                                   bool with_combiner) {
  engine::JobSpec spec;
  spec.id = id;
  spec.name = "wordcount[" + prefix + "]";
  spec.input = input;
  spec.mapper_factory = [prefix = std::move(prefix)] {
    return std::make_unique<PatternWordCountMapper>(prefix);
  };
  spec.reducer_factory = [] { return std::make_unique<SumReducer>(); };
  if (with_combiner) {
    spec.combiner_factory = [] { return std::make_unique<SumReducer>(); };
  }
  spec.num_reduce_tasks = reduce_tasks;
  return spec;
}

engine::JobSpec make_heavy_wordcount_job(JobId id, FileId input, int amplify,
                                         std::uint32_t reduce_tasks) {
  engine::JobSpec spec;
  spec.id = id;
  spec.name = "wordcount-heavy[x" + std::to_string(amplify) + "]";
  spec.input = input;
  spec.mapper_factory = [amplify] {
    return std::make_unique<HeavyWordCountMapper>(amplify);
  };
  spec.reducer_factory = [] { return std::make_unique<SumReducer>(); };
  spec.combiner_factory = [] { return std::make_unique<SumReducer>(); };
  spec.num_reduce_tasks = reduce_tasks;
  return spec;
}

}  // namespace s3::workloads
