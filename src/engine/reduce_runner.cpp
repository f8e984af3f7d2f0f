#include "engine/reduce_runner.h"

#include <algorithm>
#include <memory>

#include "obs/clock.h"
#include "obs/registry.h"
#include "obs/trace.h"

namespace s3::engine {
namespace {

// Appends reducer output to one run. A reducer called in merge order emits
// ascending keys, so sealing the run with sort_by_key() is one pass unless
// the reducer emitted out of order.
class RunEmitter final : public Emitter {
 public:
  explicit RunEmitter(KVBatch& out) : out_(&out) {}
  void emit(std::string_view key, std::string_view value) override {
    out_->append(key, value);
  }

 private:
  KVBatch* out_;
};

// Runs a fresh reducer over the k-way merge of `runs` into `out`; returns
// the group count.
std::uint64_t reduce_merged(const JobSpec& job,
                            const std::vector<KVBatch>& runs, KVBatch& out) {
  auto reducer = job.reducer_factory();
  RunEmitter emit(out);
  const std::uint64_t groups = merge_runs_and_group(
      runs, [&](std::string_view key,
                const std::vector<std::string_view>& values) {
        reducer->reduce(key, values, emit);
      });
  out.sort_by_key();
  return groups;
}

}  // namespace

KVBatch fold_runs(const JobSpec& job, const std::vector<KVBatch>& runs) {
  // An algebraic reducer keeps every key of the largest run, so that run's
  // size is a lower bound on the fold's output.
  std::size_t records = 0;
  std::size_t bytes = 0;
  for (const KVBatch& run : runs) {
    records = std::max(records, run.size());
    bytes = std::max<std::size_t>(bytes, run.payload_bytes());
  }
  KVBatch folded;
  folded.reserve(records, bytes);
  (void)reduce_merged(job, runs, folded);
  return folded;
}

ReduceRunner::ReduceRunner(ShuffleStore& shuffle, DataPath data_path)
    : shuffle_(&shuffle), data_path_(data_path) {}

StatusOr<ReduceTaskOutcome> ReduceRunner::run(const ReduceTaskSpec& task) const {
  if (task.job == nullptr || !task.job->valid()) {
    return Status::invalid_argument("reduce task without a valid job");
  }
  if (task.partition >= task.job->num_reduce_tasks) {
    return Status::out_of_range("partition beyond job's reduce task count");
  }

  static auto& tasks_run =
      obs::Registry::instance().counter("engine.reduce_tasks");
  static auto& task_ns =
      obs::Registry::instance().histogram("engine.reduce_task_ns");
  const std::uint64_t run_start_ns = obs::now_ns();
  S3_TRACE_SPAN_NAMED(span, "engine", "reduce_task");
  span.arg("task", task.id.value())
      .arg("job", task.job->id.value())
      .arg("partition", task.partition);

  std::vector<KVBatch> runs = shuffle_->take(task.job->id, task.partition);
  ReduceTaskOutcome outcome;
  outcome.counters.reduce_tasks = 1;

  if (data_path_ == DataPath::kFlatBatch) {
    // Map tasks published sorted runs; grouping is a k-way merge.
    S3_TRACE_SPAN_NAMED(merge_span, "engine", "shuffle_merge");
    merge_span.arg("runs", runs.size());
    outcome.counters.reduce_input_groups =
        reduce_merged(*task.job, runs, outcome.output);
  } else {
    // Legacy oracle: flatten to owned records and globally sort from scratch.
    S3_TRACE_SPAN("engine", "shuffle_sort");
    std::vector<KeyValue> records;
    for (const KVBatch& run : runs) {
      for (std::size_t i = 0; i < run.size(); ++i) {
        records.push_back(
            KeyValue{std::string(run.key(i)), std::string(run.value(i))});
      }
    }
    auto reducer = task.job->reducer_factory();
    RunEmitter emit(outcome.output);
    std::vector<std::string_view> value_views;
    outcome.counters.reduce_input_groups = sort_and_group(
        std::move(records),
        [&](const std::string& key, const std::vector<std::string>& values) {
          value_views.assign(values.begin(), values.end());
          reducer->reduce(key, value_views, emit);
        });
    outcome.output.sort_by_key();
  }
  outcome.counters.reduce_output_records = outcome.output.size();
  outcome.counters.reduce_output_bytes = outcome.output.payload_bytes();
  if (arenas_ != nullptr) {
    std::size_t shard = shard_offset_;
    if (pool_ != nullptr) {
      const int worker = pool_->current_worker_index();
      if (worker >= 0) shard += static_cast<std::size_t>(worker);
    }
    for (KVBatch& run : runs) arenas_->release(shard, std::move(run));
  }
  tasks_run.add();
  task_ns.observe(obs::now_ns() - run_start_ns);
  return outcome;
}

}  // namespace s3::engine
