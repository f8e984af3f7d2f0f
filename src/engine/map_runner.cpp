#include "engine/map_runner.h"

#include <memory>

#include "dfs/reader.h"
#include "obs/clock.h"
#include "obs/registry.h"
#include "obs/trace.h"

namespace s3::engine {
namespace {

// Buffers map output task-locally as one flat KVBatch per partition, applies
// the optional combiner, and publishes every partition with one registry
// resolve. Counters are task-local and read out once at publish time.
class PartitionedEmitter final : public Emitter {
 public:
  // `arenas` may be null (standalone runners, tests); with a pool, buffers
  // are recycled arenas from `shard` — the executing worker's shard, so the
  // pages a previous task on this worker faulted in get reused in place.
  PartitionedEmitter(std::uint32_t partitions, BatchArenaPool* arenas,
                     std::size_t shard)
      : arenas_(arenas), shard_(shard) {
    buffers_.reserve(partitions);
    for (std::uint32_t p = 0; p < partitions; ++p) {
      buffers_.push_back(arenas_ != nullptr ? arenas_->acquire(shard_)
                                            : KVBatch{});
    }
  }

  void emit(std::string_view key, std::string_view value) override {
    ++records_;
    bytes_ += key.size() + value.size();
    const std::uint32_t p =
        partition_for_key(key, static_cast<std::uint32_t>(buffers_.size()));
    buffers_[p].append(key, value);
  }

  [[nodiscard]] std::uint64_t records() const { return records_; }
  [[nodiscard]] std::uint64_t bytes() const { return bytes_; }

  // Runs the combiner over each partition buffer in place; returns the
  // post-combine record count. The flat path groups by hashing (O(n) probes
  // over the arena); the legacy path is the original owned-string sort.
  std::uint64_t combine(Reducer& combiner, DataPath data_path) {
    std::uint64_t out_records = 0;
    for (auto& buffer : buffers_) {
      KVBatch combined =
          arenas_ != nullptr ? arenas_->acquire(shard_) : KVBatch{};
      combined.reserve(buffer.size() / 2 + 1, buffer.payload_bytes() / 2 + 1);
      // Collect combiner output through a lightweight inline emitter.
      class CollectEmitter final : public Emitter {
       public:
        explicit CollectEmitter(KVBatch& out) : out_(&out) {}
        void emit(std::string_view key, std::string_view value) override {
          out_->append(key, value);
        }

       private:
        KVBatch* out_;
      } collect(combined);
      if (data_path == DataPath::kFlatBatch) {
        hash_group(buffer,
                   [&](std::string_view key,
                       const std::vector<std::string_view>& values) {
                     combiner.reduce(key, values, collect);
                   });
      } else {
        std::vector<KeyValue> owned;
        owned.reserve(buffer.size());
        for (std::size_t i = 0; i < buffer.size(); ++i) {
          owned.push_back(KeyValue{std::string(buffer.key(i)),
                                   std::string(buffer.value(i))});
        }
        std::vector<std::string_view> value_views;
        sort_and_group(std::move(owned),
                       [&](const std::string& key,
                           const std::vector<std::string>& values) {
                         value_views.assign(values.begin(), values.end());
                         combiner.reduce(key, value_views, collect);
                       });
      }
      KVBatch consumed = std::move(buffer);
      buffer = std::move(combined);
      out_records += buffer.size();
      // The pre-combine buffer's arena goes back to this worker's shard.
      if (arenas_ != nullptr) arenas_->release(shard_, std::move(consumed));
    }
    return out_records;
  }

  void publish(ShuffleStore& shuffle, JobId job, DataPath data_path) {
    if (data_path == DataPath::kFlatBatch) {
      // Sorted-run shuffle: each partition buffer becomes one sorted run, so
      // the reduce side k-way merges instead of sorting from scratch.
      for (KVBatch& buffer : buffers_) buffer.sort_by_key();
    }
    shuffle.publish(job, std::move(buffers_));
    buffers_.clear();
  }

 private:
  std::vector<KVBatch> buffers_;
  BatchArenaPool* arenas_;
  std::size_t shard_;
  std::uint64_t records_ = 0;
  std::uint64_t bytes_ = 0;
};

}  // namespace

MapRunner::MapRunner(const dfs::BlockSource& source, ShuffleStore& shuffle,
                     DataPath data_path)
    : source_(&source), shuffle_(&shuffle), data_path_(data_path) {}

StatusOr<MapTaskOutcome> MapRunner::run(const MapTaskSpec& task) const {
  if (task.jobs.empty()) {
    return Status::invalid_argument("map task with no member jobs");
  }
  static auto& tasks_run = obs::Registry::instance().counter("engine.map_tasks");
  static auto& task_ns =
      obs::Registry::instance().histogram("engine.map_task_ns");
  const std::uint64_t run_start_ns = obs::now_ns();
  S3_TRACE_SPAN_NAMED(span, "engine", "map_task");
  span.arg("task", task.id.value())
      .arg("block", task.block.value())
      .arg("jobs", task.jobs.size());

  auto payload_or = source_->fetch(task.block);
  if (!payload_or.is_ok()) return payload_or.status();
  const dfs::Payload payload = std::move(payload_or).value();

  MapTaskOutcome outcome;

  // Arena shard of the executing worker (resolved at run time, not dispatch
  // time: a stolen task must use the thief's shard, not the victim's).
  std::size_t shard = shard_offset_;
  if (pool_ != nullptr) {
    const int worker = pool_->current_worker_index();
    if (worker >= 0) shard += static_cast<std::size_t>(worker);
  }

  // One mapper + emitter per member job; a single physical pass drives all.
  struct Member {
    const JobSpec* spec;
    std::unique_ptr<Mapper> mapper;
    std::unique_ptr<PartitionedEmitter> emitter;
  };
  std::vector<Member> members;
  members.reserve(task.jobs.size());
  for (const JobSpec* spec : task.jobs) {
    S3_CHECK(spec != nullptr && spec->valid());
    members.push_back(Member{spec, spec->mapper_factory(),
                             std::make_unique<PartitionedEmitter>(
                                 spec->num_reduce_tasks, arenas_, shard)});
  }

  // Member-major per chunk: one member's mapper runs over the whole chunk,
  // so only that member's partition buffers are appended to at a time.
  dfs::SharedScanReader reader(payload);
  for (auto& member : members) {
    reader.add_consumer([&member](dfs::RecordChunk chunk) {
      for (const dfs::Record& record : chunk) {
        member.mapper->map(record, *member.emitter);
      }
    });
  }
  const std::uint64_t records = reader.scan();

  outcome.scan.blocks_physical += 1;
  outcome.scan.bytes_physical += payload->size();
  outcome.scan.blocks_logical += task.jobs.size();
  outcome.scan.bytes_logical += payload->size() * task.jobs.size();

  for (auto& member : members) {
    member.mapper->finish(*member.emitter);

    JobCounters& counters = outcome.per_job[member.spec->id];
    counters.map_input_records += records;
    counters.map_input_bytes += payload->size();
    counters.map_output_records += member.emitter->records();
    counters.map_output_bytes += member.emitter->bytes();
    counters.map_tasks += 1;
    counters.blocks_scanned += 1;

    if (member.spec->combiner_factory != nullptr) {
      auto combiner = member.spec->combiner_factory();
      counters.combine_output_records +=
          member.emitter->combine(*combiner, data_path_);
    }
    member.emitter->publish(*shuffle_, member.spec->id, data_path_);
  }
  tasks_run.add();
  task_ns.observe(obs::now_ns() - run_start_ns);
  return outcome;
}

}  // namespace s3::engine
