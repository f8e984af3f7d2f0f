#include "probes.h"

#include <algorithm>
#include <chrono>
#include <limits>

namespace e2e {
namespace {

using namespace s3;

constexpr double kInf = std::numeric_limits<double>::infinity();

std::atomic<std::uint64_t> next_probe_id{1};

}  // namespace

double wall_now() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch)
      .count();
}

// One worker's (or the driver's) stamps. A map task runs on one thread from
// its fetch to its last mapper's destruction:
//   fetch, create mappers, scan,
//   per member: finish(), [combine], publish,
//   destroy mappers
// so `mark` (end of the previous step) is enough to split it.
struct LayerProbe::Slot {
  bool driver = false;
  WorkerTotals totals;
  double task_start = 0.0;
  double scan_start = 0.0;
  double mark = 0.0;
  int live_mappers = 0;
  bool finished_any = false;
  bool teardown = false;
  double map_first = kInf;
  double map_last = -kInf;
  double reduce_first = kInf;
  double reduce_last = -kInf;
};

namespace {

class ProbedMapper final : public engine::Mapper {
 public:
  ProbedMapper(std::unique_ptr<engine::Mapper> inner, LayerProbe::Slot& slot)
      : inner_(std::move(inner)), slot_(&slot) {
    ++slot_->live_mappers;
  }
  ProbedMapper(const ProbedMapper&) = delete;
  ProbedMapper& operator=(const ProbedMapper&) = delete;

  ~ProbedMapper() override {
    LayerProbe::Slot& s = *slot_;
    if (!s.teardown) {
      // The first mapper destroyed ends the last member's publish.
      s.totals.publish_s += wall_now() - s.mark;
      s.teardown = true;
    }
    inner_.reset();
    if (--s.live_mappers == 0) {
      const double end = wall_now();
      s.totals.map_task_busy_s += end - s.task_start;
      s.map_last = std::max(s.map_last, end);
      s.teardown = false;
      s.finished_any = false;
    }
  }

  void map(const dfs::Record& record, engine::Emitter& out) override {
    inner_->map(record, out);
  }

  void finish(engine::Emitter& out) override {
    LayerProbe::Slot& s = *slot_;
    const double start = wall_now();
    if (s.finished_any) {
      s.totals.publish_s += start - s.mark;
    } else {
      s.totals.scan_map_s += start - s.scan_start;
      s.finished_any = true;
    }
    inner_->finish(out);
    s.mark = wall_now();
    s.totals.scan_map_s += s.mark - start;
  }

 private:
  std::unique_ptr<engine::Mapper> inner_;
  LayerProbe::Slot* slot_;
};

class ProbedReducer final : public engine::Reducer {
 public:
  enum class Role { kCombiner, kReduceTask, kRereduce };

  ProbedReducer(std::unique_ptr<engine::Reducer> inner, LayerProbe::Slot& slot,
                Role role, double created)
      : inner_(std::move(inner)), slot_(&slot), role_(role),
        created_(created) {}
  ProbedReducer(const ProbedReducer&) = delete;
  ProbedReducer& operator=(const ProbedReducer&) = delete;

  ~ProbedReducer() override {
    inner_.reset();
    LayerProbe::Slot& s = *slot_;
    const double end = wall_now();
    switch (role_) {
      case Role::kCombiner:
        s.totals.combine_s += end - s.mark;
        s.mark = end;
        break;
      case Role::kReduceTask:
        s.totals.reduce_task_busy_s += end - created_;
        s.reduce_last = std::max(s.reduce_last, end);
        break;
      case Role::kRereduce:
        s.totals.rereduce_s += end - created_;
        break;
    }
  }

  void reduce(std::string_view key, const std::vector<std::string_view>& values,
              engine::Emitter& out) override {
    inner_->reduce(key, values, out);
  }

 private:
  std::unique_ptr<engine::Reducer> inner_;
  LayerProbe::Slot* slot_;
  Role role_;
  double created_;
};

}  // namespace

LayerProbe::LayerProbe(std::thread::id driver)
    : id_(next_probe_id.fetch_add(1)), driver_(driver) {}

LayerProbe::~LayerProbe() = default;

LayerProbe::Slot& LayerProbe::slot() {
  thread_local std::uint64_t owner = 0;
  thread_local Slot* cached = nullptr;
  if (owner != id_) {
    auto fresh = std::make_unique<Slot>();
    fresh->driver = std::this_thread::get_id() == driver_;
    cached = fresh.get();
    owner = id_;
    std::lock_guard<std::mutex> lock(mu_);
    slots_.push_back(std::move(fresh));
  }
  return *cached;
}

void LayerProbe::on_fetch(double start, double end, std::size_t bytes) {
  Slot& s = slot();
  s.totals.fetch_s += end - start;
  s.totals.fetch_bytes += static_cast<double>(bytes);
  s.totals.fetches += 1;
  s.task_start = start;
}

engine::JobSpec LayerProbe::wrap(engine::JobSpec spec) {
  spec.mapper_factory = [this, inner = std::move(spec.mapper_factory)]()
      -> std::unique_ptr<engine::Mapper> {
    const double created = wall_now();
    Slot& s = slot();
    if (s.live_mappers == 0) {
      s.scan_start = created;
      s.map_first = std::min({s.map_first, s.task_start, created});
    }
    return std::make_unique<ProbedMapper>(inner(), s);
  };
  if (spec.combiner_factory != nullptr) {
    spec.combiner_factory = [this, inner = std::move(spec.combiner_factory)]()
        -> std::unique_ptr<engine::Reducer> {
      return std::make_unique<ProbedReducer>(
          inner(), slot(), ProbedReducer::Role::kCombiner, wall_now());
    };
  }
  spec.reducer_factory = [this, inner = std::move(spec.reducer_factory)]()
      -> std::unique_ptr<engine::Reducer> {
    const double created = wall_now();
    Slot& s = slot();
    if (!s.driver) s.reduce_first = std::min(s.reduce_first, created);
    return std::make_unique<ProbedReducer>(
        inner(), s,
        s.driver ? ProbedReducer::Role::kRereduce
                 : ProbedReducer::Role::kReduceTask,
        created);
  };
  return spec;
}

void LayerProbe::begin_batch() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& s : slots_) {
    s->map_first = kInf;
    s->map_last = -kInf;
    s->reduce_first = kInf;
    s->reduce_last = -kInf;
  }
}

LayerProbe::Waves LayerProbe::end_batch() {
  double map_first = kInf;
  double map_last = -kInf;
  double reduce_first = kInf;
  double reduce_last = -kInf;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& s : slots_) {
      map_first = std::min(map_first, s->map_first);
      map_last = std::max(map_last, s->map_last);
      reduce_first = std::min(reduce_first, s->reduce_first);
      reduce_last = std::max(reduce_last, s->reduce_last);
    }
  }
  Waves waves;
  if (map_last > map_first) waves.map_s = map_last - map_first;
  if (reduce_last > reduce_first) waves.reduce_s = reduce_last - reduce_first;
  return waves;
}

WorkerTotals LayerProbe::totals() const {
  WorkerTotals sum;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& s : slots_) {
    const WorkerTotals& t = s->totals;
    sum.fetch_s += t.fetch_s;
    sum.fetch_bytes += t.fetch_bytes;
    sum.fetches += t.fetches;
    sum.scan_map_s += t.scan_map_s;
    sum.combine_s += t.combine_s;
    sum.publish_s += t.publish_s;
    sum.map_task_busy_s += t.map_task_busy_s;
    sum.reduce_task_busy_s += t.reduce_task_busy_s;
    sum.rereduce_s += t.rereduce_s;
  }
  return sum;
}

void LayerProbe::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& s : slots_) {
    const bool driver = s->driver;
    *s = Slot{};
    s->driver = driver;
  }
}

StatusOr<dfs::Payload> ProbedBlockSource::fetch(BlockId block) const {
  if (!probe_->enabled()) return inner_->fetch(block);
  const double start = wall_now();
  StatusOr<dfs::Payload> payload = inner_->fetch(block);
  const double end = wall_now();
  probe_->on_fetch(start, end, payload.is_ok() ? payload.value()->size() : 0);
  return payload;
}

void TimedScheduler::begin(double wall) {
  state_ = State{};
  state_.last_exit = wall;
}

void TimedScheduler::end(double wall) {
  State& st = state_;
  // A completion with no callback after it (never seen from RealDriver)
  // completes at the driver call's return.
  for (const JobId job : st.pending_done) {
    JobStamps& stamps = st.jobs[job];
    stamps.done_c = st.charged + (wall - st.clock_wall);
    stamps.done_wall = wall;
  }
  st.pending_done.clear();
}

void TimedScheduler::enter(std::optional<SimTime> now) const {
  State& st = state_;
  const double wall = wall_now();
  const double gap = wall - st.last_exit;
  Ledger& ledger = st.ledger;
  switch (st.phase) {
    case Phase::kRegister:
      ledger.register_s += gap;
      break;
    case Phase::kBatch:
      ledger.batch_s += gap;
      if (st.batch_open) {
        st.batch_open = false;
        if (probe_ != nullptr) {
          const LayerProbe::Waves waves = probe_->end_batch();
          ledger.map_wave_s += waves.map_s;
          ledger.reduce_wave_s += waves.reduce_s;
        }
      }
      break;
    case Phase::kFinalize:
      ledger.finalize_s += gap;
      break;
    case Phase::kIdle:
      ledger.idle_s += gap;
      break;
  }

  if (now.has_value()) {
    if (st.clock_started) {
      st.charged += std::max(wall - st.clock_wall, *now - st.clock_now);
    }
    st.clock_started = true;
    st.clock_wall = wall;
    st.clock_now = *now;
    // Arrivals are delivered just before a callback that carries the same
    // driver `now`; back-date each by how long ago it virtually happened.
    for (const auto& [job, arrival] : st.pending_arrivals) {
      st.jobs[job].arrival_c = st.charged - (*now - arrival);
    }
    st.pending_arrivals.clear();
  }
  st.charged_here =
      st.clock_started ? st.charged + (wall - st.clock_wall) : 0.0;
  for (const JobId job : st.pending_done) {
    JobStamps& stamps = st.jobs[job];
    stamps.done_c = st.charged_here;
    stamps.done_wall = wall;
  }
  st.pending_done.clear();
  st.entry = wall;
}

void TimedScheduler::leave() const {
  const double wall = wall_now();
  state_.ledger.decide_s += wall - state_.entry;
  state_.last_exit = wall;
}

void TimedScheduler::on_job_arrival(const sched::JobArrival& job,
                                    SimTime now) {
  enter(std::nullopt);
  state_.pending_arrivals.emplace_back(job.id, now);
  state_.jobs[job.id];
  inner_->on_job_arrival(job, now);
  leave();
}

std::optional<sched::Batch> TimedScheduler::next_batch(
    SimTime now, const sched::ClusterStatus& status) {
  enter(now);
  std::optional<sched::Batch> batch = inner_->next_batch(now, status);
  State& st = state_;
  st.ledger.next_batch_s.push_back(wall_now() - st.entry);
  if (batch.has_value()) {
    st.phase = Phase::kBatch;
    st.ledger.batches += 1;
    st.ledger.members += batch->members.size();
    for (const auto& member : batch->members) {
      JobStamps& stamps = st.jobs[member.job];
      if (stamps.start_c < 0.0) {
        stamps.start_c = st.charged_here;
        stamps.start_wall = st.entry;
      }
    }
    st.completes[batch->id] = batch->completed_jobs();
    if (probe_ != nullptr) probe_->begin_batch();
    st.batch_open = true;
  } else {
    st.phase = Phase::kIdle;
  }
  leave();
  return batch;
}

void TimedScheduler::on_batch_complete(BatchId batch, SimTime now) {
  enter(now);
  inner_->on_batch_complete(batch, now);
  State& st = state_;
  st.phase = Phase::kFinalize;
  if (const auto it = st.completes.find(batch); it != st.completes.end()) {
    st.pending_done = std::move(it->second);
    st.completes.erase(it);
  }
  leave();
}

void TimedScheduler::on_progress(const cluster::ProgressReport& report,
                                 SimTime now) {
  enter(now);
  inner_->on_progress(report, now);
  leave();
}

void TimedScheduler::on_node_dead(NodeId node, SimTime now) {
  enter(now);
  inner_->on_node_dead(node, now);
  leave();
}

void TimedScheduler::on_job_failed(JobId job, SimTime now) {
  enter(now);
  inner_->on_job_failed(job, now);
  leave();
}

std::size_t TimedScheduler::pending_jobs() const {
  enter(std::nullopt);
  const std::size_t pending = inner_->pending_jobs();
  leave();
  return pending;
}

void TimedScheduler::flush(SimTime now) {
  enter(now);
  inner_->flush(now);
  leave();
}

std::optional<SimTime> TimedScheduler::next_decision_time() const {
  enter(std::nullopt);
  const std::optional<SimTime> wake = inner_->next_decision_time();
  leave();
  return wake;
}

}  // namespace e2e
