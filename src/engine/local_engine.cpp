#include "engine/local_engine.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <sstream>

#include "common/logging.h"
#include "obs/flight_recorder.h"
#include "obs/journal.h"
#include "obs/phase_profiler.h"
#include "obs/registry.h"
#include "obs/trace.h"

namespace s3::engine {
namespace {

// Hung-task watchdog: how long an attempt may run before it is declared hung
// and abandoned, and the base of the exponential backoff before the
// re-attempt. Both are modeled (journaled) times — the engine never sleeps;
// injected hangs are abandoned immediately with the would-be timings
// recorded.
constexpr double kHungTaskTimeoutS = 30.0;
constexpr double kRetryBackoffBaseS = 0.5;

// Zero-worker options are rejected by run_batch, not the constructor: clamp
// the pools so the misconfigured engine can still report invalid_argument.
std::unique_ptr<PinnedThreadPool> make_pool(std::size_t workers,
                                            bool pin_cores, int cpu_offset) {
  PinnedThreadPoolOptions opts;
  opts.num_threads = std::max<std::size_t>(1, workers);
  opts.pin_cores = pin_cores;
  opts.cpu_offset = cpu_offset;
  return std::make_unique<PinnedThreadPool>(opts);
}

}  // namespace

LocalEngine::LocalEngine(const dfs::DfsNamespace& ns,
                         const dfs::BlockStore& store,
                         LocalEngineOptions options)
    : ns_(&ns),
      owned_adapter_(std::make_unique<dfs::StoredBlocks>(store)),
      source_(owned_adapter_.get()),
      options_(std::move(options)),
      map_runner_(*source_, shuffle_, options_.data_path),
      reduce_runner_(shuffle_, options_.data_path),
      map_pool_(make_pool(options_.map_workers, options_.pin_cores, 0)),
      reduce_pool_(make_pool(options_.reduce_workers, options_.pin_cores,
                             static_cast<int>(map_pool_->size()))),
      arena_pool_(std::make_unique<BatchArenaPool>(map_pool_->size() +
                                                   reduce_pool_->size())) {
  map_runner_.set_locality(arena_pool_.get(), map_pool_.get(), 0);
  reduce_runner_.set_locality(arena_pool_.get(), reduce_pool_.get(),
                              map_pool_->size());
}

LocalEngine::LocalEngine(const dfs::DfsNamespace& ns,
                         const dfs::BlockSource& source,
                         LocalEngineOptions options)
    : ns_(&ns),
      source_(&source),
      options_(std::move(options)),
      map_runner_(source, shuffle_, options_.data_path),
      reduce_runner_(shuffle_, options_.data_path),
      map_pool_(make_pool(options_.map_workers, options_.pin_cores, 0)),
      reduce_pool_(make_pool(options_.reduce_workers, options_.pin_cores,
                             static_cast<int>(map_pool_->size()))),
      arena_pool_(std::make_unique<BatchArenaPool>(map_pool_->size() +
                                                   reduce_pool_->size())) {
  map_runner_.set_locality(arena_pool_.get(), map_pool_.get(), 0);
  reduce_runner_.set_locality(arena_pool_.get(), reduce_pool_.get(),
                              map_pool_->size());
}

LocalEngine::~LocalEngine() = default;

Status LocalEngine::register_job(JobSpec spec) {
  if (!spec.valid()) return Status::invalid_argument("invalid job spec");
  if (!ns_->has_file(spec.input)) {
    return Status::not_found("job input file does not exist");
  }
  MutexLock lock(mu_);
  if (jobs_.count(spec.id) > 0) {
    return Status::already_exists("job already registered");
  }
  shuffle_.register_job(spec.id, spec.num_reduce_tasks);
  JobState state;
  state.runs.resize(spec.num_reduce_tasks);
  state.spec = std::move(spec);
  const JobId id = state.spec.id;
  jobs_.emplace(id, std::move(state));
  return Status::ok();
}

LocalEngine::JobState& LocalEngine::state(JobId job) {
  const auto it = jobs_.find(job);
  S3_CHECK_MSG(it != jobs_.end(), "unregistered job " << job);
  return it->second;
}

const LocalEngine::JobState& LocalEngine::state(JobId job) const {
  const auto it = jobs_.find(job);
  S3_CHECK_MSG(it != jobs_.end(), "unregistered job " << job);
  return it->second;
}

bool LocalEngine::node_is_dead(NodeId node) const {
  if (options_.replica_health != nullptr) {
    return options_.replica_health->is_node_dead(node);
  }
  MutexLock lock(mu_);
  return dead_nodes_.count(node) > 0;
}

NodeId LocalEngine::pick_replica(BlockId block) const {
  const dfs::BlockInfo* info = ns_->find_block(block);
  if (info == nullptr) return NodeId();
  for (const NodeId replica : info->replicas) {
    if (!node_is_dead(replica)) return replica;
  }
  return NodeId();
}

void LocalEngine::record_node_death(NodeId node, WaveCtx& ctx) {
  bool newly = false;
  if (options_.replica_health != nullptr) {
    newly = options_.replica_health->mark_node_dead(node);
  } else {
    MutexLock lock(mu_);
    newly = dead_nodes_.insert(node).second;
  }
  if (!newly) return;
  static auto& deaths =
      obs::Registry::instance().counter("engine.node_deaths");
  deaths.add();
  auto& journal = obs::EventJournal::instance();
  if (journal.observed()) {
    obs::JournalEvent event;
    event.type = obs::JournalEventType::kNodeDead;
    event.node = node;
    event.detail = "cause=injected_crash,observed_by=engine";
    journal.record(std::move(event));
  }
  {
    MutexLock lock(ctx.mu);
    ctx.died.push_back(node);
  }
}

Fault LocalEngine::decide_fault(
    const TaskAttempt& attempt,
    const std::vector<const JobSpec*>& specs) const {
  if (options_.fault_injector == nullptr) return {};
  Fault fault = options_.fault_injector(attempt);
  if (fault.kind == FaultKind::kPoison) {
    if (!fault.poison_job.valid()) return {};
    // A reduce attempt runs exactly one member's fn; poison aimed at another
    // job cannot fail it.
    if (!attempt.is_map && fault.poison_job != attempt.job) return {};
    const bool member =
        std::any_of(specs.begin(), specs.end(), [&](const JobSpec* spec) {
          return spec->id == fault.poison_job;
        });
    if (!member) return {};
  }
  return fault;
}

void LocalEngine::note_attempt_failure(const TaskAttempt& attempt,
                                       FaultKind kind,
                                       const std::string& cause,
                                       bool will_retry) {
  {
    MutexLock lock(mu_);
    ++failed_attempts_;
    if (kind == FaultKind::kHang) ++hung_attempts_;
  }
  static auto& failed =
      obs::Registry::instance().counter("engine.failed_attempts");
  failed.add();
  auto& journal = obs::EventJournal::instance();
  if (!journal.observed()) return;

  std::ostringstream ident;
  ident << "task=" << attempt.task.value() << ",attempt=" << attempt.attempt;
  if (attempt.is_map) {
    ident << ",block=" << attempt.block.value();
  } else {
    ident << ",partition=" << attempt.partition;
  }

  if (kind == FaultKind::kHang) {
    obs::JournalEvent hung;
    hung.type = obs::JournalEventType::kTaskHung;
    hung.node = attempt.node;
    hung.job = attempt.job;
    std::ostringstream detail;
    detail << ident.str() << ",timeout_s=" << kHungTaskTimeoutS;
    hung.detail = detail.str();
    journal.record(std::move(hung));
  }

  obs::JournalEvent event;
  event.type = obs::JournalEventType::kTaskAttemptFailed;
  event.node = attempt.node;
  event.job = attempt.job;
  event.detail = ident.str() + ",cause=" + cause;
  journal.record(std::move(event));

  if (!will_retry) return;
  obs::JournalEvent retry;
  retry.type = obs::JournalEventType::kTaskRetried;
  retry.node = attempt.node;
  retry.job = attempt.job;
  // The watchdog models the backoff: it is journaled, never slept.
  const double backoff =
      kRetryBackoffBaseS *
      std::pow(2.0, static_cast<double>(attempt.attempt - 1));
  std::ostringstream detail;
  detail << ident.str() << ",next_attempt=" << attempt.attempt + 1
         << ",backoff_s=" << backoff;
  retry.detail = detail.str();
  journal.record(std::move(retry));
}

namespace {

// Maps an injected fault to the status the failed attempt reports and the
// cause tag for the journal. Poison statuses are built at the call site
// (they need the job id).
const char* fault_cause_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kTransient:
      return "transient";
    case FaultKind::kHang:
      return "hung";
    case FaultKind::kNodeDeath:
      return "node_death";
    case FaultKind::kPoison:
      return "poison";
    case FaultKind::kNone:
      break;
  }
  return "error";
}

// K-way merges the partitions' final runs (each sorted by key, keys
// disjoint across runs) into owned, key-ordered records.
std::vector<KeyValue> merge_partitions(const std::vector<KVBatch>& runs) {
  std::size_t total = 0;
  for (const KVBatch& run : runs) total += run.size();
  std::vector<KeyValue> out;
  out.reserve(total);
  std::vector<std::size_t> pos(runs.size(), 0);
  while (true) {
    std::size_t best = runs.size();
    for (std::size_t p = 0; p < runs.size(); ++p) {
      if (pos[p] == runs[p].size()) continue;
      if (best == runs.size() ||
          std::string_view(runs[p].key(pos[p])) <
              std::string_view(runs[best].key(pos[best]))) {
        best = p;
      }
    }
    if (best == runs.size()) return out;
    const KVBatch& run = runs[best];
    out.push_back(KeyValue{std::string(run.key(pos[best])),
                           std::string(run.value(pos[best]))});
    ++pos[best];
  }
}

}  // namespace

void LocalEngine::run_map_prefault(const BatchExec& batch) {
  obs::PhaseTimer timer(obs::EnginePhase::kMapPrefault);
  S3_TRACE_SPAN_NAMED(span, "engine", "map_prefault");
  span.arg("batch", batch.id.value()).arg("blocks", batch.blocks.size());
  const std::size_t workers = map_pool_->size();
  for (std::size_t w = 0; w < workers; ++w) {
    // Worker w touches the blocks whose map tasks will be submitted to it
    // (same round-robin as the map wave below), then warms its arena shard
    // to roughly one block's output footprint.
    std::vector<BlockId> mine;
    for (std::size_t i = w; i < batch.blocks.size(); i += workers) {
      mine.push_back(batch.blocks[i]);
    }
    if (mine.empty()) continue;
    const bool accepted = map_pool_->submit_to(w, [this, mine = std::move(
                                                             mine)] {
      std::size_t block_bytes = 0;
      volatile unsigned touch = 0;
      for (const BlockId block : mine) {
        auto payload_or = source_->fetch(block);
        if (!payload_or.is_ok()) continue;  // the map wave surfaces errors
        const dfs::Payload payload = std::move(payload_or).value();
        const std::string& data = *payload;
        for (std::size_t off = 0; off < data.size(); off += 4096) {
          touch = touch + static_cast<unsigned char>(data[off]);
        }
        block_bytes = std::max(block_bytes, data.size());
      }
      const int worker = map_pool_->current_worker_index();
      const std::size_t shard =
          worker >= 0 ? static_cast<std::size_t>(worker) : 0;
      // Two warm batches per shard: the emit buffer and the combine output.
      arena_pool_->prefault(shard, 2, block_bytes / 8 + 1, block_bytes + 1);
    });
    (void)accepted;  // best-effort: a shutting-down pool just skips the warm
  }
  try {
    map_pool_->wait_idle();
  } catch (...) {
    // Prefault is advisory; a throwing touch must not fail the batch.
  }
  const obs::PhaseSample sample = timer.stop();
  obs::PhaseTimer::annotate(span, sample);
}

void LocalEngine::run_reduce_prefault() {
  obs::PhaseTimer timer(obs::EnginePhase::kReducePrefault);
  S3_TRACE_SPAN_NAMED(span, "engine", "reduce_prefault");
  const std::size_t map_workers = map_pool_->size();
  // Best effort: a rejected or failed warm-up only costs page faults later.
  (void)run_on_reduce_pool(
      reduce_pool_->size(),
      [this, map_workers](std::size_t) {
        const int worker = reduce_pool_->current_worker_index();
        const std::size_t shard =
            map_workers + (worker >= 0 ? static_cast<std::size_t>(worker) : 0);
        // Reduce-side arenas only transit consumed runs, so a modest fixed
        // warm size suffices (the runs themselves arrive from the map side).
        arena_pool_->prefault(shard, 2, 4096, 256 * 1024);
      },
      "reduce prefault");
  const obs::PhaseSample sample = timer.stop();
  obs::PhaseTimer::annotate(span, sample);
}

void LocalEngine::export_locality_metrics() const {
  auto& registry = obs::Registry::instance();
  static auto& map_steals = registry.gauge("engine.map_pool.steals");
  static auto& reduce_steals = registry.gauge("engine.reduce_pool.steals");
  static auto& pinned = registry.gauge("engine.pool.pinned_workers");
  static auto& arena_hits = registry.gauge("engine.arena_pool.hits");
  static auto& arena_misses = registry.gauge("engine.arena_pool.misses");
  static auto& arena_steals = registry.gauge("engine.arena_pool.steals");
  map_steals.set(static_cast<double>(map_pool_->steals()));
  reduce_steals.set(static_cast<double>(reduce_pool_->steals()));
  pinned.set(static_cast<double>(map_pool_->pinned_workers() +
                                 reduce_pool_->pinned_workers()));
  arena_hits.set(static_cast<double>(arena_pool_->hits()));
  arena_misses.set(static_cast<double>(arena_pool_->misses()));
  arena_steals.set(static_cast<double>(arena_pool_->steals()));
}

template <typename Outcome, typename Run>
StatusOr<Outcome> LocalEngine::run_attempts(
    TaskAttempt ident, const std::vector<const JobSpec*>& specs, WaveCtx& ctx,
    const Run& run) {
  // Fault tolerance: injected failures model a node losing the attempt
  // before any side effects; re-dispatch is therefore idempotent.
  const char* const phase = ident.is_map ? "map" : "reduce";
  StatusOr<Outcome> outcome =
      Status::internal(ident.is_map ? "map task never attempted"
                                    : "reduce task never attempted");
  JobId poison;
  Status poison_status = Status::ok();
  for (int attempt = 1; attempt <= options_.max_task_attempts; ++attempt) {
    if (ident.node.valid() && node_is_dead(ident.node)) {
      // The assigned node died since dispatch (possibly killed by a
      // previous attempt's fault): re-dispatch on a live replica.
      ident.node = pick_replica(ident.block);
    }
    ident.attempt = attempt;
    poison = JobId();
    const bool last = attempt == options_.max_task_attempts;
    const Fault fault = decide_fault(ident, specs);
    if (fault.kind != FaultKind::kNone) {
      std::string cause = fault_cause_name(fault.kind);
      if (!fault.detail.empty()) cause += ":" + fault.detail;
      std::ostringstream os;
      switch (fault.kind) {
        case FaultKind::kNodeDeath: {
          // Reduce attempts carry no node, so only an explicit dead_node
          // dies under them.
          const NodeId victim =
              fault.dead_node.valid() ? fault.dead_node : ident.node;
          if (victim.valid()) record_node_death(victim, ctx);
          os << "node " << victim << " died during " << phase << " attempt";
          outcome = Status::unavailable(os.str());
          break;
        }
        case FaultKind::kHang:
          os << phase << " attempt exceeded the " << kHungTaskTimeoutS
             << "s hung-task timeout";
          outcome = Status::unavailable(os.str());
          break;
        case FaultKind::kPoison:
          poison = fault.poison_job;
          os << "poison member " << fault.poison_job << " " << phase
             << " fn failed";
          if (!fault.detail.empty()) os << ": " << fault.detail;
          poison_status = Status::internal(os.str());
          outcome = poison_status;
          break;
        default:
          outcome = Status::unavailable("injected task failure");
          break;
      }
      note_attempt_failure(ident, fault.kind, cause, !last);
      continue;
    }
    outcome = run();
    if (outcome.is_ok()) break;
    // Real read/run failure: retriable unless the data is gone for good.
    const bool permanent = outcome.status().code() == StatusCode::kDataLoss;
    note_attempt_failure(ident, FaultKind::kNone, outcome.status().message(),
                         !last && !permanent);
    if (permanent) break;
  }
  if (!outcome.is_ok() && poison.valid()) {
    MutexLock ctx_lock(ctx.mu);
    if (!ctx.poison.valid()) {
      ctx.poison = poison;
      ctx.poison_status = poison_status;
    }
  }
  return outcome;
}

Status LocalEngine::run_wave(const BatchExec& batch,
                             const std::vector<const JobSpec*>& specs,
                             WaveCtx& ctx) {
  if (options_.prefault) run_map_prefault(batch);

  // --- Map wave: one merged map task per block, all slots in parallel. ---
  S3_TRACE_SPAN_NAMED(map_wave_span, "engine", "map_wave");
  map_wave_span.arg("batch", batch.id.value())
      .arg("blocks", batch.blocks.size());
  obs::PhaseTimer map_timer(obs::EnginePhase::kMap);
  struct MapCollect {
    AnnotatedMutex mu{LockRank::kEngineMapCollect};
    std::vector<MapTaskOutcome> outcomes S3_GUARDED_BY(mu);
    Status first_error S3_GUARDED_BY(mu) = Status::ok();
  } map_collect;
  std::size_t block_index = 0;
  for (const BlockId block : batch.blocks) {
    MapTaskSpec task;
    {
      MutexLock lock(mu_);
      task.id = task_ids_.next();
    }
    task.block = block;
    task.jobs = specs;
    // Locality hint: the same round-robin the prefault phase warmed. The
    // task may still be stolen by an idle worker — the runner re-resolves
    // its arena shard at execution time.
    const std::size_t target = block_index++ % map_pool_->size();
    const bool accepted = map_pool_->submit_to(target, [this,
                                                        task = std::move(task),
                                                        batch_id = batch.id,
                                                        &map_collect, &specs,
                                                        &ctx] {
      TaskAttempt ident;
      ident.task = task.id;
      ident.is_map = true;
      ident.block = task.block;
      ident.node = pick_replica(task.block);
      // Flight correlation: every record this worker emits while running the
      // task names the batch and the first node the task was assigned to.
      obs::CorrelationScope task_corr(JobId(), batch_id, ident.node);
      StatusOr<MapTaskOutcome> outcome = run_attempts<MapTaskOutcome>(
          ident, specs, ctx, [&] { return map_runner_.run(task); });
      MutexLock lock(map_collect.mu);
      if (outcome.is_ok()) {
        map_collect.outcomes.push_back(std::move(outcome).value());
      } else if (map_collect.first_error.is_ok()) {
        map_collect.first_error = outcome.status();
      }
    });
    if (!accepted) {
      // A rejected submit means the task never ran; surface it instead of
      // silently committing a short wave.
      MutexLock lock(map_collect.mu);
      if (map_collect.first_error.is_ok()) {
        map_collect.first_error =
            Status::internal("map pool rejected a task (pool shutting down)");
      }
    }
  }
  try {
    map_pool_->wait_idle();
  } catch (const std::exception& e) {
    return Status::internal(std::string("map task threw: ") + e.what());
  }
  // Single-threaded from here until the reduce wave: the workers are idle,
  // but TSA still wants the collect locks for the guarded reads below.
  {
    MutexLock lock(map_collect.mu);
    if (!map_collect.first_error.is_ok()) return map_collect.first_error;
  }
  obs::PhaseTimer::annotate(map_wave_span, map_timer.stop());
  map_wave_span.end();

  if (options_.prefault) run_reduce_prefault();

  // --- Reduce wave: per member job, per partition. ---
  S3_TRACE_SPAN_NAMED(reduce_wave_span, "engine", "reduce_wave");
  reduce_wave_span.arg("batch", batch.id.value()).arg("jobs", specs.size());
  obs::PhaseTimer reduce_timer(obs::EnginePhase::kReduce);
  // Indexed by member (position in specs), then partition: each task stores
  // its one output run in its own slot.
  struct ReduceCollect {
    AnnotatedMutex mu{LockRank::kEngineReduceCollect};
    std::vector<std::vector<KVBatch>> runs S3_GUARDED_BY(mu);
    std::vector<JobCounters> counters S3_GUARDED_BY(mu);
    Status error S3_GUARDED_BY(mu) = Status::ok();
  } collect;
  {
    MutexLock lock(collect.mu);
    collect.runs.resize(specs.size());
    collect.counters.resize(specs.size());
    for (std::size_t m = 0; m < specs.size(); ++m) {
      collect.runs[m].resize(specs[m]->num_reduce_tasks);
    }
  }

  for (std::size_t m = 0; m < specs.size(); ++m) {
    const JobSpec* spec = specs[m];
    for (std::uint32_t p = 0; p < spec->num_reduce_tasks; ++p) {
      ReduceTaskSpec task;
      {
        MutexLock lock(mu_);
        task.id = task_ids_.next();
      }
      task.job = spec;
      task.partition = p;
      // Partition-affine dispatch: partition p of every member lands on the
      // same worker, so one worker's arenas see one partition's runs.
      const bool accepted = reduce_pool_->submit_to(
          p % reduce_pool_->size(),
          [this, task, m, batch_id = batch.id, &collect, &specs, &ctx] {
        // Flight correlation: reduce tasks are job-affine, so records name
        // both the owning job and the batch whose wave scheduled them.
        obs::CorrelationScope task_corr(task.job->id, batch_id, NodeId());
        TaskAttempt ident;
        ident.task = task.id;
        ident.is_map = false;
        ident.job = task.job->id;
        ident.partition = task.partition;
        StatusOr<ReduceTaskOutcome> outcome = run_attempts<ReduceTaskOutcome>(
            ident, specs, ctx, [&] { return reduce_runner_.run(task); });
        MutexLock lock(collect.mu);
        if (!outcome.is_ok()) {
          if (collect.error.is_ok()) collect.error = outcome.status();
          return;
        }
        ReduceTaskOutcome& value = outcome.value();
        collect.runs[m][task.partition] = std::move(value.output);
        collect.counters[m] += value.counters;
      });
      if (!accepted) {
        MutexLock lock(collect.mu);
        if (collect.error.is_ok()) {
          collect.error = Status::internal(
              "reduce pool rejected a task (pool shutting down)");
        }
      }
    }
  }
  try {
    reduce_pool_->wait_idle();
  } catch (const std::exception& e) {
    return Status::internal(std::string("reduce task threw: ") + e.what());
  }
  {
    MutexLock lock(collect.mu);
    if (!collect.error.is_ok()) return collect.error;
  }
  obs::PhaseTimer::annotate(reduce_wave_span, reduce_timer.stop());
  reduce_wave_span.end();

  // --- Commit: member state is only touched after the whole wave succeeded,
  // so a failed wave leaves no trace and can be re-run exactly. A fold that
  // fails after the commit leaves the batch committed and its partition's
  // runs unfolded; finalize_job folds any partition still holding several. ---
  obs::PhaseTimer merge_timer(obs::EnginePhase::kMerge);
  // Incremental merging folds these members' runs once mu_ is released.
  std::vector<std::pair<const JobSpec*, std::vector<std::vector<KVBatch>>>>
      to_fold;
  {
    MutexLock outcome_lock(map_collect.mu);
    MutexLock collect_lock(collect.mu);
    MutexLock lock(mu_);
    static auto& physical =
        obs::Registry::instance().counter("engine.blocks_physical");
    static auto& logical =
        obs::Registry::instance().counter("engine.blocks_logical");
    for (const auto& outcome : map_collect.outcomes) {
      scan_counters_ += outcome.scan;
      physical.add(outcome.scan.blocks_physical);
      logical.add(outcome.scan.blocks_logical);
      for (const auto& [job, counters] : outcome.per_job) {
        state(job).counters += counters;
      }
    }
    // Live sharing efficiency: logical blocks served per physical block
    // read. An n-member merged scan reports exactly n.
    static auto& sharing =
        obs::Registry::instance().gauge("engine.sharing_efficiency");
    if (scan_counters_.blocks_physical > 0) {
      sharing.set(static_cast<double>(scan_counters_.blocks_logical) /
                  static_cast<double>(scan_counters_.blocks_physical));
    }
    for (std::size_t m = 0; m < specs.size(); ++m) {
      JobState& st = state(specs[m]->id);
      st.counters += collect.counters[m];
      for (std::size_t p = 0; p < st.runs.size(); ++p) {
        st.runs[p].push_back(std::move(collect.runs[m][p]));
      }
      st.batches_run += 1;
      if (options_.incremental_merge && st.batches_run > 1) {
        to_fold.emplace_back(specs[m], std::move(st.runs));
      }
    }
  }
  // The driver is the only caller that touches these members' state between
  // waves, so their runs may leave mu_ while the pool folds them. Every
  // member is folded; the first error is returned.
  Status folded = Status::ok();
  for (auto& [spec, runs] : to_fold) {
    const Status status = fold_partitions(*spec, runs);
    if (folded.is_ok()) folded = status;
    MutexLock lock(mu_);
    state(spec->id).runs = std::move(runs);
  }
  merge_timer.stop();
  export_locality_metrics();
  return folded;
}

StatusOr<BatchOutcome> LocalEngine::run_batch(const BatchExec& batch) {
  if (options_.max_task_attempts < 1) {
    return Status::invalid_argument(
        "LocalEngineOptions::max_task_attempts must be >= 1");
  }
  if (options_.map_workers == 0 || options_.reduce_workers == 0) {
    return Status::invalid_argument(
        "LocalEngineOptions needs at least one map and one reduce worker");
  }
  if (batch.jobs.empty()) {
    return Status::invalid_argument("batch with no member jobs");
  }
  if (batch.blocks.empty()) {
    return Status::invalid_argument("batch with no blocks");
  }

  S3_LOG(kDebug, "engine") << "batch " << batch.id << ": "
                           << batch.blocks.size() << " blocks x "
                           << batch.jobs.size() << " jobs";
  obs::CorrelationScope batch_corr(JobId(), batch.id, NodeId());
  S3_TRACE_SPAN_NAMED(batch_span, "engine", "execute_batch");
  batch_span.arg("batch", batch.id.value())
      .arg("blocks", batch.blocks.size())
      .arg("jobs", batch.jobs.size());
  static auto& batches_run =
      obs::Registry::instance().counter("engine.batches");
  batches_run.add();

  // Batch membership uniqueness: a merged batch reads each block once for
  // all members, so a duplicated member would double-count its sub-job.
  S3_DCHECK_MSG(([&] {
                  std::vector<JobId> ids = batch.jobs;
                  std::sort(ids.begin(), ids.end());
                  return std::adjacent_find(ids.begin(), ids.end()) ==
                         ids.end();
                }()),
                "batch " << batch.id << " lists a member job twice");

  BatchOutcome result;
  std::vector<JobId> members = batch.jobs;
  while (true) {
    // Snapshot member specs (stable pointers: jobs_ values are node-based).
    std::vector<const JobSpec*> specs;
    {
      MutexLock lock(mu_);
      specs.reserve(members.size());
      for (const JobId job : members) {
        const auto it = jobs_.find(job);
        if (it == jobs_.end()) {
          return Status::not_found("batch references unregistered job");
        }
        specs.push_back(&it->second.spec);
      }
    }

    WaveCtx ctx;
    const Status wave = run_wave(batch, specs, ctx);
    {
      MutexLock lock(ctx.mu);
      result.nodes_died.insert(result.nodes_died.end(), ctx.died.begin(),
                               ctx.died.end());
    }
    if (wave.is_ok()) return result;

    JobId poison;
    Status poison_status = Status::ok();
    {
      MutexLock lock(ctx.mu);
      poison = ctx.poison;
      poison_status = ctx.poison_status;
    }
    // Not attributable to one member: the batch as a whole cannot proceed.
    if (!poison.valid()) return wave;

    // Quarantine the poison member: retire it with its error status so the
    // survivors' shared scan is not held hostage by one bad job.
    S3_LOG(kWarn, "engine") << "batch " << batch.id << ": quarantining "
                            << poison << " (" << poison_status << ")";
    static auto& quarantines =
        obs::Registry::instance().counter("engine.quarantines");
    quarantines.add();
    auto& journal = obs::EventJournal::instance();
    if (journal.observed()) {
      obs::JournalEvent event;
      event.type = obs::JournalEventType::kJobQuarantined;
      event.job = poison;
      event.batch = batch.id;
      event.detail = "reason=" + poison_status.to_string();
      journal.record(std::move(event));
    }
    {
      MutexLock lock(mu_);
      jobs_.erase(poison);
    }
    shuffle_.unregister_job(poison);
    result.quarantined.push_back(BatchOutcome::QuarantinedJob{
        poison, std::move(poison_status)});
    members.erase(std::remove(members.begin(), members.end(), poison),
                  members.end());
    if (members.empty()) return result;

    // Reset the survivors' shuffle state: the aborted wave may have
    // published map runs (or consumed them) that the re-run will recreate.
    std::vector<std::pair<JobId, std::uint32_t>> survivors;
    {
      MutexLock lock(mu_);
      survivors.reserve(members.size());
      for (const JobId job : members) {
        survivors.emplace_back(job, state(job).spec.num_reduce_tasks);
      }
    }
    for (const auto& [job, partitions] : survivors) {
      shuffle_.unregister_job(job);
      shuffle_.register_job(job, partitions);
    }
    ++result.reruns;
    static auto& reruns =
        obs::Registry::instance().counter("engine.batch_reruns");
    reruns.add();
    if (journal.observed()) {
      obs::JournalEvent event;
      event.type = obs::JournalEventType::kBatchRerun;
      event.batch = batch.id;
      event.members = members.size();
      std::ostringstream detail;
      detail << "after_quarantine=" << poison << ",rerun=" << result.reruns;
      event.detail = detail.str();
      journal.record(std::move(event));
    }
  }
}

Status LocalEngine::run_on_reduce_pool(
    std::size_t count, const std::function<void(std::size_t)>& task,
    const char* what) {
  Status rejected = Status::ok();
  for (std::size_t i = 0; i < count; ++i) {
    const bool accepted = reduce_pool_->submit_to(
        i % reduce_pool_->size(), [&task, i] { task(i); });
    if (!accepted && rejected.is_ok()) {
      rejected = Status::internal(std::string("reduce pool rejected a ") +
                                  what + " (pool shutting down)");
    }
  }
  try {
    reduce_pool_->wait_idle();
  } catch (const std::exception& e) {
    return Status::internal(std::string(what) + " threw: " + e.what());
  }
  return rejected;
}

Status LocalEngine::fold_partitions(const JobSpec& spec,
                                    std::vector<std::vector<KVBatch>>& runs) {
  S3_TRACE_SPAN_NAMED(span, "engine", "fold_partitions");
  span.arg("job", spec.id.value()).arg("partitions", runs.size());
  // Partition p folds on worker p % size, where the reduce wave built its
  // runs.
  return run_on_reduce_pool(
      runs.size(),
      [&](std::size_t p) {
        if (runs[p].size() < 2) return;
        KVBatch folded = fold_runs(spec, runs[p]);
        runs[p].clear();
        runs[p].push_back(std::move(folded));
      },
      "reduce fold");
}

StatusOr<JobResult> LocalEngine::finalize_job(JobId job) {
  std::optional<JobState> taken;
  {
    MutexLock lock(mu_);
    const auto it = jobs_.find(job);
    if (it == jobs_.end()) return Status::not_found("unregistered job");
    taken.emplace(std::move(it->second));
    jobs_.erase(it);
  }
  JobState& st = *taken;
  // mu_ released before touching the shuffle registry (lock order: never
  // hold the engine leaf lock while acquiring shuffle locks).
  shuffle_.unregister_job(job);

  // Sub-job execution: a key may appear in several batches' runs of its
  // partition; fold them with the (algebraic) reducer. One batch, or
  // incremental merging, leaves one run per partition: nothing to re-reduce.
  if (std::any_of(st.runs.begin(), st.runs.end(),
                  [](const std::vector<KVBatch>& part) {
                    return part.size() > 1;
                  })) {
    const Status folded = fold_partitions(st.spec, st.runs);
    if (!folded.is_ok()) return folded;
  }

  std::vector<KVBatch> partitions;
  partitions.reserve(st.runs.size());
  for (std::vector<KVBatch>& part : st.runs) {
    for (KVBatch& run : part) partitions.push_back(std::move(run));
  }
  JobResult result;
  result.id = job;
  result.output = merge_partitions(partitions);
  return result;
}

const JobCounters& LocalEngine::counters(JobId job) const {
  MutexLock lock(mu_);
  return state(job).counters;
}

ScanCounters LocalEngine::scan_counters() const {
  MutexLock lock(mu_);
  return scan_counters_;
}

std::size_t LocalEngine::registered_jobs() const {
  MutexLock lock(mu_);
  return jobs_.size();
}

std::uint64_t LocalEngine::failed_attempts() const {
  MutexLock lock(mu_);
  return failed_attempts_;
}

std::uint64_t LocalEngine::hung_attempts() const {
  MutexLock lock(mu_);
  return hung_attempts_;
}

}  // namespace s3::engine
