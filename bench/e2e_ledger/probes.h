// Pass-through decorators around the public interface of each layer the
// e2e_ledger benchmark attributes time to. Nothing under src/ knows they
// exist: the benchmark wraps what it hands to the engine and the driver.
//
//  * TimedScheduler wraps sched::Scheduler. It stamps every callback with
//    the driver's virtual `now` (when the callback carries it) and the
//    steady-clock wall time. From those stamps it keeps the charged clock
//    (TET/ART) and the driver-thread ledger.
//  * ProbedBlockSource wraps dfs::BlockSource and times every fetch.
//  * LayerProbe::wrap() wraps a JobSpec's mapper, combiner and reducer
//    factories. The wrapped objects stamp their creation, finish() and
//    destruction on the worker thread that runs them.
//
// Worker threads write only their own per-thread slot. The driver thread
// reads and resets the slots only between waves, after the engine's pool
// has gone idle, so the pool's own locking orders every access.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "dfs/block_source.h"
#include "engine/job.h"
#include "sched/scheduler.h"

namespace e2e {

// Steady-clock seconds since the first call in this process.
[[nodiscard]] double wall_now();

// Busy time and counts of the worker-side layers, summed over threads.
struct WorkerTotals {
  double fetch_s = 0.0;
  double fetch_bytes = 0.0;
  std::uint64_t fetches = 0;
  double scan_map_s = 0.0;     // first mapper created to the scan's end,
                               // plus every finish() call
  double combine_s = 0.0;      // finish() return to combiner destroyed
  double publish_s = 0.0;      // combine (or finish) end to the next member
  double map_task_busy_s = 0.0;     // fetch start to last mapper destroyed
  double reduce_task_busy_s = 0.0;  // reducer lifetime on reduce workers
  double rereduce_s = 0.0;     // reducer lifetime on the driver thread
};

class LayerProbe {
 public:
  // `driver` is the thread that calls RealDriver; reducers it creates are
  // finalize re-reduces, not reduce tasks.
  explicit LayerProbe(std::thread::id driver);
  ~LayerProbe();
  LayerProbe(const LayerProbe&) = delete;
  LayerProbe& operator=(const LayerProbe&) = delete;

  // Fetches are stamped only while enabled (the block source decorator is
  // installed for the engine's whole life; timed reps run it disabled).
  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  // Returns `spec` with its mapper, combiner and reducer factories wrapped.
  [[nodiscard]] s3::engine::JobSpec wrap(s3::engine::JobSpec spec);

  // Driver thread, while no wave runs: opens one batch's wave windows, and
  // closes them, returning the map and reduce wave lengths.
  struct Waves {
    double map_s = 0.0;
    double reduce_s = 0.0;
  };
  void begin_batch();
  [[nodiscard]] Waves end_batch();

  [[nodiscard]] WorkerTotals totals() const;
  void reset();

  struct Slot;
  // The calling thread's slot (registered on first use).
  [[nodiscard]] Slot& slot();
  void on_fetch(double start, double end, std::size_t bytes);

 private:
  const std::uint64_t id_;
  const std::thread::id driver_;
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Slot>> slots_;  // guarded by mu_
};

class ProbedBlockSource final : public s3::dfs::BlockSource {
 public:
  ProbedBlockSource(const s3::dfs::BlockSource& inner, LayerProbe& probe)
      : inner_(&inner), probe_(&probe) {}
  [[nodiscard]] s3::StatusOr<s3::dfs::Payload> fetch(
      s3::BlockId block) const override;

 private:
  const s3::dfs::BlockSource* inner_;
  LayerProbe* probe_;
};

class TimedScheduler final : public s3::sched::Scheduler {
 public:
  // `probe` may be null (timed reps): the charged clock and the ledger rows
  // are still kept, only the wave split is not.
  TimedScheduler(s3::sched::Scheduler& inner, LayerProbe* probe)
      : inner_(&inner), probe_(probe) {}

  // Bracket one driver call with wall_now() stamps.
  void begin(double wall);
  void end(double wall);

  struct JobStamps {
    double arrival_c = -1.0;  // charged clock; -1 = never stamped
    double start_c = -1.0;    // first batch that carries the job
    double done_c = -1.0;     // first callback after its finalize
    double start_wall = -1.0;
    double done_wall = -1.0;
  };
  // Driver-thread ledger rows, in seconds. With the tail after the last
  // callback they sum to end - begin.
  struct Ledger {
    double register_s = 0.0;
    double decide_s = 0.0;
    double batch_s = 0.0;
    double map_wave_s = 0.0;
    double reduce_wave_s = 0.0;
    double finalize_s = 0.0;
    double idle_s = 0.0;
    std::uint64_t batches = 0;
    std::uint64_t members = 0;
    std::vector<double> next_batch_s;  // every next_batch() call
  };
  [[nodiscard]] const std::unordered_map<s3::JobId, JobStamps>& jobs() const {
    return state_.jobs;
  }
  [[nodiscard]] const Ledger& ledger() const { return state_.ledger; }

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  void on_job_arrival(const s3::sched::JobArrival& job,
                      s3::SimTime now) override;
  std::optional<s3::sched::Batch> next_batch(
      s3::SimTime now, const s3::sched::ClusterStatus& status) override;
  void on_batch_complete(s3::BatchId batch, s3::SimTime now) override;
  void on_progress(const s3::cluster::ProgressReport& report,
                   s3::SimTime now) override;
  void on_node_dead(s3::NodeId node, s3::SimTime now) override;
  void on_job_failed(s3::JobId job, s3::SimTime now) override;
  [[nodiscard]] std::size_t pending_jobs() const override;
  void flush(s3::SimTime now) override;
  [[nodiscard]] std::optional<s3::SimTime> next_decision_time() const override;

 private:
  // What the driver thread does between a callback and the next one.
  enum class Phase { kRegister, kBatch, kFinalize, kIdle };

  struct State {
    Phase phase = Phase::kRegister;
    bool batch_open = false;
    double last_exit = 0.0;  // wall when the previous callback returned
    double entry = 0.0;      // wall when the current callback began
    // Charged clock at the last callback that carried `now`.
    bool clock_started = false;
    double charged = 0.0;
    double clock_wall = 0.0;
    double clock_now = 0.0;
    double charged_here = 0.0;  // charged time of the current callback
    std::vector<std::pair<s3::JobId, double>> pending_arrivals;
    std::vector<s3::JobId> pending_done;
    std::unordered_map<s3::BatchId, std::vector<s3::JobId>> completes;
    std::unordered_map<s3::JobId, JobStamps> jobs;
    Ledger ledger;
  };

  // Stamps a callback's entry: charges the gap since the previous callback
  // to the current phase, advances the charged clock by max(Δwall, Δnow)
  // when the callback carries `now`, and stamps pending arrivals and
  // completions. `leave` charges the callback's own time to decide_s.
  void enter(std::optional<s3::SimTime> now) const;
  void leave() const;

  s3::sched::Scheduler* inner_;
  LayerProbe* probe_;
  // Stamped from const callbacks too (pending_jobs, next_decision_time).
  mutable State state_;
};

}  // namespace e2e
