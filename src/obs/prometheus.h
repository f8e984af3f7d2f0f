// Prometheus text-exposition exporter over the metrics registry, plus the
// interval snapshot writer behind --snapshot-out= (the file tools/s3top
// polls for its live dashboard).
//
// Mapping (metric names are mangled "engine.map_task_ns" →
// "s3_engine_map_task_ns"; the golden test in tests/prometheus_test.cpp
// pins the exact output):
//  * Counter   → `# TYPE <n> counter` + one sample.
//  * Gauge     → `# TYPE <n> gauge` + one sample.
//  * Histogram → `# TYPE <n> summary` + quantile-labelled samples for
//    p50/p95/p99 and `<n>_count`. No `_sum` series: LogHistogram keeps
//    log2 buckets only, and a fabricated sum would be worse than none.
#pragma once

#include <memory>
#include <string>

#include "common/flags.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "obs/registry.h"

namespace s3 {
class PinnedThreadPool;
}

namespace s3::obs {

// "engine.map_task_ns" → "s3_engine_map_task_ns" (every character outside
// [a-zA-Z0-9_] becomes '_').
[[nodiscard]] std::string prometheus_metric_name(const std::string& name);

[[nodiscard]] std::string export_prometheus(const Registry& registry);

// Atomic publish: writes to <path>.tmp then renames over <path>, so a
// concurrent s3top poll always reads a complete exposition.
[[nodiscard]] Status write_prometheus_file(const Registry& registry,
                                           const std::string& path);

// Background interval writer: one pool thread rewriting `path` every
// `interval_ms` until stop()/destruction (which write one final snapshot).
// An empty path makes the exporter inert.
//
//   const s3::Flags flags = s3::Flags::parse(argc, argv);
//   s3::obs::SnapshotExporter exporter(flags);  // --snapshot-out=...
class SnapshotExporter {
 public:
  SnapshotExporter(std::string path, std::int64_t interval_ms);
  // Reads --snapshot-out and --snapshot-interval-ms (default 500).
  explicit SnapshotExporter(const Flags& flags)
      : SnapshotExporter(flags.get_string("snapshot-out"),
                         flags.get_int("snapshot-interval-ms", 500)) {}
  ~SnapshotExporter();

  SnapshotExporter(const SnapshotExporter&) = delete;
  SnapshotExporter& operator=(const SnapshotExporter&) = delete;

  [[nodiscard]] bool active() const { return pool_ != nullptr; }
  [[nodiscard]] const std::string& path() const { return path_; }

  // Stops the interval loop, writes one final snapshot, joins. Idempotent;
  // called by the destructor.
  void stop();

 private:
  void run_loop();

  std::string path_;
  std::int64_t interval_ms_ = 500;
  mutable AnnotatedMutex mu_{LockRank::kObsSnapshot};
  std::condition_variable cv_;
  bool stop_ S3_GUARDED_BY(mu_) = false;
  std::unique_ptr<PinnedThreadPool> pool_;
};

}  // namespace s3::obs
