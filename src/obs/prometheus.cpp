#include "obs/prometheus.h"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <utility>

#include "common/logging.h"
#include "common/pinned_thread_pool.h"
#include "common/strings.h"

namespace s3::obs {
namespace {

// Prometheus spells infinities "+Inf"/"-Inf"; everything else goes through
// the shortest-round-trip formatter the text dumps already use.
std::string prometheus_value(double v) {
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  return format_double(v, -1);
}

}  // namespace

std::string prometheus_metric_name(const std::string& name) {
  std::string out = "s3_";
  out.reserve(name.size() + 3);
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out.push_back(ok ? c : '_');
  }
  return out;
}

std::string export_prometheus(const Registry& registry) {
  const MetricsSnapshot snap = registry.snapshot_metrics();
  std::string out;
  for (const auto& [name, value] : snap.counters) {
    const std::string mangled = prometheus_metric_name(name);
    out += "# TYPE " + mangled + " counter\n";
    out += mangled + " " + std::to_string(value) + "\n";
  }
  for (const auto& [name, value] : snap.gauges) {
    const std::string mangled = prometheus_metric_name(name);
    out += "# TYPE " + mangled + " gauge\n";
    out += mangled + " " + prometheus_value(value) + "\n";
  }
  for (const auto& hist : snap.histograms) {
    const std::string mangled = prometheus_metric_name(hist.name);
    out += "# TYPE " + mangled + " summary\n";
    out += mangled + "{quantile=\"0.5\"} " + prometheus_value(hist.p50) + "\n";
    out +=
        mangled + "{quantile=\"0.95\"} " + prometheus_value(hist.p95) + "\n";
    out +=
        mangled + "{quantile=\"0.99\"} " + prometheus_value(hist.p99) + "\n";
    out += mangled + "_count " + std::to_string(hist.count) + "\n";
  }
  return out;
}

Status write_prometheus_file(const Registry& registry,
                             const std::string& path) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out.is_open()) {
      return Status::internal("cannot open snapshot tmp file: " + tmp);
    }
    out << export_prometheus(registry);
    out.close();
    if (!out.good()) {
      return Status::internal("failed writing snapshot tmp file: " + tmp);
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return Status::internal("cannot rename snapshot into place: " + path);
  }
  return Status::ok();
}

SnapshotExporter::SnapshotExporter(std::string path, std::int64_t interval_ms)
    : path_(std::move(path)),
      interval_ms_(interval_ms > 0 ? interval_ms : 500) {
  if (path_.empty()) return;
  pool_ = std::make_unique<PinnedThreadPool>(1);
  if (!pool_->submit([this] { run_loop(); })) {
    pool_.reset();
    return;
  }
  S3_LOG(kInfo, "obs") << "snapshot exporter writing " << path_ << " every "
                       << interval_ms_ << " ms";
}

void SnapshotExporter::run_loop() {
  for (;;) {
    {
      MutexLock lock(mu_);
      if (!stop_) {
        (void)lock.wait_for(cv_, std::chrono::milliseconds(interval_ms_));
      }
      if (stop_) return;  // stop() writes the final snapshot
    }
    const Status status = write_prometheus_file(Registry::instance(), path_);
    if (!status.is_ok()) {
      S3_LOG(kWarn, "obs") << "snapshot write failed: " << status.to_string();
    }
  }
}

void SnapshotExporter::stop() {
  if (pool_ == nullptr) return;
  {
    MutexLock lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  pool_->shutdown();
  pool_.reset();
  const Status status = write_prometheus_file(Registry::instance(), path_);
  if (!status.is_ok()) {
    S3_LOG(kWarn, "obs") << "final snapshot write failed: "
                         << status.to_string();
  }
}

SnapshotExporter::~SnapshotExporter() { stop(); }

}  // namespace s3::obs
