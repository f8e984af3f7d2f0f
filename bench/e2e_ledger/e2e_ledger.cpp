// e2e_ledger: wall-clock TET/ART of four paper-shaped workloads on the real
// LocalEngine, with a per-layer ledger from separately traced reps.
//
//   e2e_ledger --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//              [--scheduler fifo|mrs1|s3] [--smoke] [--git-sha SHA]
//              [--corrupt-digest]
//
// One process runs one workload: set-up at least three times (median
// reported), the reference outputs (each distinct job alone, one whole-file
// FIFO batch), one discarded warm-up rep, then reps until --seconds have
// passed. Except on selection_generated, whose gaps are fixed in seconds,
// every rep first runs a probe job alone; the median of the recent probe
// times is the unit of that rep's arrival schedule.
// --trace 0 reports the end-to-end metrics; --trace 1 alternates timed and
// traced reps and reports the per-layer ledger. Every rep's outputs are
// checked against the reference digests. The last stdout line is the JSON
// result; the exit code is 1 when any check fails and 2 on bad arguments.
// README.md in this directory defines every metric.
#include <malloc.h>
#include <sched.h>
#include <sys/utsname.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/s3.h"
#include "probes.h"

namespace {

using namespace s3;
using e2e::wall_now;

constexpr double kMiB = 1024.0 * 1024.0;
constexpr std::size_t kMinSetups = 3;
constexpr std::size_t kMaxSetups = 25;
constexpr double kSetupBudgetS = 0.5;
constexpr std::uint32_t kReduceTasks = 8;
constexpr std::uint32_t kServiceReduceTasks = 2;
// Arrival times of sparse_wordcount, dense_heavy and s3d_poisson are counted
// in solo scans: the wall time of the workload's probe job run alone. Every
// rep runs the probe (see probes_per_rep); its unit is the median of the
// probe times of the last kUnitWindow reps, so one noisy probe does not
// reshape a rep's schedule. With gaps fixed in seconds, a host phase that
// slows the work also makes later arrivals come earlier in it, so batches
// overlap more: on a host slowed 1.84x by competing threads,
// sparse_wordcount's TET grew 1.84x and its ART 2.24x. Counted in scans,
// the overlap is the same at any host speed.
constexpr std::size_t kUnitWindow = 5;
// Arrival gaps in solo scans. At a 4-core host's solo scans (0.16 s sparse,
// 0.115 s dense) these are the 0.12 s / 0.02 s and 0.02 s gaps the
// workloads were sized with.
constexpr double kSparseGroupGap = 3.0 / 4.0;
constexpr double kSparseIntraGap = 1.0 / 8.0;
constexpr double kDenseGap = 1.0 / 6.0;
// selection_generated's gaps are fixed in seconds. Its groups arrive within
// one solo scan (~0.3-0.5 s) of each other, so a slow phase of the host
// merges more of them into shared scans, and the blocks it saves offset the
// slowdown. Counted in scans, its TET instead followed the host's speed on
// block synthesis, which drifted +-25% within minutes: TET's run-to-run
// spread was 0.10-0.20 against 0.02-0.06 with fixed gaps.
constexpr double kSelectionGroupGapS = 0.19;
constexpr double kSelectionIntraGapS = 0.03;
// s3d_poisson's mean gap between arrivals, in solo runs of one of its jobs.
// At a 4-core host's ~14 ms solo run this is ~50 jobs/s, a third of the
// ~150/s at which the service saturates. Fixed at 50/s instead, a phase in
// which neighbours take CPU from the host raised the load with the work, and
// ART drifted 40% between runs minutes apart.
constexpr double kServiceGap = 1.5;
constexpr double kMaxGenLateS = 0.010;
constexpr double kMaxResidualFrac = 0.05;
const char* const kLetters = "abcdefghijklmnopqrstuvwxyz";

enum class Kind { kSparse, kDense, kSelection, kService };

struct Shape {
  std::uint64_t blocks = 0;
  std::uint64_t block_kib = 0;
  std::uint64_t segment_blocks = 0;
  double window_s = 0.0;  // s3d_poisson: arrival window of one rep
};

struct WorkloadDef {
  const char* name;
  Kind kind;
  Shape full;
  Shape smoke;
};

// Sizes from runs on a 4-core host, where a single-job scan of the sparse
// corpus takes ~0.16-0.18 s. Segments: k = 8 for the sparse patterns, k = 4
// (= map slots, §IV-B) for the dense one.
const WorkloadDef kWorkloads[] = {
    {"sparse_wordcount", Kind::kSparse, {128, 1024, 16, 0.0}, {8, 64, 2, 0.0}},
    {"dense_heavy", Kind::kDense, {16, 1024, 4, 0.0}, {4, 64, 2, 0.0}},
    {"selection_generated", Kind::kSelection, {96, 1024, 12, 0.0},
     {8, 64, 2, 0.0}},
    {"s3d_poisson", Kind::kService, {32, 256, 8, 3.0}, {8, 32, 2, 0.5}},
};

// ---------------------------------------------------------------- options

struct Options {
  const WorkloadDef* workload = nullptr;
  std::uint64_t seed = 1;
  double seconds = 25.0;
  bool trace = false;
  std::string scheduler = "s3";
  bool smoke = false;
  bool corrupt_digest = false;
  std::string git_sha = "unknown";
};

bool parse_u64(const std::string& text, std::uint64_t& out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  return ec == std::errc{} && ptr == end && !text.empty();
}

bool parse_options(int argc, char** argv, Options& opt, std::string& error) {
  static const std::set<std::string> kKnown = {
      "workload", "seed",  "seconds", "trace",          "scheduler",
      "smoke",    "git-sha", "corrupt-digest"};
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      error = "unexpected argument '" + arg + "'";
      return false;
    }
    const auto eq = arg.find('=');
    const std::string name = arg.substr(2, eq == std::string::npos
                                               ? std::string::npos
                                               : eq - 2);
    if (kKnown.count(name) == 0) {
      error = "unknown flag --" + name;
      return false;
    }
    // "--name value": Flags::parse takes the next token as the value.
    if (eq == std::string::npos && i + 1 < argc &&
        std::string(argv[i + 1]).rfind("--", 0) != 0) {
      ++i;
    }
  }
  const Flags flags = Flags::parse(argc, argv);
  const std::string workload = flags.get_string("workload");
  for (const WorkloadDef& def : kWorkloads) {
    if (workload == def.name) opt.workload = &def;
  }
  if (opt.workload == nullptr) {
    error = "--workload must be one of sparse_wordcount, dense_heavy, "
            "selection_generated, s3d_poisson";
    return false;
  }
  std::uint64_t value = 0;
  if (flags.has("seed")) {
    if (!parse_u64(flags.get_string("seed"), value)) {
      error = "--seed must be a non-negative integer";
      return false;
    }
    opt.seed = value;
  }
  if (flags.has("seconds")) {
    if (!parse_u64(flags.get_string("seconds"), value) || value < 1 ||
        value > 600) {
      error = "--seconds must be an integer in [1, 600]";
      return false;
    }
    opt.seconds = static_cast<double>(value);
  }
  if (flags.has("trace")) {
    const std::string trace = flags.get_string("trace");
    if (trace != "0" && trace != "1") {
      error = "--trace must be 0 or 1";
      return false;
    }
    opt.trace = trace == "1";
  }
  opt.scheduler = flags.get_string("scheduler", "s3");
  if (opt.scheduler != "fifo" && opt.scheduler != "mrs1" &&
      opt.scheduler != "s3") {
    error = "--scheduler must be fifo, mrs1 or s3";
    return false;
  }
  if (opt.workload->kind == Kind::kService && opt.scheduler != "s3") {
    error = "s3d_poisson runs the S3 scheduler only";
    return false;
  }
  opt.smoke = flags.get_bool("smoke");
  opt.corrupt_digest = flags.get_bool("corrupt-digest");
  opt.git_sha = flags.get_string("git-sha", "unknown");
  return true;
}

// ------------------------------------------------------------ statistics

SampleSet sample_set(const std::vector<double>& xs) {
  SampleSet set;
  for (const double x : xs) set.add(x);
  return set;
}

// Linear-interpolation quantile (q in [0, 1]); 0 for an empty sample.
double quantile(const std::vector<double>& xs, double q) {
  return sample_set(xs).percentile(100.0 * q);
}

double median(const std::vector<double>& xs) { return quantile(xs, 0.5); }

double mean(const std::vector<double>& xs) { return sample_set(xs).mean(); }

// Mean of the middle 80%. One stalled rep cannot move it far, and unlike a
// median it does not jump between the two speeds of a host whose CPU share
// flips every few seconds: under such noise the run-to-run spread of TET
// was 0.18 with it and 0.30 with the median.
double trimmed_mean(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  const auto k = static_cast<std::ptrdiff_t>(xs.size() / 10);
  return mean(std::vector<double>(xs.begin() + k, xs.end() - k));
}

// ------------------------------------------------------------ host facts

std::size_t usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<std::size_t>(std::max(1, CPU_COUNT(&set)));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string kernel_release() {
  utsname info{};
  return uname(&info) == 0 ? std::string(info.release) : "unknown";
}

std::string utc_date() {
  const std::time_t now = std::time(nullptr);
  std::tm tm{};
  gmtime_r(&now, &tm);
  char buf[32];
  std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &tm);
  return buf;
}

// Resets VmHWM to the current RSS; false where the kernel refuses.
bool reset_peak_rss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.flush();
  return static_cast<bool>(out);
}

double peak_rss_mib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

// FNV-1a over each row's key, a NUL, its value and a newline, in
// (key, value) order.
std::uint64_t digest(std::vector<engine::KeyValue>& rows) {
  if (!std::is_sorted(rows.begin(), rows.end())) {
    std::sort(rows.begin(), rows.end());
  }
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](std::string_view bytes) {
    for (const char c : bytes) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ULL;
    }
  };
  for (const engine::KeyValue& row : rows) {
    mix(row.key);
    mix(std::string_view("\0", 1));
    mix(row.value);
    mix("\n");
  }
  return h;
}

// --------------------------------------------------------------- workload

// The input file and the engine over it.
struct World {
  dfs::DfsNamespace ns;
  dfs::BlockStore store;
  std::unique_ptr<workloads::tpch::LineitemGenerator> lineitem;
  std::unique_ptr<dfs::BlockSource> base;
  std::unique_ptr<e2e::ProbedBlockSource> source;
  sched::FileCatalog catalog;
  cluster::Topology topology = cluster::Topology::uniform(4, 2);
  FileId file;
  std::unique_ptr<engine::LocalEngine> engine;  // last: uses the members above
};

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t state = seed * 0x9E3779B97F4A7C15ULL + stream;
  return splitmix64(state);
}

std::unique_ptr<World> build_world(const Options& opt, const Shape& shape,
                                   e2e::LayerProbe& probe,
                                   std::size_t workers) {
  auto world = std::make_unique<World>();
  const ByteSize block_size = ByteSize::kib(shape.block_kib);
  dfs::PlacementTopology ptopo;
  for (const auto& node : world->topology.nodes()) {
    ptopo.nodes.push_back({node.id, node.rack});
  }
  dfs::RoundRobinPlacement placement(ptopo);
  if (opt.workload->kind == Kind::kSelection) {
    // Metadata only: the generator is the dataset and every fetch
    // synthesizes its block.
    world->lineitem = std::make_unique<workloads::tpch::LineitemGenerator>(
        derive_seed(opt.seed, 1));
    world->file = world->ns.create_file("lineitem.tbl", block_size).value();
    for (std::uint64_t b = 0; b < shape.blocks; ++b) {
      const BlockId block =
          world->ns.append_block(world->file, block_size).value();
      S3_CHECK(world->ns.set_replicas(block, placement.place(b, 1)).is_ok());
    }
    const workloads::tpch::LineitemGenerator* gen = world->lineitem.get();
    world->base = std::make_unique<dfs::GeneratedBlockSource>(
        world->ns, world->file, [gen, block_size](std::uint64_t index) {
          return gen->generate_block(index, block_size);
        });
  } else {
    // The vocabulary, and so the word statistics, is the generator's
    // default; --seed picks which blocks of its stream form the file. A
    // seeded vocabulary would change the work per MiB from seed to seed.
    const workloads::TextCorpusGenerator corpus;
    const std::uint64_t first_block = derive_seed(opt.seed, 2) >> 32;
    std::vector<std::string> payloads(shape.blocks);
    {
      // generate_block is const and thread-safe; the namespace is not, so
      // only the synthesis runs on the workers.
      std::vector<std::thread> threads;
      for (std::size_t t = 0; t < workers; ++t) {
        threads.emplace_back([&, t] {
          for (std::size_t b = t; b < payloads.size(); b += workers) {
            payloads[b] = corpus.generate_block(first_block + b, block_size);
          }
        });
      }
      for (auto& thread : threads) thread.join();
    }
    world->file = world->ns.create_file("corpus.txt", block_size).value();
    for (std::uint64_t b = 0; b < shape.blocks; ++b) {
      std::string& payload = payloads[b];
      const BlockId block =
          world->ns.append_block(world->file, ByteSize(payload.size()))
              .value();
      S3_CHECK(world->ns.set_replicas(block, placement.place(b, 1)).is_ok());
      S3_CHECK(world->store.put(block, std::move(payload)).is_ok());
    }
    world->base = std::make_unique<dfs::StoredBlocks>(world->store);
  }
  world->catalog.add(world->file, shape.blocks);
  world->source =
      std::make_unique<e2e::ProbedBlockSource>(*world->base, probe);
  engine::LocalEngineOptions eopts;
  eopts.map_workers = workers;
  eopts.reduce_workers = workers;
  world->engine =
      std::make_unique<engine::LocalEngine>(world->ns, *world->source, eopts);
  return world;
}

// One job of the mix: `variant` is a prefix letter index (wordcount) or the
// l_quantity bound (selection).
struct JobKind {
  int variant = 0;
  [[nodiscard]] std::string key(Kind kind) const {
    switch (kind) {
      case Kind::kSparse:
      case Kind::kService:
        return std::string("wordcount:") + kLetters[variant];
      case Kind::kDense:
        return "heavy:x2";
      case Kind::kSelection:
        return "selection:q<=" + std::to_string(variant);
    }
    return "";
  }
};

engine::JobSpec make_job(Kind kind, JobKind job, JobId id, FileId file) {
  switch (kind) {
    case Kind::kSparse:
      return workloads::make_wordcount_job(
          id, file, std::string(1, kLetters[job.variant]), kReduceTasks);
    case Kind::kDense:
      return workloads::make_heavy_wordcount_job(id, file, /*amplify=*/2,
                                                 kReduceTasks);
    case Kind::kSelection:
      return workloads::tpch::make_selection_job(id, file, job.variant,
                                                 kReduceTasks);
    case Kind::kService:
      return workloads::make_wordcount_job(
          id, file, std::string(1, kLetters[job.variant]),
          kServiceReduceTasks);
  }
  S3_CHECK_MSG(false, "unknown workload kind");
  return {};
}

// Every job a rep's mix can hold, in JobKind order. The first is the probe
// job (see Bench::run_rep).
std::vector<JobKind> every_job(Kind kind) {
  std::vector<JobKind> jobs;
  switch (kind) {
    case Kind::kSparse:
    case Kind::kService:
      for (int j = 0; j < 10; ++j) jobs.push_back({j});
      break;
    case Kind::kDense:
      jobs.push_back({});
      break;
    case Kind::kSelection:
      for (int q = 1; q <= 5; ++q) jobs.push_back({q});
      break;
  }
  return jobs;
}

// Arrival schedule and job mix of one rep. Each rep draws its own from the
// seeded stream, so a run's values cover several draws rather than the one
// a seed would pick.
struct Mix {
  std::vector<JobKind> jobs;
  // Seconds: virtual times (W1-W3) or wall offsets (W4).
  std::vector<double> arrivals;
  std::vector<std::uint64_t> tenants;  // s3d_poisson only
};

// `unit` is the rep's solo scan in seconds (unused by selection_generated).
Mix make_mix(Kind kind, const Shape& shape, double unit, Rng& rng) {
  Mix mix;
  switch (kind) {
    case Kind::kSparse:
      // Prefixes a..j in seeded order: the seed moves the heavy prefixes
      // between arrival groups without changing the total work.
      mix.jobs = every_job(kind);
      std::shuffle(mix.jobs.begin(), mix.jobs.end(), rng);
      mix.arrivals = workloads::sparse_groups(
          {3, 3, 4}, kSparseGroupGap * unit, kSparseIntraGap * unit);
      break;
    case Kind::kDense:
      mix.jobs.assign(10, JobKind{});
      mix.arrivals = workloads::dense_pattern(10, kDenseGap * unit);
      break;
    case Kind::kSelection:
      for (int j = 0; j < 10; ++j) mix.jobs.push_back({1 + j % 5});
      mix.arrivals = workloads::sparse_groups({3, 3, 4}, kSelectionGroupGapS,
                                              kSelectionIntraGapS);
      break;
    case Kind::kService: {
      // The window is fixed in seconds and the rate in solo runs, so the
      // offered load, and the queueing it causes, is the same at any host
      // speed.
      const auto n = static_cast<std::size_t>(
          std::max(1LL, std::llround(shape.window_s / (kServiceGap * unit))));
      // A Poisson process conditioned on n arrivals in the window: n sorted
      // uniform times. Every rep's window then has the same length.
      for (std::size_t i = 0; i < n; ++i) {
        mix.arrivals.push_back(rng.uniform(0.0, shape.window_s));
      }
      std::sort(mix.arrivals.begin(), mix.arrivals.end());
      // Prefixes a..j and the three tenants in equal shares, in seeded
      // order. Drawn per job from a..z, the heavy prefixes' share set the
      // run: seed 2 read 13-18% above seed 6 in ART and p90, and 10% above
      // in peak_rss_mib, run after run.
      for (std::size_t i = 0; i < n; ++i) {
        mix.jobs.push_back({static_cast<int>(i % 10)});
        mix.tenants.push_back(i % 3);
      }
      std::shuffle(mix.jobs.begin(), mix.jobs.end(), rng);
      std::shuffle(mix.tenants.begin(), mix.tenants.end(), rng);
      break;
    }
  }
  return mix;
}

// ------------------------------------------------------------------- reps

struct RepStats {
  bool traced = false;
  double wall_s = 0.0;
  double tet_s = 0.0;
  double art_s = 0.0;
  std::vector<double> responses;
  std::vector<double> waits;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;      // quarantined, shed, rejected, unfinished
  std::uint64_t mismatched = 0;  // finished with a wrong output
  std::string error;             // driver error, if any
  double scan_unit_s = 0.0;      // the rep's unit (0: selection_generated)
  bool rss_reset = false;        // VmHWM was reset before the rep
  double peak_rss_mib = 0.0;     // VmHWM over this rep
  e2e::TimedScheduler::Ledger ledger;  // wave split only when traced
  // Traced reps only.
  e2e::WorkerTotals workers;
  engine::ScanCounters scan;
  std::uint64_t retries = 0;
  double map_output_bytes = 0.0;
  double map_output_records = 0.0;
  double combine_output_records = 0.0;
  // s3d_poisson only.
  std::vector<double> submit_s;
  std::vector<double> gen_late_s;
  service::SubmissionService::Counts service;
};

class Bench {
 public:
  Bench(const Options& opt, const Shape& shape, std::unique_ptr<World> world,
        e2e::LayerProbe& probe, std::size_t workers)
      : opt_(opt),
        kind_(opt.workload->kind),
        shape_(shape),
        world_(std::move(world)),
        probe_(&probe),
        workers_(workers),
        rng_(derive_seed(opt.seed, 3)) {}

  // Runs every job a mix can hold alone, as one whole-file FIFO batch, and
  // keeps a digest of its output. Returns the wall time it took.
  double compute_references() {
    const double start = wall_now();
    std::vector<core::RealJob> jobs;
    std::map<JobId, std::string> keys;
    for (const JobKind& job : every_job(kind_)) {
      const JobId id(next_job_id_++);
      keys[id] = job.key(kind_);
      jobs.push_back({make_job(kind_, job, id, world_->file), 0.0, 0});
    }
    auto fifo = workloads::make_fifo(world_->catalog);
    core::RealDriver driver(world_->ns, *world_->engine, world_->catalog,
                            {1.0, static_cast<int>(workers_)});
    auto result = driver.run(*fifo, std::move(jobs));
    S3_CHECK_MSG(result.is_ok(), "reference run failed: " << result.status());
    for (auto& [id, output] : result.value().outputs) {
      references_[keys.at(id)] = digest(output.output);
    }
    S3_CHECK(references_.size() == keys.size());
    if (opt_.corrupt_digest) references_.begin()->second ^= 1;
    return wall_now() - start;
  }

  // One rep: solo runs of the probe job, which set the rep's unit and mix,
  // then the rep with its own VmHWM (reset after the probes, read at the
  // end). The warm-up rep fills the probe window.
  RepStats run_rep(bool traced, bool warm_up = false) {
    RepStats stats;
    const std::size_t window = probes_per_rep() * kUnitWindow;
    const std::size_t probes = warm_up ? window : probes_per_rep();
    for (std::size_t i = 0; i < probes; ++i) {
      probe_times_.push_back(solo_scan(stats));
    }
    if (window > 0) {
      stats.scan_unit_s = median(std::vector<double>(
          probe_times_.end() - static_cast<std::ptrdiff_t>(window),
          probe_times_.end()));
    }
    mix_ = make_mix(kind_, shape_, stats.scan_unit_s, rng_);
    stats.rss_reset = reset_peak_rss();
    if (kind_ == Kind::kService) {
      run_service_rep(traced, stats);
    } else {
      run_batch_rep(traced, stats);
    }
    stats.peak_rss_mib = peak_rss_mib();
    return stats;
  }

 private:
  // selection_generated's gaps are fixed, so it runs no probe.
  // s3d_poisson's ~15 ms probe jitters by tens of percent from wake-up
  // latency, so it runs five per rep.
  [[nodiscard]] std::size_t probes_per_rep() const {
    switch (kind_) {
      case Kind::kSparse:
      case Kind::kDense:
        return 1;
      case Kind::kSelection:
        return 0;
      case Kind::kService:
        return 5;
    }
    return 1;
  }

  std::unique_ptr<sched::Scheduler> make_scheduler() const {
    if (opt_.scheduler == "fifo") return workloads::make_fifo(world_->catalog);
    if (opt_.scheduler == "mrs1") return workloads::make_mrs1(world_->catalog);
    return workloads::make_s3(world_->catalog, world_->topology,
                              shape_.segment_blocks);
  }

  engine::JobSpec job_spec(std::size_t j, JobId id, bool traced) const {
    engine::JobSpec spec = make_job(kind_, mix_.jobs[j], id, world_->file);
    return traced ? probe_->wrap(std::move(spec)) : spec;
  }

  // Checks one job's output against its reference. A job without output
  // counts as failed and returns false.
  bool check_output(RepStats& stats, core::RealRunResult& result,
                    JobKind job, JobId id) {
    auto it = result.outputs.find(id);
    if (it == result.outputs.end()) {
      stats.failed += 1;
      return false;
    }
    if (digest(it->second.output) != references_.at(job.key(kind_))) {
      stats.mismatched += 1;
    }
    return true;
  }

  // Runs the probe job alone as one whole-file FIFO batch, untraced, checks
  // its output, and returns the wall time of the driver call.
  double solo_scan(RepStats& stats) {
    const JobKind probe = every_job(kind_).front();
    const JobId id(next_job_id_++);
    std::vector<core::RealJob> jobs;
    jobs.push_back({make_job(kind_, probe, id, world_->file), 0.0, 0});
    auto fifo = workloads::make_fifo(world_->catalog);
    core::RealDriver driver(world_->ns, *world_->engine, world_->catalog,
                            {1.0, static_cast<int>(workers_)});
    stats.attempted += 1;
    const double start = wall_now();
    auto result = driver.run(*fifo, std::move(jobs));
    const double elapsed = wall_now() - start;
    if (!result.is_ok()) {
      stats.error = result.status().to_string();
      stats.failed += 1;
    } else {
      check_output(stats, result.value(), probe, id);
    }
    return elapsed;
  }

  void before_run(bool traced, RepStats& stats) {
    stats.traced = traced;
    probe_->reset();
    probe_->set_enabled(traced);
    scan_before_ = world_->engine->scan_counters();
    retries_before_ = world_->engine->failed_attempts();
  }

  void after_run(const core::RealRunResult& result, RepStats& stats) {
    probe_->set_enabled(false);
    stats.failed += result.failed.size();
    if (!stats.traced) return;
    stats.workers = probe_->totals();
    const engine::ScanCounters scan = world_->engine->scan_counters();
    stats.scan.blocks_physical =
        scan.blocks_physical - scan_before_.blocks_physical;
    stats.scan.blocks_logical =
        scan.blocks_logical - scan_before_.blocks_logical;
    stats.retries = world_->engine->failed_attempts() - retries_before_;
    for (const auto& [id, counters] : result.counters) {
      stats.map_output_bytes += static_cast<double>(counters.map_output_bytes);
      stats.map_output_records +=
          static_cast<double>(counters.map_output_records);
      stats.combine_output_records +=
          static_cast<double>(counters.combine_output_records);
    }
  }

  // W1-W3: the arrival schedule replayed by RealDriver::run in its virtual
  // timebase, timed by the charged clock.
  void run_batch_rep(bool traced, RepStats& stats) {
    const std::uint64_t base = next_job_id_;
    next_job_id_ += mix_.jobs.size();
    std::vector<core::RealJob> jobs;
    for (std::size_t j = 0; j < mix_.jobs.size(); ++j) {
      jobs.push_back(
          {job_spec(j, JobId(base + j), traced), mix_.arrivals[j], 0});
    }
    auto inner = make_scheduler();
    e2e::TimedScheduler timed(*inner, traced ? probe_ : nullptr);
    core::RealDriver driver(world_->ns, *world_->engine, world_->catalog,
                            {1.0, static_cast<int>(workers_)});
    stats.attempted += jobs.size();

    before_run(traced, stats);
    const double start = wall_now();
    timed.begin(start);
    auto result = driver.run(timed, std::move(jobs));
    const double end = wall_now();
    timed.end(end);
    stats.wall_s = end - start;
    if (!result.is_ok()) {
      probe_->set_enabled(false);
      stats.error = result.status().to_string();
      stats.failed = stats.attempted;
      return;
    }
    after_run(result.value(), stats);
    stats.ledger = timed.ledger();

    double first_arrival = 1e300;
    double last_done = -1e300;
    for (std::size_t j = 0; j < mix_.jobs.size(); ++j) {
      const JobId id(base + j);
      if (!check_output(stats, result.value(), mix_.jobs[j], id)) continue;
      const auto it = timed.jobs().find(id);
      if (it == timed.jobs().end() || it->second.arrival_c < 0.0 ||
          it->second.done_c < 0.0 || it->second.start_c < 0.0) {
        stats.failed += 1;
        continue;
      }
      const auto& s = it->second;
      first_arrival = std::min(first_arrival, s.arrival_c);
      last_done = std::max(last_done, s.done_c);
      stats.responses.push_back(s.done_c - s.arrival_c);
      stats.waits.push_back(s.start_c - s.arrival_c);
    }
    stats.tet_s = last_done - first_arrival;
    stats.art_s = mean(stats.responses);
  }

  // W4: an open-loop Poisson stream into a SubmissionService, each job
  // submitted at its wall-clock due time, served by RealDriver::run_service.
  void run_service_rep(bool traced, RepStats& stats) {
    const std::size_t n = mix_.jobs.size();
    const std::uint64_t base = next_job_id_;
    next_job_id_ += n;

    service::SubmissionService svc({/*global_queue_bound=*/256, {}});
    for (std::uint64_t t = 0; t < 3; ++t) {
      service::TenantQuota quota;
      quota.rate_jobs_per_sec = 1e4;
      quota.burst = 1e4;
      quota.max_queued = 256;
      quota.max_inflight = 256;
      quota.weight = t == 2 ? 2.0 : 1.0;
      S3_CHECK(svc.register_tenant(TenantId(t), "tenant-" + std::to_string(t),
                                   quota)
                   .is_ok());
    }
    std::vector<service::Submission> subs(n);
    for (std::size_t i = 0; i < n; ++i) {
      subs[i].tenant = TenantId(mix_.tenants[i]);
      subs[i].spec = job_spec(i, JobId(base + i), traced);
      subs[i].arrival = mix_.arrivals[i];
    }
    auto inner = make_scheduler();
    e2e::TimedScheduler timed(*inner, traced ? probe_ : nullptr);
    core::RealDriver driver(world_->ns, *world_->engine, world_->catalog,
                            {1.0, static_cast<int>(workers_)});
    stats.attempted += n;

    std::vector<double> due(n, 0.0);
    std::vector<service::AdmitCode> codes(n, service::AdmitCode::kRejected);
    stats.submit_s.assign(n, 0.0);
    stats.gen_late_s.assign(n, 0.0);
    before_run(traced, stats);
    // The first due time leaves the driver a moment to park.
    const auto lead = std::chrono::milliseconds(20);
    const auto base_point = std::chrono::steady_clock::now() + lead;
    const double base_wall = wall_now() + 0.020;
    std::thread submitter([&] {
      for (std::size_t i = 0; i < n; ++i) {
        due[i] = base_wall + mix_.arrivals[i];
        std::this_thread::sleep_until(
            base_point + std::chrono::duration_cast<
                             std::chrono::steady_clock::duration>(
                             std::chrono::duration<double>(mix_.arrivals[i])));
        const double sent = wall_now();
        stats.gen_late_s[i] = sent - due[i];
        service::Submission sub = subs[i];
        service::AdmissionDecision decision = svc.submit(sub);
        for (int retry = 0;
             retry < 2 && decision.code == service::AdmitCode::kRetryAfter;
             ++retry) {
          sub.arrival += decision.retry_after;
          decision = svc.submit(sub);
        }
        stats.submit_s[i] = wall_now() - sent;
        codes[i] = decision.code;
      }
      svc.close();
    });
    const double start = wall_now();
    timed.begin(start);
    auto result = driver.run_service(timed, svc);
    const double end = wall_now();
    timed.end(end);
    submitter.join();
    stats.wall_s = end - start;
    stats.service = svc.counts();
    if (!result.is_ok()) {
      probe_->set_enabled(false);
      stats.error = result.status().to_string();
      stats.failed = stats.attempted;
      return;
    }
    after_run(result.value(), stats);
    stats.ledger = timed.ledger();

    double first_due = 1e300;
    double last_done = -1e300;
    for (std::size_t i = 0; i < n; ++i) {
      if (codes[i] != service::AdmitCode::kAdmitted) {
        stats.failed += 1;  // rejected, shed or retry-exhausted
        continue;
      }
      const JobId id(base + i);
      if (!check_output(stats, result.value(), mix_.jobs[i], id)) continue;
      const auto it = timed.jobs().find(id);
      if (it == timed.jobs().end() || it->second.done_wall < 0.0 ||
          it->second.start_wall < 0.0) {
        stats.failed += 1;
        continue;
      }
      first_due = std::min(first_due, due[i]);
      last_done = std::max(last_done, it->second.done_wall);
      stats.responses.push_back(it->second.done_wall - due[i]);
      stats.waits.push_back(it->second.start_wall - due[i]);
    }
    stats.tet_s = last_done - first_due;
    stats.art_s = mean(stats.responses);
  }

  const Options& opt_;
  Kind kind_;
  Shape shape_;
  std::unique_ptr<World> world_;
  e2e::LayerProbe* probe_;
  std::size_t workers_;
  Rng rng_;  // draws every rep's mix
  Mix mix_;  // the current rep's
  std::vector<double> probe_times_;
  std::map<std::string, std::uint64_t> references_;
  std::uint64_t next_job_id_ = 0;
  engine::ScanCounters scan_before_;
  std::uint64_t retries_before_ = 0;
};

// --------------------------------------------------------------- metrics

struct Metric {
  std::string name;
  std::string unit;
  std::vector<double> samples;  // one per rep; empty for a single value
  double value = 0.0;
};

// Wall time of the driver call that no ledger row accounts for.
double residual_s(const RepStats& r) {
  const auto& l = r.ledger;
  return r.wall_s -
         (l.register_s + l.decide_s + l.batch_s + l.finalize_s + l.idle_s);
}

// Per-layer values of one traced rep, by metric name.
std::vector<std::pair<std::string, std::pair<double, std::string>>> layer_rows(
    const RepStats& r, std::size_t workers) {
  const auto& l = r.ledger;
  const auto& w = r.workers;
  const double residual = residual_s(r);
  const double per_worker = static_cast<double>(workers);
  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  std::vector<double> next_batch_us;
  for (const double s : l.next_batch_s) next_batch_us.push_back(s * 1e6);
  std::vector<double> submit_us;
  for (const double s : r.submit_s) submit_us.push_back(s * 1e6);
  return {
      {"engine.register_s", {l.register_s, "s"}},
      {"sched.decide_s", {l.decide_s, "s"}},
      {"engine.batch_s", {l.batch_s, "s"}},
      {"engine.map_wave_s", {l.map_wave_s, "s"}},
      {"engine.reduce_wave_s", {l.reduce_wave_s, "s"}},
      {"engine.batch_other_s",
       {l.batch_s - l.map_wave_s - l.reduce_wave_s, "s"}},
      {"engine.finalize_s", {l.finalize_s, "s"}},
      {"engine.finalize_rereduce_s", {w.rereduce_s, "s"}},
      {"core.idle_s", {l.idle_s, "s"}},
      {"ledger.residual_s", {residual, "s"}},
      {"ledger.residual_frac", {ratio(residual, r.wall_s), "ratio"}},
      {"ledger.wall_s", {r.wall_s, "s"}},
      {"dfs.fetch_s", {w.fetch_s, "s"}},
      {"dfs.fetches", {static_cast<double>(w.fetches), "count"}},
      {"dfs.fetch_mib_per_s",
       {ratio(w.fetch_bytes / kMiB, w.fetch_s), "MiB/s"}},
      {"workloads.scan_map_s", {w.scan_map_s, "s"}},
      {"engine.combine_s", {w.combine_s, "s"}},
      {"engine.publish_s", {w.publish_s, "s"}},
      {"engine.map_task_busy_s", {w.map_task_busy_s, "s"}},
      {"engine.map_util",
       {ratio(w.map_task_busy_s, l.map_wave_s * per_worker), "ratio"}},
      {"engine.reduce_task_busy_s", {w.reduce_task_busy_s, "s"}},
      {"engine.reduce_util",
       {ratio(w.reduce_task_busy_s, l.reduce_wave_s * per_worker), "ratio"}},
      {"sched.batches", {static_cast<double>(l.batches), "count"}},
      {"sched.members_per_batch",
       {ratio(static_cast<double>(l.members), static_cast<double>(l.batches)),
        "count"}},
      {"sched.sharing_ratio",
       {ratio(static_cast<double>(r.scan.blocks_logical),
              static_cast<double>(r.scan.blocks_physical)),
        "ratio"}},
      {"sched.wait_mean_s", {mean(r.waits), "s"}},
      {"sched.next_batch_us_p99", {quantile(next_batch_us, 0.99), "us"}},
      {"engine.map_output_mib", {r.map_output_bytes / kMiB, "MiB"}},
      // No combiner ran when nothing came out of one.
      {"engine.combine_ratio",
       {r.combine_output_records > 0.0
            ? ratio(r.combine_output_records, r.map_output_records)
            : 1.0,
        "ratio"}},
      {"engine.task_retries", {static_cast<double>(r.retries), "count"}},
      {"service.submit_us_p50", {quantile(submit_us, 0.5), "us"}},
      {"service.submit_us_p99", {quantile(submit_us, 0.99), "us"}},
      {"service.admitted", {static_cast<double>(r.service.admitted), "count"}},
      {"service.retry_after",
       {static_cast<double>(r.service.retry_after), "count"}},
      {"service.shed", {static_cast<double>(r.service.shed), "count"}},
      {"bench.gen_late_p99_ms", {quantile(r.gen_late_s, 0.99) * 1e3, "ms"}},
      {"bench.scan_unit_s", {r.scan_unit_s, "s"}},
  };
}

void print_metric(const Metric& m) {
  std::printf("  %-28s %14.6f %-6s", m.name.c_str(), m.value, m.unit.c_str());
  if (m.samples.size() > 1) {
    std::printf("  q1 %.6f  q3 %.6f  n=%zu", quantile(m.samples, 0.25),
                quantile(m.samples, 0.75), m.samples.size());
  }
  std::printf("\n");
}

std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::vector<Metric>& metrics) {
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}}";
}

int run(const Options& opt) {
  const Shape shape = opt.smoke ? opt.workload->smoke : opt.workload->full;
  const std::size_t workers = std::min<std::size_t>(4, usable_cpus());
  const char* flight = std::getenv("S3_FLIGHT");

  metrics::JsonObject meta;
  meta.field("workload", std::string(opt.workload->name))
      .field("scheduler", opt.scheduler)
      .field("seed", opt.seed)
      .field("seconds", opt.seconds)
      .field("trace", opt.trace)
      .field("smoke", opt.smoke)
      .field("nproc", static_cast<std::uint64_t>(usable_cpus()))
      .field("workers", static_cast<std::uint64_t>(workers))
      .field("cpu", cpu_model())
      .field("kernel", kernel_release())
      .field("compiler", std::string(__VERSION__))
      .field("build_type", std::string(E2E_BUILD_TYPE))
      .field("git_sha", opt.git_sha)
      .field("s3_flight", std::string(flight != nullptr ? flight : "default"))
      .field("date", utc_date());
  std::printf("meta %s\n", meta.str().c_str());

  // Set-up is repeated and its median reported; a cheap set-up (the
  // generated lineitem has no data to build) is repeated more often so its
  // median is not one thread-spawn's jitter.
  e2e::LayerProbe probe(std::this_thread::get_id());
  std::vector<double> setups;
  std::unique_ptr<World> world;
  const double setup_start = wall_now();
  while (setups.size() < kMinSetups ||
         (setups.size() < kMaxSetups &&
          wall_now() - setup_start < kSetupBudgetS)) {
    world.reset();
    const double start = wall_now();
    world = build_world(opt, shape, probe, workers);
    setups.push_back(wall_now() - start);
  }
  Bench bench(opt, shape, std::move(world), probe, workers);
  const double verify_s = bench.compute_references();
  // Hand back what the discarded set-ups and the reference freed, so every
  // process starts its reps from the same resident baseline; otherwise the
  // allocator's leftovers moved peak_rss_mib by up to 20% between runs.
  malloc_trim(0);
  std::printf("setup %.4f s (median of %zu), reference %.4f s\n",
              median(setups), setups.size(), verify_s);

  // Each rep reports its own VmHWM (see Bench::run_rep). One rep that
  // catches the allocator at a bad moment then moves the median, not the
  // whole run's peak.
  bool rss_reset = true;
  const auto measured_rep = [&](bool traced) {
    RepStats r = bench.run_rep(traced);
    rss_reset = r.rss_reset && rss_reset;
    return r;
  };

  std::vector<std::string> problems;
  const auto check_rep = [&](const RepStats& r) {
    if (!r.error.empty()) problems.push_back("driver error: " + r.error);
    if (r.failed > 0) {
      problems.push_back(std::to_string(r.failed) + " job(s) failed");
    }
    if (r.mismatched > 0) {
      problems.push_back(std::to_string(r.mismatched) +
                         " output(s) differ from the reference");
    }
    if (r.traced && r.error.empty()) {
      if (std::fabs(residual_s(r)) > kMaxResidualFrac * r.wall_s) {
        problems.push_back("ledger residual above 5% of wall");
      }
    }
  };

  check_rep(bench.run_rep(false, /*warm_up=*/true));

  // Reps until --seconds have passed: timed reps, or timed and traced reps
  // alternating. The traced ledger wants at least three traced reps.
  // s3d_poisson: a rep whose generator missed its schedule (p99 lateness
  // above 10 ms, seen when the host stalls the submitter thread) did not
  // offer the specified load. It is counted in bench.late_reps and replaced,
  // not measured; a run that keeps no rep fails.
  const std::size_t min_reps =
      opt.smoke ? (opt.trace ? 2 : 1)
                : (opt.trace ? (opt.workload->kind == Kind::kService ? 2 : 6)
                             : 3);
  std::vector<RepStats> timed;
  std::vector<RepStats> traced;
  std::size_t late_reps = 0;
  std::uint64_t attempted = 0;  // jobs of every measured rep
  std::uint64_t failed = 0;
  const double deadline = wall_now() + opt.seconds;
  const double hard_stop = deadline + opt.seconds;
  double last_rep = 0.0;
  while (true) {
    const bool trace_turn = opt.trace && timed.size() > traced.size();
    const double start = wall_now();
    RepStats r = measured_rep(trace_turn);
    check_rep(r);
    last_rep = wall_now() - start;
    const bool late = !r.gen_late_s.empty() &&
                      quantile(r.gen_late_s, 0.99) > kMaxGenLateS;
    std::printf(
        "rep %zu %s scan_unit_s=%.4f wall_s=%.4f tet_s=%.4f art_s=%.4f "
        "jobs=%zu batches=%llu members=%llu%s\n",
        timed.size() + traced.size() + late_reps,
        trace_turn ? "traced" : "timed", r.scan_unit_s, r.wall_s, r.tet_s,
        r.art_s,
        r.responses.size(), static_cast<unsigned long long>(r.ledger.batches),
        static_cast<unsigned long long>(r.ledger.members),
        late ? " discarded: generator p99 late above 10 ms" : "");
    attempted += r.attempted;
    failed += r.failed + r.mismatched;
    if (late) {
      ++late_reps;
    } else {
      (trace_turn ? traced : timed).push_back(std::move(r));
    }
    const double now = wall_now();
    if ((timed.size() + traced.size() >= min_reps &&
         now + last_rep > deadline) ||
        (late_reps > 0 && now > hard_stop)) {
      break;
    }
  }
  if (timed.empty() || (opt.trace && traced.empty())) {
    problems.push_back("no rep kept its arrival schedule");
  }

  const bool correct = problems.empty();

  std::vector<Metric> metrics;
  const auto per_rep = [](const std::vector<RepStats>& reps, auto field) {
    std::vector<double> xs;
    for (const RepStats& r : reps) xs.push_back(field(r));
    return xs;
  };
  if (!opt.trace) {
    std::size_t responses = 0;
    for (const RepStats& r : timed) responses += r.responses.size();
    metrics.push_back({"setup_s", "s", setups, median(setups)});
    const auto over_reps = [&](const char* name, const char* unit,
                               auto field) {
      const auto xs = per_rep(timed, field);
      metrics.push_back({name, unit, xs, trimmed_mean(xs)});
    };
    over_reps("tet_s", "s", [](const RepStats& r) { return r.tet_s; });
    over_reps("art_s", "s", [](const RepStats& r) { return r.art_s; });
    // Each rep's own quantiles: pooled, one rep caught in a slow phase of
    // the host put most of its jobs beyond the run's p90.
    over_reps("response_p50_s", "s",
              [](const RepStats& r) { return quantile(r.responses, 0.5); });
    over_reps("response_p90_s", "s",
              [](const RepStats& r) { return quantile(r.responses, 0.9); });
    over_reps("wall_s", "s", [](const RepStats& r) { return r.wall_s; });
    over_reps("peak_rss_mib", "MiB",
              [](const RepStats& r) { return r.peak_rss_mib; });
    std::printf("end-to-end (%zu timed reps, %zu responses):\n",
                timed.size(), responses);
    if (!rss_reset) std::printf("note: VmHWM could not be reset\n");
  } else {
    std::map<std::string, std::vector<double>> samples;
    std::vector<std::pair<std::string, std::string>> order;
    for (const RepStats& r : traced) {
      if (!r.error.empty()) continue;
      for (const auto& [name, value] : layer_rows(r, workers)) {
        if (samples.count(name) == 0) order.emplace_back(name, value.second);
        samples[name].push_back(value.first);
      }
    }
    for (const auto& [name, unit] : order) {
      metrics.push_back({name, unit, samples[name], median(samples[name])});
    }
    const auto wall_timed =
        per_rep(timed, [](const RepStats& r) { return r.wall_s; });
    const auto wall_traced =
        per_rep(traced, [](const RepStats& r) { return r.wall_s; });
    const double overhead =
        timed.empty() || traced.empty()
            ? 0.0
            : (median(wall_traced) / median(wall_timed) - 1.0) * 100.0;
    metrics.push_back({"obs.trace_overhead_pct", "%", {}, overhead});
    metrics.push_back({"bench.verify_s", "s", {}, verify_s});
    metrics.push_back({"bench.late_reps", "count", {},
                       static_cast<double>(late_reps)});
    std::printf("per-layer (median of %zu traced reps; %zu timed reps):\n",
                traced.size(), timed.size());
  }
  for (const Metric& m : metrics) print_metric(m);
  std::printf(
      "verify_s %.4f  failed_frac %.6f (%llu/%llu)  late_reps %zu\n",
      verify_s,
      attempted > 0
          ? static_cast<double>(failed) / static_cast<double>(attempted)
          : 0.0,
      static_cast<unsigned long long>(failed),
      static_cast<unsigned long long>(attempted), late_reps);
  for (const std::string& p : problems) std::printf("FAIL: %s\n", p.c_str());
  std::printf("%s\n", result_json(correct, attempted, failed, metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  std::string error;
  if (!parse_options(argc, argv, opt, error)) {
    std::fprintf(stderr, "e2e_ledger: %s\n", error.c_str());
    return 2;
  }
  return run(opt);
}
