// Repository benchmark: runs one workload for a fixed host-time budget
// and prints every metric by name and unit. The last line of standard
// output is one JSON object {correct, attempted, failed, metrics}.
//
//   perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>
//             [--engine-threads <n>]   (leafspine_512 only, default 1)
//
// --trace 0 reports the end-to-end metrics from untraced cells
// (trace::Mode::kOff), with host time measured in CPU time and scaled
// by a reference kernel to seconds of a fixed machine (host_time.hpp). --trace 1 alternates untraced and traced
// (kCounters) cells and reports the per-layer metrics from the traced
// ones. Workloads and metrics are described in README.md.

#include <sys/resource.h>
#include <sched.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <charconv>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>
#include <exception>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "alloc_counter.hpp"
#include "cell.hpp"
#include "host_time.hpp"
#include "check/explorer.hpp"
#include "check/repl_explorer.hpp"
#include "mem/device.hpp"
#include "mem/llc.hpp"
#include "sim/simulator.hpp"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using prdma::rpcs::System;
using prdma::trace::Mode;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------------------
// Workloads

enum class Workload { kP2pSmall, kP2pLarge, kLeafspine512, kCrashExplore };

constexpr std::array<std::pair<std::string_view, Workload>, 4> kWorkloads{{
    {"p2p_small", Workload::kP2pSmall},
    {"p2p_large", Workload::kP2pLarge},
    {"leafspine_512", Workload::kLeafspine512},
    {"crash_explore", Workload::kCrashExplore},
}};

constexpr std::array<System, 4> kDurableSystems{
    System::kWFlushRpc, System::kSFlushRpc, System::kWRFlushRpc,
    System::kSRFlushRpc};

// Ops per cell. Sized so one unit holds at least 10^4 latency samples
// (ten beyond the p999); leaf-spine hosts run 128 ops over 64 virtual
// clients, so every virtual client issues requests.
constexpr std::uint64_t kP2pSmallOpsPerVariant = 5000;
constexpr std::uint64_t kP2pLargeOpsPerVariant = 10000;
constexpr std::uint64_t kLeafspineOpsPerHost = 128;
constexpr std::uint64_t kCrashCellOpsPerVariant = 2500;
#ifdef __clang__
constexpr const char* kCompiler = "clang " __clang_version__;
#else
constexpr const char* kCompiler = "gcc " __VERSION__;
#endif
// Reference-kernel runs per calibration batch (see Runner::calibrate):
// before every unit, and before and after every exploration, which runs
// for seconds without a break.
constexpr int kKernelRunsPerBatch = 3;
constexpr int kKernelRunsAroundExploration = 12;
// Hard bound on one benchmark process; a livelocked cell fails here.
constexpr double kWatchdogSeconds = 150.0;

/// The cells of one unit of `w`. A unit is the smallest set of cells
/// that covers the workload; the benchmark repeats units until its
/// time budget is spent.
std::vector<CellSpec> unit_cells(Workload w, std::uint64_t seed,
                                 unsigned engine_threads, Mode mode) {
  prdma::bench::MicroConfig c;
  c.seed = seed;
  c.trace_mode = mode;
  std::vector<CellSpec> cells;
  switch (w) {
    case Workload::kP2pSmall:
    case Workload::kP2pLarge:
      c.object_size = w == Workload::kP2pSmall ? 32 : 64 * 1024;
      c.ops = w == Workload::kP2pSmall ? kP2pSmallOpsPerVariant
                                       : kP2pLargeOpsPerVariant;
      c.clients = 4;
      c.clients_per_host = 16;
      c.client_outstanding = 2;
      c.client_think_ns = 0;
      c.content_mode = prdma::mem::ContentMode::kShadow;
      for (const System s : kDurableSystems) cells.push_back({s, c});
      break;
    case Workload::kLeafspine512:
      c.objects = 512;
      c.object_size = 4096;
      c.clients = 511;
      c.ops = kLeafspineOpsPerHost * c.clients;
      c.jitter_sigma = 0.0;
      c.topology.preset = prdma::net::TopologyPreset::kLeafSpine;
      c.topology.hosts_per_rack = 16;
      c.topology.spines = 2;
      c.topology.trunk_prop_scale = 4.0;
      c.clients_per_host = 64;
      c.client_outstanding = 8;
      c.client_think_ns = 2000;
      c.engine_threads = engine_threads;
      cells.push_back({System::kWFlushRpc, c});
      break;
    case Workload::kCrashExplore:
      // Crash-free kFull cells in the explorer's shape (one client
      // host, window 8, 4 KiB writes over 4096 objects).
      c.objects = 4096;
      c.object_size = 4096;
      c.ops = kCrashCellOpsPerVariant;
      c.read_ratio = 0.0;
      c.clients = 1;
      c.clients_per_host = 8;
      c.client_outstanding = 8;
      c.client_think_ns = 0;
      c.content_mode = prdma::mem::ContentMode::kFull;
      for (const System s : kDurableSystems) cells.push_back({s, c});
      break;
  }
  return cells;
}

// ---------------------------------------------------------------------------
// Progress + watchdog

/// What the main thread has finished, published for the watchdog.
struct Progress {
  std::atomic<std::uint64_t> attempted{0};
  std::atomic<std::uint64_t> failed{0};
  std::atomic<std::uint64_t> in_flight{0};  ///< attempts of the open phase
  std::atomic<std::uint64_t> units{0};
  std::atomic<std::uint64_t> last_events{0};
  std::atomic<const char*> phase{"start"};
};

/// Ends the process with a diagnostic and a failed result when the run
/// outlives its bound, instead of letting a livelock hang the caller.
class Watchdog {
 public:
  Watchdog(std::string_view workload, const Progress& progress,
           double limit_s)
      : workload_(workload),
        progress_(progress),
        thread_([this, limit_s] { watch(limit_s); }) {}
  ~Watchdog() {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

 private:
  void watch(double limit_s) {
    std::unique_lock<std::mutex> lock(mu_);
    if (cv_.wait_for(lock, std::chrono::duration<double>(limit_s),
                     [this] { return done_; })) {
      return;
    }
    const std::uint64_t in_flight = progress_.in_flight.load();
    const std::uint64_t attempted = progress_.attempted.load() + in_flight;
    const std::uint64_t failed = progress_.failed.load() + in_flight;
    std::fprintf(stderr,
                 "watchdog: workload %.*s did not finish within %.0f s; "
                 "stuck in phase '%s' after %llu units; last counters: "
                 "attempted=%llu failed=%llu in_flight=%llu "
                 "last_unit_events=%llu\n",
                 static_cast<int>(workload_.size()), workload_.data(), limit_s,
                 progress_.phase.load(),
                 static_cast<unsigned long long>(progress_.units.load()),
                 static_cast<unsigned long long>(attempted),
                 static_cast<unsigned long long>(failed),
                 static_cast<unsigned long long>(in_flight),
                 static_cast<unsigned long long>(progress_.last_events.load()));
    std::printf(
        "{\"correct\": false, \"attempted\": %llu, \"failed\": %llu, "
        "\"metrics\": {}}\n",
        static_cast<unsigned long long>(std::max<std::uint64_t>(1, attempted)),
        static_cast<unsigned long long>(failed));
    std::fflush(stdout);
    std::_Exit(3);
  }

  std::string_view workload_;
  const Progress& progress_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;  ///< guarded by mu_
  std::thread thread_;  ///< last: starts after the members it reads
};

// ---------------------------------------------------------------------------
// Statistics helpers

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Quantile of a log-linear histogram with linear interpolation inside
/// the bucket that holds the requested rank (LatencyHistogram itself
/// returns the bucket midpoint, which hides small shifts).
double interpolated_quantile(const prdma::stats::LatencyHistogram& h,
                             double q) {
  using prdma::stats::LatencyHistogram;
  const std::uint64_t n = h.count();
  if (n == 0) return 0.0;
  const auto bucket_of_rank = [&](std::uint64_t rank) {
    // percentile() rounds q*n+0.5 down; this q selects exactly `rank`.
    const double q_rank = (static_cast<double>(rank) - 0.25) /
                          static_cast<double>(n);
    return LatencyHistogram::index_for(h.percentile(q_rank));
  };
  const std::uint64_t rank = std::clamp<std::uint64_t>(
      static_cast<std::uint64_t>(q * static_cast<double>(n) + 0.5), 1, n);
  const std::size_t b = bucket_of_rank(rank);
  std::uint64_t lo = 1;  // first rank in bucket b
  std::uint64_t hi = rank;
  while (lo < hi) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    if (bucket_of_rank(mid) < b) lo = mid + 1; else hi = mid;
  }
  const std::uint64_t first = lo;
  lo = rank;  // last rank in bucket b
  hi = n;
  while (lo < hi) {
    const std::uint64_t mid = lo + (hi - lo + 1) / 2;
    if (bucket_of_rank(mid) > b) hi = mid - 1; else lo = mid;
  }
  const std::uint64_t last = lo;
  const auto [b_lo, b_hi] = LatencyHistogram::bucket_range(b);
  const double width = static_cast<double>(b_hi - b_lo + 1);
  const double frac = (static_cast<double>(rank - first) + 0.5) /
                      static_cast<double>(last - first + 1);
  const double v = static_cast<double>(b_lo) + frac * width;
  return std::clamp(v, static_cast<double>(h.min()),
                    static_cast<double>(h.max()));
}

/// Sums a unit's cells into one CellResult: counters and host times
/// add, histograms merge, peaks take the maximum.
CellResult sum_cells(const std::vector<CellResult>& cells) {
  CellResult t;
  t.finished = true;
  for (const CellResult& c : cells) {
    t.build_s += c.build_s;
    t.deploy_s += c.deploy_s;
    t.start_s += c.start_s;
    t.run_s += c.run_s;
    t.setup_cpu_s += c.setup_cpu_s;
    t.run_cpu_s += c.run_cpu_s;
    t.barrier_s += c.barrier_s;
    t.allocs += c.allocs;
    t.ops_attempted += c.ops_attempted;
    t.ops_completed += c.ops_completed;
    t.finished = t.finished && c.finished;
    t.duration_ns += c.duration_ns;
    t.latency.merge(c.latency);
    t.durable_latency.merge(c.durable_latency);
    t.events += c.events;
    t.partitions = std::max(t.partitions, c.partitions);
    t.epochs += c.epochs;
    t.sim_pool_allocs += c.sim_pool_allocs;
    t.llc_lines_flushed += c.llc_lines_flushed;
    t.llc_evictions += c.llc_evictions;
    t.pm_bytes_written += c.pm_bytes_written;
    t.bytes_copied += c.bytes_copied;
    t.pool_acquires += c.pool_acquires;
    t.pool_outstanding_peak =
        std::max(t.pool_outstanding_peak, c.pool_outstanding_peak);
    t.pool_oversize_allocs += c.pool_oversize_allocs;
    t.rnic_packets += c.rnic_packets;
    t.rnic_flushes += c.rnic_flushes;
    t.rnic_rnr_events += c.rnic_rnr_events;
    t.rnic_retransmits += c.rnic_retransmits;
    t.net_packets += c.net_packets;
    t.net_bytes += c.net_bytes;
    t.net_switch_hops += c.net_switch_hops;
    t.net_max_port_queue_ns =
        std::max(t.net_max_port_queue_ns, c.net_max_port_queue_ns);
    t.net_pfc_pauses += c.net_pfc_pauses;
    t.net_drops += c.net_drops;
    t.backlog_peak = std::max(t.backlog_peak, c.backlog_peak);
    t.throttle_events += c.throttle_events;
    t.receiver_sw_ns += c.receiver_sw_ns;
    t.sender_sw_ns += c.sender_sw_ns;
    t.virtual_clients += c.virtual_clients;
    for (std::size_t i = 0; i < t.trace_ns.size(); ++i) {
      t.trace_ns[i] += c.trace_ns[i];
    }
  }
  return t;
}

double per(double x, std::uint64_t base) {
  return base == 0 ? 0.0 : x / static_cast<double>(base);
}
double per(std::uint64_t x, std::uint64_t base) {
  return per(static_cast<double>(x), base);
}

/// Host ns per cache line of a standalone Llc::write_shadow + clflush
/// of one `object_size` object, median of five timed batches.
double llc_ns_per_line(std::uint32_t object_size) {
  constexpr std::uint64_t kSlots = 64;
  const std::uint64_t stride = prdma::mem::line_up(object_size);
  const std::uint64_t lines = stride / prdma::mem::kCacheLine;
  const std::uint64_t iters =
      std::max<std::uint64_t>(256, (std::uint64_t{1} << 20) / lines);
  prdma::sim::Simulator sim;
  prdma::mem::PmDevice pm(sim, "pm", kSlots * stride, {});
  prdma::mem::Llc llc(sim, pm, {});
  std::vector<double> samples;
  for (int rep = 0; rep < 5; ++rep) {
    const Clock::time_point t0 = Clock::now();
    for (std::uint64_t i = 0; i < iters; ++i) {
      const std::uint64_t addr = (i % kSlots) * stride;
      llc.write_shadow(addr, object_size);
      (void)llc.clflush(0, addr, object_size);
    }
    samples.push_back(seconds_since(t0) * 1e9 /
                      static_cast<double>(iters * lines));
  }
  return median(samples);
}

/// Peak resident memory of the process, less the reference kernel's
/// buffers, which are resident from start-up to exit.
double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const double kernel_kib =
      static_cast<double>(reference_kernel_bytes()) / 1024.0;
  return (static_cast<double>(ru.ru_maxrss) - kernel_kib) / 1024.0;
}

// ---------------------------------------------------------------------------
// Result

struct Metric {
  double value;
  std::string unit;
};

class Result {
 public:
  void set(const std::string& name, double value, std::string unit) {
    metrics_[name] = Metric{value, std::move(unit)};
  }
  /// A self-check: a false `ok` marks the whole result incorrect.
  void check(bool ok, const std::string& what) {
    if (ok) return;
    correct_ = false;
    std::fprintf(stderr, "self-check failed: %s\n", what.c_str());
  }
  [[nodiscard]] bool correct() const { return correct_; }

  void print(std::uint64_t attempted, std::uint64_t failed) const {
    for (const auto& [name, m] : metrics_) {
      std::printf("  %-40s %18.6f %s\n", name.c_str(), m.value,
                  m.unit.c_str());
    }
    std::string line = "{\"correct\": ";
    line += correct_ ? "true" : "false";
    line += ", \"attempted\": " + std::to_string(std::max<std::uint64_t>(
                                      1, attempted));
    line += ", \"failed\": " + std::to_string(failed);
    line += ", \"metrics\": {";
    bool first = true;
    for (const auto& [name, m] : metrics_) {
      char num[64];
      std::snprintf(num, sizeof(num), "%.17g", m.value);
      line += first ? "" : ", ";
      line += "\"" + name + "\": {\"value\": " + num + ", \"unit\": \"" +
              m.unit + "\"}";
      first = false;
    }
    line += "}}";
    std::printf("%s\n", line.c_str());
  }

 private:
  std::map<std::string, Metric> metrics_;
  bool correct_ = true;
};

// ---------------------------------------------------------------------------
// Runs

struct Options {
  Workload workload = Workload::kP2pSmall;
  std::string_view name;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  unsigned engine_threads = 1;
};

struct Unit {
  std::vector<CellResult> cells;
  CellResult total;
  double wall_s = 0;
  double cpu_s = 0;       ///< process CPU time of the whole unit
  std::size_t batch = 0;  ///< calibration batch taken just after it
};

std::vector<std::vector<std::uint64_t>> signatures(const Unit& u) {
  std::vector<std::vector<std::uint64_t>> s;
  for (const CellResult& c : u.cells) s.push_back(c.signature());
  return s;
}

/// What one pass of the six explorations ran (all zero on the
/// workloads without explorers).
struct ExplorerTotals {
  std::uint64_t schedules = 0;
  std::uint64_t violations = 0;
  std::uint64_t boundary_points = 0;
  double seconds = 0;
  std::uint64_t repl_schedules = 0;
  std::uint64_t repl_violations = 0;
  double repl_seconds = 0;
  /// Process CPU time of each exploration and the calibration batch
  /// taken just after it.
  std::vector<std::pair<double, std::size_t>> cpu_s;
};

class Runner {
 public:
  explicit Runner(const Options& opt) : opt_(opt) {}

  Progress& progress() { return progress_; }
  Result& result() { return result_; }
  [[nodiscard]] std::uint64_t attempted() const {
    return progress_.attempted.load();
  }
  [[nodiscard]] std::uint64_t failed() const { return progress_.failed.load(); }

  /// Runs every cell of one unit and audits it: each cell must complete
  /// all its ops, and its simulated outputs must equal the reference
  /// unit's (same seed, so every repetition replays the same schedule).
  Unit run_unit(Mode mode, unsigned threads, const char* phase,
                const Unit* reference) {
    Unit u;
    calibrate();
    progress_.phase.store(phase);
    const double cpu0 = process_cpu_seconds();
    const Clock::time_point t0 = Clock::now();
    for (const CellSpec& spec :
         unit_cells(opt_.workload, opt_.seed, threads, mode)) {
      progress_.in_flight.store(
          std::max<std::uint64_t>(1, spec.cfg.ops / spec.cfg.clients) *
          spec.cfg.clients);
      CellResult c = run_cell(spec);
      progress_.attempted.fetch_add(c.ops_attempted);
      progress_.failed.fetch_add(c.ops_attempted -
                                 std::min(c.ops_attempted, c.ops_completed));
      progress_.in_flight.store(0);
      result_.check(c.finished && c.ops_completed == c.ops_attempted,
                    std::string(phase) + ": cell completed " +
                        std::to_string(c.ops_completed) + " of " +
                        std::to_string(c.ops_attempted) + " ops");
      u.cells.push_back(std::move(c));
    }
    u.wall_s = seconds_since(t0);
    u.cpu_s = process_cpu_seconds() - cpu0;
    u.batch = batches_.size();
    u.total = sum_cells(u.cells);
    progress_.units.fetch_add(1);
    progress_.last_events.store(u.total.events);
    if (reference != nullptr) {
      result_.check(signatures(u) == signatures(*reference),
                    std::string(phase) +
                        ": simulated outputs differ from the reference unit");
    }
    return u;
  }

  /// check::explore over the four durable variants, then
  /// check::explore_repl for chain and mirror at R = 2 (serial engine,
  /// default knobs), calling `between` after each of the six
  /// explorations. Every schedule is one attempt; a schedule with an
  /// oracle violation is a failure.
  template <typename Between>
  ExplorerTotals run_explorers(Between&& between) {
    ExplorerTotals t;
    for (const prdma::core::FlushVariant v :
         {prdma::core::FlushVariant::kWFlush,
          prdma::core::FlushVariant::kSFlush,
          prdma::core::FlushVariant::kWRFlush,
          prdma::core::FlushVariant::kSRFlush}) {
      prdma::check::ExplorerConfig cfg;
      cfg.variant = v;
      cfg.seed = opt_.seed;
      begin_exploration("explore");
      const double cpu0 = process_cpu_seconds();
      const Clock::time_point t0 = Clock::now();
      const prdma::check::ExplorerReport rep = prdma::check::explore(cfg);
      t.seconds += seconds_since(t0);
      end_exploration(t, cpu0);
      note_schedules(rep.schedules_run, rep.schedules_failed, "explore");
      t.schedules += rep.schedules_run;
      t.violations += rep.schedules_failed;
      t.boundary_points += rep.boundary_points.size();
      between();
    }
    for (const prdma::repl::Protocol p :
         {prdma::repl::Protocol::kChain, prdma::repl::Protocol::kMirror}) {
      prdma::check::ReplExplorerConfig cfg;
      cfg.protocol = p;
      cfg.replicas = 2;
      cfg.seed = opt_.seed;
      begin_exploration("explore_repl");
      const double cpu0 = process_cpu_seconds();
      const Clock::time_point t0 = Clock::now();
      const prdma::check::ReplExplorerReport rep =
          prdma::check::explore_repl(cfg);
      t.repl_seconds += seconds_since(t0);
      end_exploration(t, cpu0);
      note_schedules(rep.schedules_run, rep.schedules_failed,
                     "explore_repl");
      t.repl_schedules += rep.schedules_run;
      t.repl_violations += rep.schedules_failed;
      between();
    }
    std::printf("explorers: %llu + %llu schedules in %.3f + %.3f s, "
                "%llu + %llu violations\n",
                static_cast<unsigned long long>(t.schedules),
                static_cast<unsigned long long>(t.repl_schedules), t.seconds,
                t.repl_seconds, static_cast<unsigned long long>(t.violations),
                static_cast<unsigned long long>(t.repl_violations));
    return t;
  }

  /// Times `runs` runs of the reference kernel (host_time.hpp) as one
  /// calibration batch. A batch is taken before every unit, before and
  /// after every exploration, and once at the end of the run.
  void calibrate(int runs = kKernelRunsPerBatch) {
    const char* phase = progress_.phase.load();
    progress_.phase.store("calibrate");
    std::vector<double> batch;
    for (int i = 0; i < runs; ++i) {
      batch.push_back(reference_kernel_seconds());
    }
    batches_.push_back(std::move(batch));
    progress_.phase.store(phase);
  }

  /// Converts CPU seconds of this host, measured just before
  /// calibration batch `batch`, to seconds of the reference machine. The
  /// host's speed is taken from the fastest kernel run of the batches
  /// just before and just after the item: interference only ever slows
  /// the kernel down, so its fastest nearby run is the steadiest reading
  /// of what the host delivers at that time.
  [[nodiscard]] double reference_seconds(double cpu_s,
                                         std::size_t batch) const {
    const std::vector<double>& before = batches_.at(batch - 1);
    const std::vector<double>& after = batches_.at(batch);
    const double fastest =
        std::min(*std::min_element(before.begin(), before.end()),
                 *std::min_element(after.begin(), after.end()));
    return cpu_s * kReferenceKernelSeconds / fastest;
  }

  /// Fastest and median kernel time over every batch of the run.
  [[nodiscard]] std::pair<double, double> kernel_seconds() const {
    std::vector<double> all;
    for (const auto& b : batches_) all.insert(all.end(), b.begin(), b.end());
    return {*std::min_element(all.begin(), all.end()), median(all)};
  }

 private:
  void begin_exploration(const char* phase) {
    calibrate(kKernelRunsAroundExploration);
    progress_.phase.store(phase);
    progress_.in_flight.store(1);
  }

  void end_exploration(ExplorerTotals& t, double cpu0) {
    t.cpu_s.emplace_back(process_cpu_seconds() - cpu0, batches_.size());
    calibrate(kKernelRunsAroundExploration);
  }

  void note_schedules(std::uint64_t run, std::uint64_t failed,
                      const char* what) {
    progress_.in_flight.store(0);
    progress_.attempted.fetch_add(run);
    progress_.failed.fetch_add(failed);
    result_.check(run > 0, std::string(what) + " ran no schedules");
    result_.check(failed == 0, std::string(what) + " found " +
                                   std::to_string(failed) +
                                   " oracle violations");
  }

  const Options& opt_;
  Progress progress_;
  Result result_;
  std::vector<std::vector<double>> batches_;
};

/// End-to-end metrics from the untraced units. Host times are process
/// CPU seconds converted to seconds of the reference machine.
void report_end_to_end(Result& res, const Runner& runner,
                       const std::vector<Unit>& units) {
  std::vector<double> ops_per_s;
  std::vector<double> setup_s;
  std::vector<double> cells_per_s;
  for (const Unit& u : units) {
    const auto ref_s = [&](double cpu_s) {
      return runner.reference_seconds(cpu_s, u.batch);
    };
    ops_per_s.push_back(static_cast<double>(u.total.ops_completed) /
                        ref_s(u.total.run_cpu_s));
    setup_s.push_back(ref_s(u.total.setup_cpu_s));
    cells_per_s.push_back(static_cast<double>(u.cells.size()) /
                          ref_s(u.cpu_s));
  }
  res.set("ops_per_s", median(ops_per_s), "ops/s");
  res.set("setup_s", median(setup_s), "s");
  // Without explorers a "schedule" is one whole cell: set-up, run and
  // audit, the unit a crash schedule also pays for.
  res.set("schedules_per_s", median(cells_per_s), "1/s");
  const CellResult& t = units.front().total;
  res.set("sim_kops",
          static_cast<double>(t.ops_completed) /
              (static_cast<double>(t.duration_ns) / 1e6),
          "kops");
  res.set("sim_p50_us", interpolated_quantile(t.latency, 0.50) / 1e3, "us");
  res.set("sim_p99_us", interpolated_quantile(t.latency, 0.99) / 1e3, "us");
  res.set("sim_p999_us", interpolated_quantile(t.latency, 0.999) / 1e3, "us");
  res.set("sim_persist_p99_us",
          interpolated_quantile(t.durable_latency, 0.99) / 1e3, "us");
  res.set("peak_rss_mb", peak_rss_mb(), "MiB");
  std::printf("units: %zu; per unit: %llu latency samples (%llu beyond "
              "p999), %llu persist samples\n",
              units.size(), static_cast<unsigned long long>(t.latency.count()),
              static_cast<unsigned long long>(t.latency.count() / 1000),
              static_cast<unsigned long long>(t.durable_latency.count()));
}

/// Span components of the Fig. 20 breakdown with a non-zero simulated
/// total on at least one workload. Counter components carry no
/// simulated time; rtt is derived, and persist_ack, rnic_rflush and the
/// repl_* spans stay zero in these cells.
constexpr std::array kTracedSpans{
    prdma::trace::Component::kSenderSw,    prdma::trace::Component::kReceiverSw,
    prdma::trace::Component::kHostSw,      prdma::trace::Component::kNetSerialize,
    prdma::trace::Component::kNetFlight,   prdma::trace::Component::kRnicDma,
    prdma::trace::Component::kRnicWFlush,  prdma::trace::Component::kRnicSFlush,
    prdma::trace::Component::kLogAppend,   prdma::trace::Component::kDataPersist,
    prdma::trace::Component::kOpPersist,   prdma::trace::Component::kWorker,
    prdma::trace::Component::kFlowStall,   prdma::trace::Component::kNetSwitchHop,
};

/// Per-layer metrics from the traced units; `plain` are the untraced
/// units run alongside.
void report_layers(Result& res, const std::vector<Unit>& plain,
                   const std::vector<Unit>& traced, double speedup_vs_serial,
                   std::uint32_t object_size) {
  const auto med = [&](double (*f)(const CellResult&)) {
    std::vector<double> v;
    for (const Unit& u : traced) v.push_back(f(u.total));
    return median(v);
  };
  const CellResult& t = traced.front().total;
  const std::uint64_t ops = t.ops_completed;
  const double run_s = med([](const CellResult& c) { return c.run_s; });
  std::vector<double> plain_run_s;
  for (const Unit& u : plain) plain_run_s.push_back(u.total.run_s);
  std::vector<double> allocs;
  for (const Unit& u : traced) {
    allocs.push_back(static_cast<double>(u.total.allocs));
  }
  const auto d = [](std::uint64_t x) { return static_cast<double>(x); };

  res.set("sim.run_s", run_s, "s");
  res.set("sim.events_per_op", per(t.events, ops), "count");
  res.set("sim.ns_per_event", per(run_s * 1e9, t.events), "ns");
  res.set("sim.allocs_per_op", per(median(allocs), ops), "count");
  res.set("sim.pool_allocs", d(t.sim_pool_allocs), "count");
  res.set("sim.partitions", d(t.partitions), "count");
  res.set("sim.epochs", d(t.epochs), "count");
  res.set("sim.events_per_epoch", per(t.events, t.epochs), "count");
  res.set("sim.barrier_s", med([](const CellResult& c) { return c.barrier_s; }),
          "s");
  res.set("sim.speedup_vs_serial", speedup_vs_serial, "ratio");

  res.set("mem.llc_ns_per_line", llc_ns_per_line(object_size), "ns");
  res.set("mem.llc_lines_flushed_per_op", per(t.llc_lines_flushed, ops),
          "count");
  res.set("mem.llc_evictions_per_op", per(t.llc_evictions, ops), "count");
  res.set("mem.pm_bytes_written_per_op", per(t.pm_bytes_written, ops), "B");
  res.set("mem.bytes_copied_per_op", per(t.bytes_copied, ops), "B");
  res.set("mem.pool_acquires_per_op", per(t.pool_acquires, ops), "count");
  res.set("mem.pool_outstanding_peak", d(t.pool_outstanding_peak), "count");
  res.set("mem.pool_oversize_allocs", d(t.pool_oversize_allocs), "count");

  res.set("rnic.packets_per_op", per(t.rnic_packets, ops), "count");
  res.set("rnic.flushes_per_op", per(t.rnic_flushes, ops), "count");
  res.set("rnic.rnr_events", d(t.rnic_rnr_events), "count");
  res.set("rnic.retransmits", d(t.rnic_retransmits), "count");

  res.set("net.packets_per_op", per(t.net_packets, ops), "count");
  res.set("net.bytes_per_op", per(t.net_bytes, ops), "B");
  res.set("net.switch_hops_per_op", per(t.net_switch_hops, ops), "count");
  res.set("net.max_port_queue_us", d(t.net_max_port_queue_ns) / 1e3, "us");
  res.set("net.pfc_pauses", d(t.net_pfc_pauses), "count");
  res.set("net.drops", d(t.net_drops), "count");

  res.set("core.cluster_build_s",
          med([](const CellResult& c) { return c.build_s; }), "s");
  res.set("rpcs.deploy_s", med([](const CellResult& c) { return c.deploy_s; }),
          "s");
  res.set("workload.start_s",
          med([](const CellResult& c) { return c.start_s; }), "s");
  res.set("core.backlog_peak", d(t.backlog_peak), "count");
  res.set("core.throttle_events", d(t.throttle_events), "count");
  res.set("core.receiver_sw_ns_per_op", per(t.receiver_sw_ns, ops), "ns");
  res.set("workload.virtual_clients",
          d(traced.front().cells.front().virtual_clients), "count");
  res.set("workload.ops_per_virtual_client", per(ops, t.virtual_clients),
          "count");
  res.set("host.sender_sw_ns_per_op", per(t.sender_sw_ns, ops), "ns");

  for (const prdma::trace::Component c : kTracedSpans) {
    res.set("trace." + std::string(prdma::trace::component_name(c)) +
                "_ns_per_op",
            per(t.trace_ns[prdma::trace::to_id(c)], ops), "ns");
  }
  res.set("trace.overhead_frac", run_s / median(plain_run_s) - 1.0, "ratio");
}

void report_explorer_layers(Result& res, const ExplorerTotals& t) {
  const auto d = [](std::uint64_t x) { return static_cast<double>(x); };
  res.set("check.schedules", d(t.schedules), "count");
  res.set("check.ms_per_schedule", per(t.seconds * 1e3, t.schedules), "ms");
  res.set("check.boundary_points", d(t.boundary_points), "count");
  res.set("check.violations", d(t.violations), "count");
  res.set("repl.schedules", d(t.repl_schedules), "count");
  res.set("repl.ms_per_schedule", per(t.repl_seconds * 1e3, t.repl_schedules),
          "ms");
  res.set("repl.violations", d(t.repl_violations), "count");
}

// ---------------------------------------------------------------------------
// Command line

[[noreturn]] void usage_error(const std::string& msg) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload <p2p_small|p2p_large|"
               "leafspine_512|crash_explore> --seed <0..2^32-1> "
               "--seconds <1..60> --trace <0|1> [--engine-threads <1..nproc>]"
               "\n",
               msg.c_str());
  std::exit(2);
}

unsigned online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

std::uint64_t parse_count(const std::string& key, const std::string& v,
                          std::uint64_t lo, std::uint64_t hi) {
  std::uint64_t out = 0;
  const char* end = v.data() + v.size();
  const auto [ptr, ec] = std::from_chars(v.data(), end, out);
  if (v.empty() || ec != std::errc() || ptr != end) {
    usage_error("--" + key + " needs a whole number, got '" + v + "'");
  }
  if (out < lo || out > hi) {
    usage_error("--" + key + " must be in [" + std::to_string(lo) + ", " +
                std::to_string(hi) + "], got " + v);
  }
  return out;
}

Options parse_options(int argc, char** argv) {
  std::map<std::string, std::string> kv;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) usage_error("unexpected argument '" + arg + "'");
    arg = arg.substr(2);
    std::string value;
    if (const auto eq = arg.find('='); eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      usage_error("--" + arg + " needs a value");
    }
    if (arg != "workload" && arg != "seed" && arg != "seconds" &&
        arg != "trace" && arg != "engine-threads") {
      usage_error("unknown flag --" + arg);
    }
    if (!kv.emplace(arg, value).second) usage_error("--" + arg + " given twice");
  }
  for (const char* required : {"workload", "seed", "seconds", "trace"}) {
    if (kv.count(required) == 0) {
      usage_error(std::string("missing --") + required);
    }
  }
  Options opt;
  const auto w = std::find_if(kWorkloads.begin(), kWorkloads.end(),
                              [&](const auto& e) {
                                return e.first == kv["workload"];
                              });
  if (w == kWorkloads.end()) {
    usage_error("unknown workload '" + kv["workload"] + "'");
  }
  opt.name = w->first;
  opt.workload = w->second;
  opt.seed = parse_count("seed", kv["seed"], 0, 0xffffffffu);
  opt.seconds = static_cast<double>(parse_count("seconds", kv["seconds"], 1, 60));
  opt.trace = parse_count("trace", kv["trace"], 0, 1) == 1;
  const unsigned cpus = online_cpus();
  opt.engine_threads = 1;
  if (kv.count("engine-threads") != 0) {
    if (opt.workload != Workload::kLeafspine512) {
      usage_error("--engine-threads applies to leafspine_512 only");
    }
    opt.engine_threads = static_cast<unsigned>(
        parse_count("engine-threads", kv["engine-threads"], 1, cpus));
  }
  return opt;
}

// ---------------------------------------------------------------------------

void run(const Options& opt, Runner& runner) {
  Result& res = runner.result();
  const unsigned threads = opt.engine_threads;
  std::vector<Unit> plain;
  std::vector<Unit> traced;
  // One round: an untraced unit, plus a traced one with --trace 1.
  const auto round = [&] {
    plain.push_back(runner.run_unit(Mode::kOff, threads, "untraced",
                                    plain.empty() ? nullptr : &plain[0]));
    if (opt.trace) {
      traced.push_back(
          runner.run_unit(Mode::kCounters, threads, "traced", &plain[0]));
    }
  };
  // Rounds until `until_s` seconds into the run, and at least
  // `min_rounds`.
  const Clock::time_point start = Clock::now();
  const auto rounds_until = [&](double until_s, std::size_t min_rounds) {
    for (std::size_t i = 0;
         i < min_rounds || seconds_since(start) < until_s; ++i) {
      round();
    }
  };
  ExplorerTotals explored;
  if (opt.workload == Workload::kCrashExplore) {
    // The cells run between the six explorations, so both the explorer
    // and the cell metrics sample the whole run rather than one half.
    // The explorations count towards --seconds: after the i-th, cells
    // fill the run up to i/6 of it, with at least two rounds each time.
    int explorations = 0;
    explored = runner.run_explorers([&] {
      rounds_until(opt.seconds * ++explorations / 6, 2);
    });
  } else {
    rounds_until(opt.seconds, opt.trace ? 2 : 3);
  }
  double speedup_vs_serial = 0.0;
  if (opt.trace && opt.workload == Workload::kLeafspine512) {
    // Repeat on the other side of the serial/parallel divide; the
    // simulated outputs must not depend on the thread count.
    const unsigned other = threads == 1 ? std::min(4u, online_cpus()) : 1;
    const Unit u = runner.run_unit(Mode::kCounters, other,
                                   "traced_other_threads", &plain[0]);
    std::vector<double> run_s;
    for (const Unit& t : traced) run_s.push_back(t.total.run_s);
    speedup_vs_serial = threads == 1 ? median(run_s) / u.total.run_s
                                     : u.total.run_s / median(run_s);
  }
  const auto same_allocs = [](const std::vector<Unit>& units) {
    return std::all_of(units.begin(), units.end(), [&](const Unit& u) {
      return u.total.allocs == units.front().total.allocs;
    });
  };
  res.check(same_allocs(plain) && same_allocs(traced),
            "heap allocations inside Cluster::run differ between repetitions");
  const CellSpec first =
      unit_cells(opt.workload, opt.seed, threads, Mode::kOff).front();
  if (opt.workload == Workload::kP2pSmall ||
      opt.workload == Workload::kP2pLarge) {
    const std::string diff =
        compare_with_run_micro(first, plain.front().cells.front());
    res.check(diff.empty(), "cell differs from bench::run_micro in " + diff);
  }
  runner.calibrate();
  const auto [kernel_min_s, kernel_median_s] = runner.kernel_seconds();
  std::printf("reference kernel: fastest %.3f ms (median %.3f ms) here, "
              "fastest %.3f ms on the reference machine\n",
              kernel_min_s * 1e3, kernel_median_s * 1e3,
              kReferenceKernelSeconds * 1e3);
  if (!opt.trace) {
    report_end_to_end(res, runner, plain);
    if (opt.workload == Workload::kCrashExplore) {
      double ref_s = 0;
      for (const auto& [cpu_s, batch] : explored.cpu_s) {
        ref_s += runner.reference_seconds(cpu_s, batch);
      }
      res.set("schedules_per_s",
              static_cast<double>(explored.schedules +
                                  explored.repl_schedules) /
                  ref_s,
              "1/s");
    }
  } else {
    report_layers(res, plain, traced, speedup_vs_serial,
                  first.cfg.object_size);
    report_explorer_layers(res, explored);
  }
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Options opt = parse_options(argc, argv);
  const char* commit = std::getenv("PERFBENCH_COMMIT");
  std::printf(
      "fingerprint: {\"workload\": \"%.*s\", \"seed\": %llu, \"nproc\": %u, "
      "\"hardware_concurrency\": %u, \"compiler\": \"%s\", "
      "\"build_type\": \"%s\", \"commit\": \"%s\", \"engine_threads\": %u}\n",
      static_cast<int>(opt.name.size()), opt.name.data(),
      static_cast<unsigned long long>(opt.seed), online_cpus(),
      std::thread::hardware_concurrency(), kCompiler, PERFBENCH_BUILD_TYPE,
      commit != nullptr ? commit : "unknown", opt.engine_threads);
  std::fflush(stdout);
  // Allocates and touches the reference kernel's buffers before any
  // measurement (and warms the kernel's code path).
  (void)reference_kernel_seconds();
  Runner runner(opt);
  {
    const Watchdog watchdog(opt.name, runner.progress(), kWatchdogSeconds);
    try {
      run(opt, runner);
    } catch (const std::exception& e) {
      runner.result().check(false, std::string("exception: ") + e.what());
    }
  }
  Result& res = runner.result();
  const std::uint64_t attempted = runner.attempted();
  const std::uint64_t failed = runner.failed();
  if (opt.trace) {
    res.set("fail_frac", per(failed, std::max<std::uint64_t>(1, attempted)),
            "ratio");
  }
  res.print(attempted, failed);
  return res.correct() ? 0 : 1;
}
