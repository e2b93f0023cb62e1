#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "bench_util/micro.hpp"
#include "rpcs/registry.hpp"
#include "stats/histogram.hpp"
#include "trace/component.hpp"

namespace perfbench {

/// One benchmark cell: a deployment of `system` with one server on node
/// 0 and one workload::ClientPool per client host. Only the fields of
/// `cfg` that bench::run_micro reads in its clients_per_host mode are
/// used, so the same spec can be replayed through run_micro as a check.
struct CellSpec {
  prdma::rpcs::System system = prdma::rpcs::System::kWFlushRpc;
  prdma::bench::MicroConfig cfg;
};

/// What one cell measured. The host-time fields and `allocs` come from
/// the benchmark's clocks and allocation counter; every other field is
/// read from the layers' public accessors after Cluster::run and is a
/// pure function of the spec.
struct CellResult {
  // ---- host wall time (seconds) ----
  double build_s = 0;   ///< core::Cluster constructor + enable_tracing
  double deploy_s = 0;  ///< rpcs::make_deployment
  double start_s = 0;   ///< ClientPool construction + start
  double run_s = 0;     ///< Cluster::run
  double barrier_s = 0; ///< engine time spent in epoch barriers
  // ---- process CPU time (seconds); see host_time.hpp ----
  double setup_cpu_s = 0;  ///< build + deploy + start
  double run_cpu_s = 0;    ///< Cluster::run (wall time on >1 engine thread)
  std::uint64_t allocs = 0;  ///< global operator new calls inside run()

  // ---- simulated outputs and exact counts ----
  std::uint64_t ops_attempted = 0;
  std::uint64_t ops_completed = 0;
  bool finished = false;  ///< every pool completed its op budget
  std::uint64_t duration_ns = 0;
  prdma::stats::LatencyHistogram latency;
  prdma::stats::LatencyHistogram durable_latency;
  std::uint64_t events = 0;
  std::uint64_t partitions = 0;
  std::uint64_t epochs = 0;
  std::uint64_t sim_pool_allocs = 0;
  std::uint64_t llc_lines_flushed = 0;
  std::uint64_t llc_evictions = 0;
  std::uint64_t pm_bytes_written = 0;
  std::uint64_t bytes_copied = 0;
  std::uint64_t pool_acquires = 0;
  std::uint64_t pool_outstanding_peak = 0;
  std::uint64_t pool_oversize_allocs = 0;
  std::uint64_t rnic_packets = 0;
  std::uint64_t rnic_flushes = 0;
  std::uint64_t rnic_rnr_events = 0;
  std::uint64_t rnic_retransmits = 0;
  std::uint64_t net_packets = 0;
  std::uint64_t net_bytes = 0;
  std::uint64_t net_switch_hops = 0;
  std::uint64_t net_max_port_queue_ns = 0;
  std::uint64_t net_pfc_pauses = 0;
  std::uint64_t net_drops = 0;
  std::uint64_t backlog_peak = 0;
  std::uint64_t throttle_events = 0;
  std::uint64_t receiver_sw_ns = 0;
  std::uint64_t sender_sw_ns = 0;
  std::uint64_t virtual_clients = 0;
  /// Simulated span totals per predefined trace component (all zero
  /// unless the cell ran with tracing on).
  std::array<std::uint64_t, prdma::trace::kPredefinedComponents> trace_ns{};

  /// The simulated outputs and exact counts that must not depend on
  /// tracing or on the engine's thread count.
  [[nodiscard]] std::vector<std::uint64_t> signature() const;
};

/// Builds, runs and reads out one cell through the public layer calls:
/// Cluster constructor, rpcs::make_deployment, ClientPool::start,
/// Cluster::run. Uses the engine-layout rule of bench::run_micro.
CellResult run_cell(const CellSpec& spec);

/// Replays `spec` through bench::run_micro and compares its simulated
/// outputs with `cell`. Returns an empty string on a match, otherwise
/// the first differing field.
std::string compare_with_run_micro(const CellSpec& spec,
                                   const CellResult& cell);

}  // namespace perfbench
