#include "cell.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <stdexcept>

#include "alloc_counter.hpp"
#include "core/node.hpp"
#include "host_time.hpp"
#include "net/topology.hpp"
#include "workload/client_pool.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

void append_histogram(std::vector<std::uint64_t>& out,
                      const prdma::stats::LatencyHistogram& h) {
  out.insert(out.end(), {h.count(), h.sum(), h.min(), h.max(), h.p50(),
                         h.p99(), h.percentile(0.999)});
}

}  // namespace

std::vector<std::uint64_t> CellResult::signature() const {
  std::vector<std::uint64_t> s{
      ops_attempted,    ops_completed,         finished ? 1u : 0u,
      duration_ns,      events,                epochs,
      sim_pool_allocs,  llc_lines_flushed,     llc_evictions,
      pm_bytes_written, bytes_copied,          pool_acquires,
      pool_outstanding_peak, pool_oversize_allocs, rnic_packets,
      rnic_flushes,     rnic_rnr_events,       rnic_retransmits,
      net_packets,      net_bytes,             net_switch_hops,
      net_max_port_queue_ns, net_pfc_pauses,   net_drops,
      backlog_peak,     throttle_events,       receiver_sw_ns,
      sender_sw_ns,     virtual_clients};
  append_histogram(s, latency);
  append_histogram(s, durable_latency);
  return s;
}

CellResult run_cell(const CellSpec& spec) {
  namespace core = prdma::core;
  namespace sim = prdma::sim;
  const prdma::bench::MicroConfig& cfg = spec.cfg;
  if (cfg.clients_per_host == 0 || cfg.replication.active()) {
    throw std::invalid_argument(
        "a cell needs clients_per_host > 0 and no replication");
  }
  CellResult r;
  const core::ModelParams params = prdma::bench::params_for(cfg);
  const std::size_t nodes = 1 + cfg.clients;
  sim::EngineConfig ecfg;
  ecfg.threads = std::max(1u, cfg.engine_threads);
  ecfg.adaptive_epochs = cfg.adaptive_epochs;
  // bench::run_micro's layout rule for these cells: one partition on
  // point-to-point, one partition per rack once a switched fabric has
  // two racks or more, at every thread count.
  if (cfg.topology.switched() &&
      prdma::net::rack_count(cfg.topology, nodes) >= 2) {
    ecfg.partitioning = sim::EngineConfig::Partitioning::kPerRack;
  }

  const double cpu0 = process_cpu_seconds();
  const Clock::time_point t0 = Clock::now();
  core::Cluster cluster(params, nodes, ecfg);
  cluster.enable_tracing(cfg.trace_mode, cfg.trace_capacity);
  r.build_s = seconds_since(t0);

  const Clock::time_point t1 = Clock::now();
  std::vector<std::size_t> client_nodes;
  for (std::size_t i = 1; i < nodes; ++i) client_nodes.push_back(i);
  auto dep = prdma::rpcs::make_deployment(cluster, spec.system,
                                          cfg.replication, client_nodes,
                                          params);
  for (const std::size_t i : client_nodes) {
    cluster.node(i).host().set_tracer(&cluster.tracer_of(i),
                                      prdma::trace::Component::kSenderSw,
                                      static_cast<std::uint16_t>(i));
  }
  r.deploy_s = seconds_since(t1);

  const Clock::time_point t2 = Clock::now();
  const std::uint64_t ops_per_host =
      std::max<std::uint64_t>(1, cfg.ops / cfg.clients);
  std::vector<std::unique_ptr<prdma::workload::ClientPool>> pools;
  pools.reserve(cfg.clients);
  for (std::size_t c = 0; c < cfg.clients; ++c) {
    prdma::workload::ClientPoolConfig pc;
    pc.clients = cfg.clients_per_host;
    pc.total_ops = ops_per_host;
    pc.max_outstanding = std::max<std::uint32_t>(1, cfg.client_outstanding);
    pc.mean_think_ns = cfg.client_think_ns;
    pc.read_ratio = cfg.read_ratio;
    pc.op_len = cfg.object_size;
    pc.object_count = params.object_count;
    pc.zipf_theta = cfg.zipf_theta;
    pc.seed = cfg.seed * 7919 + c * 64;  // run_micro's stream family
    pools.push_back(std::make_unique<prdma::workload::ClientPool>(
        cluster.sim_of(client_nodes[c]), *dep.clients[c], pc));
    pools.back()->start();
    r.ops_attempted += ops_per_host;
  }
  r.start_s = seconds_since(t2);
  r.setup_cpu_s = process_cpu_seconds() - cpu0;

  const std::uint64_t allocs_before = allocations();
  const double cpu3 = process_cpu_seconds();
  const Clock::time_point t3 = Clock::now();
  set_alloc_counting(true);
  cluster.run();
  set_alloc_counting(false);
  r.run_s = seconds_since(t3);
  // Engine workers spin at epoch barriers, so with more than one thread
  // CPU time overstates the run; wall time is the measure then.
  r.run_cpu_s = ecfg.threads > 1 ? r.run_s : process_cpu_seconds() - cpu3;
  r.allocs = allocations() - allocs_before;

  r.finished = true;
  std::uint64_t end_time = 0;
  for (const auto& pool : pools) {
    r.finished = r.finished && pool->done();
    end_time = std::max<std::uint64_t>(end_time, pool->finished_at());
    const prdma::workload::ClientPoolStats& s = pool->stats();
    r.ops_completed += s.ops_completed;
    r.latency.merge(s.latency);
    r.durable_latency.merge(s.durable_latency);
  }
  if (!r.finished) {
    end_time = std::max<std::uint64_t>(end_time, cluster.engine().max_now());
  }
  r.duration_ns = end_time;
  r.virtual_clients = cfg.clients_per_host * cfg.clients;

  sim::PartitionedEngine& engine = cluster.engine();
  r.events = cluster.events_executed();
  r.partitions = engine.partitions();
  r.epochs = engine.epochs();
  r.barrier_s = static_cast<double>(engine.barrier_wall_ns()) / 1e9;
  r.sim_pool_allocs = cluster.sim_pool_allocations();

  prdma::net::Fabric& fabric = cluster.fabric();
  r.net_packets = fabric.packets_delivered();
  r.net_bytes = fabric.bytes_carried();
  r.net_switch_hops = fabric.switch_hops();
  r.net_max_port_queue_ns = fabric.max_port_queue_ns();
  r.net_pfc_pauses = fabric.pfc_pauses();
  r.net_drops = fabric.packets_dropped();

  const core::ServerStats& server = dep.server->stats();
  r.backlog_peak = server.backlog_peak;
  r.throttle_events = server.throttle_events;
  r.receiver_sw_ns = server.critical_sw_ns;

  for (std::size_t i = 0; i < cluster.size(); ++i) {
    core::Node& node = cluster.node(i);
    prdma::mem::NodeMemory& mem = node.mem();
    r.llc_lines_flushed += mem.llc().lines_flushed();
    r.llc_evictions += mem.llc().evictions();
    r.pm_bytes_written += mem.pm().bytes_written();
    r.bytes_copied += mem.pm().bytes_copied() + mem.dram().bytes_copied();
    const prdma::mem::BufferPoolStats& pool = mem.pool().stats();
    r.pool_acquires += pool.acquires;
    r.pool_outstanding_peak += pool.outstanding_peak;
    r.pool_oversize_allocs += pool.oversize_allocs;
    prdma::rnic::Rnic& rnic = node.rnic();
    r.rnic_packets += rnic.packets_received();
    r.rnic_flushes += rnic.flushes_executed();
    r.rnic_rnr_events += rnic.rnr_events();
    r.rnic_retransmits += rnic.retransmits();
  }
  for (const std::size_t i : client_nodes) {
    r.sender_sw_ns += cluster.node(i).host().charged_ns();
  }
  const prdma::trace::Tracer& tracer = cluster.tracer();
  if (tracer.enabled()) {
    for (prdma::trace::ComponentId id = 0;
         id < prdma::trace::kPredefinedComponents; ++id) {
      r.trace_ns[id] = tracer.total_ns(id);
    }
  }
  return r;
}

std::string compare_with_run_micro(const CellSpec& spec,
                                   const CellResult& cell) {
  const prdma::bench::MicroResult m =
      prdma::bench::run_micro(spec.system, spec.cfg);
  const auto hist_eq = [](const prdma::stats::LatencyHistogram& a,
                          const prdma::stats::LatencyHistogram& b) {
    std::vector<std::uint64_t> x;
    std::vector<std::uint64_t> y;
    append_histogram(x, a);
    append_histogram(y, b);
    return x == y;
  };
  const double ops = static_cast<double>(std::max<std::uint64_t>(
      1, cell.ops_completed));
  if (m.ops_completed != cell.ops_completed) return "ops_completed";
  if (m.duration != cell.duration_ns) return "duration";
  if (m.sim_events != cell.events) return "events";
  if (m.engine_epochs != cell.epochs) return "epochs";
  if (!hist_eq(m.latency, cell.latency)) return "latency";
  if (!hist_eq(m.durable_latency, cell.durable_latency)) {
    return "durable_latency";
  }
  if (m.bytes_copied != cell.bytes_copied) return "bytes_copied";
  if (m.pool.acquires != cell.pool_acquires) return "pool_acquires";
  if (m.net_switch_hops != cell.net_switch_hops) return "switch_hops";
  if (m.rnic_retransmits != cell.rnic_retransmits) return "retransmits";
  if (m.server.backlog_peak != cell.backlog_peak) return "backlog_peak";
  if (m.sender_sw_ns != static_cast<double>(cell.sender_sw_ns) / ops) {
    return "sender_sw_ns";
  }
  if (m.receiver_sw_ns != static_cast<double>(cell.receiver_sw_ns) / ops) {
    return "receiver_sw_ns";
  }
  return {};
}

}  // namespace perfbench
