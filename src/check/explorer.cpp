#include "check/explorer.hpp"

#include <algorithm>
#include <charconv>
#include <sstream>
#include <stdexcept>

#include "bench_util/micro.hpp"
#include "bench_util/sweep.hpp"
#include "check/cluster_oracle.hpp"
#include "rpcs/registry.hpp"
#include "sim/rng.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"

namespace prdma::check {

using core::RpcOp;
using core::RpcRequest;
using core::RpcResult;
using sim::SimTime;
using sim::Task;

namespace {

/// Shared state between the write drivers and the recovery coroutine.
struct Harness {
  std::uint64_t remaining = 0;
  std::uint64_t issued = 0;
  std::uint64_t completed = 0;
  std::uint64_t resends = 0;
  std::uint64_t object_count = 1;
  std::uint32_t value_size = 0;
  std::uint64_t durable_watermark = 0;  ///< media snapshot at the crash
  sim::Event* up = nullptr;
};

/// One pipelined issue loop. Only the single-primary client fails a
/// call (its pending calls abort at the crash); a ReplicatedClient
/// heals per hop inside call() and always returns ok.
Task<> write_driver(core::RpcClient& client, Harness& h, sim::WaitGroup& wg) {
  for (;;) {
    if (h.remaining == 0) break;
    --h.remaining;

    RpcRequest req;
    req.op = RpcOp::kWrite;
    req.obj_id = h.issued++ % h.object_count;
    req.len = h.value_size;

    RpcResult res = co_await client.call(req);
    while (!res.ok) {
      if (!h.up->is_set()) {
        (void)co_await h.up->wait();
      }
      if (res.tag != 0 && res.tag <= h.durable_watermark) {
        // In the log before the lights went out: the server replayed it
        // during recovery, nothing to re-send (§4.2).
        res.ok = true;
        break;
      }
      ++h.resends;
      res = co_await client.call(req);
    }
    ++h.completed;
  }
  wg.done();
}

/// Waits for the crash (signalled from the simulator crash hook), then
/// walks the server through restart + log replay and reopens the gate.
Task<> recovery_loop(core::Cluster& cluster, core::DurableRpcServer& server,
                     std::vector<core::DurableRpcClient*> clients,
                     DurabilityOracle& oracle, Harness& h,
                     sim::Event& crashed, SimTime restart_delay) {
  if (!co_await crashed.wait()) co_return;
  co_await sim::delay(cluster.sim(), restart_delay);
  cluster.node(0).restart();
  co_await server.recover_and_restart();
  for (auto* c : clients) server.reconnect_client(*c);
  oracle.after_recovery();
  h.up->set();
}

/// Runs `window` write drivers to completion; returns the instant the
/// last one finished (the end of the run if they never all did).
SimTime drive_writes(core::Cluster& cluster, core::RpcClient& client,
                     Harness& h, std::uint32_t window) {
  sim::WaitGroup wg(cluster.sim());
  wg.add(window);
  for (std::uint32_t d = 0; d < window; ++d) {
    sim::spawn(write_driver(client, h, wg));
  }

  bool finished = false;
  SimTime end = 0;
  sim::spawn([](sim::WaitGroup& w, bool& f, SimTime& t,
                sim::Simulator& sim) -> Task<> {
    co_await w.wait();
    f = true;
    t = sim.now();
  }(wg, finished, end, cluster.sim()));

  cluster.sim().run();
  return finished ? end : cluster.sim().now();
}

/// Evenly samples at most `cap` timestamps out of `points` (keeps ends).
std::vector<SimTime> sample_boundaries(const std::vector<SimTime>& points,
                                       std::uint32_t cap) {
  if (points.size() <= cap) return points;
  std::vector<SimTime> out;
  out.reserve(cap);
  for (std::uint32_t i = 0; i < cap; ++i) {
    const std::size_t idx = (points.size() - 1) * i / (cap - 1);
    out.push_back(points[idx]);
  }
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

/// Rejects crash points run_schedule cannot honour (the explorer never
/// generates them; they come from hand-written reproducers).
void validate(const Schedule& s, std::size_t replicas) {
  for (const CrashPoint& cp : s.crashes) {
    const std::string where = "crash point " + std::to_string(cp.replica) +
                              "@" + std::to_string(cp.at) + "ns: ";
    if (cp.replica >= replicas) {
      throw std::invalid_argument(where + "the deployment has " +
                                  std::to_string(replicas) + " replica(s)");
    }
    if (cp.at == 0) {
      throw std::invalid_argument(where + "crash instants start at 1 ns");
    }
  }
  if (replicas == 1 && s.crashes.size() > 1) {
    throw std::invalid_argument(
        "the single-primary deployment takes at most one crash point");
  }
}

}  // namespace

ScheduleResult run_schedule(const ExplorerConfig& cfg, const Schedule& s,
                            std::vector<SimTime>* boundaries) {
  const std::size_t replicas = cfg.replica_count();
  validate(s, replicas);

  bench::MicroConfig mc;
  mc.object_size = cfg.value_size;
  mc.objects = 4096;
  mc.seed = s.seed;
  mc.heavy_load = cfg.heavy_processing;
  // Crash schedules need byte-exact post-crash state (torn entries,
  // oracle byte checks) — shadow content is not enough.
  mc.content_mode = mem::ContentMode::kFull;
  core::ModelParams params = bench::params_for(mc);
  params.log_slots = std::max(cfg.window * 2, 8u);
  params.flow_threshold = std::max(cfg.window, 4u);
  params.rnic.retransmit_interval = cfg.retransmit_interval;
  params.rnic.ack_before_persist = cfg.ack_before_persist;
  params.link.loss_probability = cfg.loss_probability;
  params.faults = cfg.faults;
  params.seed = s.seed;

  // Servers on nodes [0, R), the client on node R.
  core::Cluster cluster(params, replicas + 1);
  const std::size_t client_nodes[] = {replicas};
  repl::ReplicationConfig rcfg;
  rcfg.protocol = cfg.protocol;
  rcfg.replicas = cfg.replicas;
  rcfg.ack_before_replica_persist = cfg.ack_before_replica_persist;
  auto dep = rpcs::make_deployment(cluster, rpcs::system_for(cfg.variant),
                                   rcfg, client_nodes, params);

  const auto record = [boundaries, &cluster](auto&&...) {
    boundaries->push_back(cluster.sim().now());
  };

  ScheduleResult result;
  result.schedule = s;

  sim::Event up(cluster.sim());
  up.set();

  Harness h;
  h.remaining = s.ops;
  h.object_count = params.object_count;
  h.value_size = cfg.value_size;
  h.up = &up;

  // What differs by deployment: the oracle, the traced sessions and
  // logs, and the crash action.
  if (cfg.protocol == repl::Protocol::kNone) {
    auto& server = dynamic_cast<core::DurableRpcServer&>(*dep.server);
    auto& client = dynamic_cast<core::DurableRpcClient&>(*dep.clients[0]);
    DurabilityOracle oracle(server);
    oracle.attach_client(client);
    if (boundaries != nullptr) {
      client.session()->set_trace(record);
      server.log(0).set_trace(record);
    }

    sim::Event crashed(cluster.sim());
    if (!s.crashes.empty()) {
      // The full power-failure sequence at one simulated nanosecond:
      // software teardown, then hardware state loss (in-flight DMA
      // lands torn on the PM media), then the crash-instant audit.
      cluster.sim().add_crash_hook([&] {
        up.reset();
        server.on_crash();
        cluster.node(0).crash();
        client.abort_pending();
        oracle.on_crash();
        h.durable_watermark = server.durable_watermark(0);
        crashed.set();
      });
      cluster.sim().schedule_crash_at(s.crashes.front().at);
      sim::spawn(recovery_loop(cluster, server, {&client}, oracle, h,
                               crashed, cfg.restart_delay));
    }

    result.end_time = drive_writes(cluster, client, h, cfg.window);
    result.crashes_fired = cluster.sim().crashes_triggered();
    result.resends = h.resends;
    result.txn_acks = oracle.acks_recorded();
    result.acks = oracle.acks_recorded();
    result.replays = oracle.replays_observed();
    result.violations = oracle.violations();
  } else {
    auto& set = dynamic_cast<repl::ReplicaSet&>(*dep.server);
    auto& client = dynamic_cast<repl::ReplicatedClient&>(*dep.clients[0]);
    ClusterOracle oracle(set, {&client});
    if (boundaries != nullptr) {
      for (std::size_t r = 0; r < set.replica_count(); ++r) {
        client.hop(r).session()->set_trace(record);
        set.server(r).log(0).set_trace(record);
      }
    }

    for (const CrashPoint& cp : s.crashes) {
      cluster.sim().schedule_at(cp.at, [&set, &cfg, cp] {
        set.crash_replica(cp.replica, cfg.restart_delay);
      });
    }

    result.end_time = drive_writes(cluster, client, h, cfg.window);
    result.crashes_fired = set.crashes();
    result.resends = client.resends();
    result.txn_acks = client.acked();
    result.acks = oracle.acks_recorded();
    result.replays = oracle.replays_observed();
    result.violations = oracle.violations();
  }
  result.ops_completed = h.completed;

  if (boundaries != nullptr) {
    std::sort(boundaries->begin(), boundaries->end());
    boundaries->erase(std::unique(boundaries->begin(), boundaries->end()),
                      boundaries->end());
  }
  return result;
}

ExplorerReport explore(const ExplorerConfig& cfg) {
  ExplorerReport rep;

  // Phase 1: traced dry run — protocol-phase boundary timestamps
  // across every replica's session and redo log.
  std::vector<SimTime> trace;
  const ScheduleResult base =
      run_schedule(cfg, Schedule{cfg.seed, cfg.ops, {}}, &trace);
  rep.clean_end = base.end_time;
  rep.boundary_points = sample_boundaries(trace, cfg.max_boundary_points);

  // The candidate list is generated up front, in serial order (every
  // RNG draw happens here, before any schedule runs), then mapped over
  // SweepRunner workers. Results come back in submission order, so the
  // scan below — and with it first_failure, the reproducer, the whole
  // report — is byte-identical at any cfg.jobs value.
  const bool replicated = cfg.protocol != repl::Protocol::kNone;
  const std::size_t replicas = cfg.replica_count();
  std::vector<Schedule> candidates;
  const auto add = [&](std::vector<CrashPoint> crashes) {
    candidates.push_back(Schedule{cfg.seed, cfg.ops, std::move(crashes)});
  };

  // Phase 2a: single-replica crashes straddling each phase boundary.
  for (std::size_t r = 0; r < replicas; ++r) {
    for (const SimTime t : rep.boundary_points) {
      for (const std::int64_t dt : {-1, 0, 1}) {
        const auto at = static_cast<std::int64_t>(t) + dt;
        if (at < 1) continue;
        add({{r, static_cast<SimTime>(at)}});
      }
    }
  }

  if (replicated) {
    // Phase 2b: correlated crashes — every replica at the same instant.
    for (const SimTime t : rep.boundary_points) {
      std::vector<CrashPoint> all;
      for (std::size_t r = 0; r < replicas; ++r) all.push_back({r, t});
      add(std::move(all));
    }

    // Phase 2c: crash-during-recovery (re-kill the same replica while
    // it is down / replaying) and failover (second replica dies while
    // the first recovers).
    for (const SimTime t : rep.boundary_points) {
      add({{0, t}, {0, t + cfg.restart_delay / 2}});
      add({{0, t}, {0, t + cfg.restart_delay + 2 * sim::kMicrosecond}});
      add({{0, t}, {1 % replicas, t + cfg.restart_delay / 2}});
    }
  }

  // Phase 3: seeded random crash instants over the whole run (plus
  // random pairs when replicated). No replica is drawn at R = 1.
  sim::Rng rng(cfg.seed ^ 0xC2B2AE3D27D4EB4Full);
  const SimTime span = std::max<SimTime>(base.end_time, 2);
  for (std::uint32_t i = 0; i < cfg.random_schedules; ++i) {
    const auto r =
        replicated ? static_cast<std::size_t>(rng.uniform(0, replicas - 1))
                   : std::size_t{0};
    add({{r, rng.uniform(1, span - 1)}});
  }
  if (replicated) {
    for (std::uint32_t i = 0; i < cfg.random_schedules / 2; ++i) {
      const auto r1 = static_cast<std::size_t>(rng.uniform(0, replicas - 1));
      const auto r2 = static_cast<std::size_t>(rng.uniform(0, replicas - 1));
      const SimTime t1 = rng.uniform(1, span - 1);
      const SimTime t2 = rng.uniform(1, span + cfg.restart_delay);
      add({{r1, t1}, {r2, t2}});
    }
  }

  bench::SweepRunner runner(cfg.jobs);
  std::vector<ScheduleResult> results = runner.map(
      candidates, [&cfg](const Schedule& s) { return run_schedule(cfg, s); });

  for (ScheduleResult& r : results) {
    ++rep.schedules_run;
    if (r.failed()) {
      ++rep.schedules_failed;
      if (!rep.first_failure.has_value()) rep.first_failure = std::move(r);
    }
  }

  // Phase 4: shrink the first failure to a minimal reproducer (fewest
  // driven ops that still violate an invariant under the same crash
  // points).
  if (rep.first_failure.has_value()) {
    Schedule best = rep.first_failure->schedule;
    ScheduleResult best_result = *rep.first_failure;
    std::uint64_t lo = 1;  // smallest op count not known to pass
    std::uint64_t ops = best.ops;
    while (ops > lo) {
      const std::uint64_t cand = lo + (ops - lo) / 2;
      Schedule t = best;
      t.ops = cand;
      ScheduleResult r = run_schedule(cfg, t);
      if (r.failed()) {
        ops = cand;
        best = t;
        best_result = std::move(r);
      } else {
        lo = cand + 1;
      }
    }
    rep.minimal = std::move(best_result);
    rep.reproducer = format_reproducer(best);
  }
  return rep;
}

const char* net_fault_family_name(NetFaultFamily family) {
  switch (family) {
    case NetFaultFamily::kCrashDuringRetransmit:
      return "crash-during-retransmit";
    case NetFaultFamily::kFlapDuringRecovery:
      return "flap-during-recovery";
    case NetFaultFamily::kPartitionThenHeal:
      return "partition-then-heal";
  }
  return "?";
}

ExplorerConfig with_net_faults(ExplorerConfig cfg, NetFaultFamily family) {
  // Size the fault windows off a clean dry run of the same workload.
  ExplorerConfig clean = cfg;
  clean.loss_probability = 0.0;
  clean.faults = net::FaultPlan{};
  const ScheduleResult base =
      run_schedule(clean, Schedule{cfg.seed, cfg.ops, {}});
  const SimTime span = std::max<SimTime>(base.end_time, 16);
  const auto client_node = static_cast<std::uint32_t>(cfg.replica_count());

  // Shrink the RC timer: recovery from a dropped packet should cost
  // backoff rounds inside the run, not the paper's 100 ms crash-
  // detection interval. The driver's crash-retry delay shrinks with it
  // (run_schedule reads params.rnic.retransmit_interval).
  cfg.retransmit_interval =
      std::min<SimTime>(cfg.retransmit_interval, 200 * sim::kMicrosecond);

  net::FaultPlan plan;
  switch (family) {
    case NetFaultFamily::kCrashDuringRetransmit: {
      // Lossy from early on: almost every crash instant the explorer
      // probes lands while go-back-N replays are in flight.
      net::LossBurst b;
      b.begin = span / 8;
      b.end = span * 4;  // outlasts post-crash recovery traffic too
      b.loss = 0.05;
      b.corrupt = 0.01;
      plan.bursts.push_back(b);
      break;
    }
    case NetFaultFamily::kFlapDuringRecovery: {
      // The cable goes dark across the middle of the run; crashes near
      // the flap probe recovery traffic racing a dead link.
      net::LinkFlap f;
      f.a = 0;
      f.b = client_node;
      f.down_at = span / 3;
      f.up_at = span / 3 + span / 8 + 1;
      plan.link_flaps.push_back(f);
      break;
    }
    case NetFaultFamily::kPartitionThenHeal: {
      net::NetPartition p;
      p.island = {client_node};  // the client's island
      p.begin = span / 2;
      p.end = span / 2 + span / 8 + 1;
      plan.partitions.push_back(p);
      break;
    }
  }
  plan.validate();
  cfg.faults = std::move(plan);
  return cfg;
}

std::string format_reproducer(const Schedule& s) {
  std::ostringstream os;
  os << "seed=" << s.seed << " ops=" << s.ops << " crash=";
  if (s.crashes.empty()) {
    os << "none";
  } else {
    for (std::size_t i = 0; i < s.crashes.size(); ++i) {
      os << (i ? "," : "") << s.crashes[i].replica << "@" << s.crashes[i].at
         << "ns";
    }
  }
  return os.str();
}

namespace {

/// Consumes `lit` from the front of `in`.
bool eat(std::string_view& in, std::string_view lit) {
  if (!in.starts_with(lit)) return false;
  in.remove_prefix(lit.size());
  return true;
}

/// Consumes one unsigned decimal from the front of `in` (no sign, no
/// overflow).
template <typename T>
bool eat_number(std::string_view& in, T& out) {
  const auto [end, ec] = std::from_chars(in.data(), in.data() + in.size(), out);
  if (ec != std::errc{}) return false;
  in.remove_prefix(static_cast<std::size_t>(end - in.data()));
  return true;
}

}  // namespace

std::optional<Schedule> parse_reproducer(std::string_view line) {
  Schedule s;
  if (!eat(line, "seed=") || !eat_number(line, s.seed)) return std::nullopt;

  if (eat(line, " crash_at=")) {  // the single-server form
    SimTime at = 0;
    if (!eat_number(line, at) || !eat(line, "ns ops=") ||
        !eat_number(line, s.ops) || !line.empty()) {
      return std::nullopt;
    }
    if (at != 0) s.crashes.push_back({0, at});
    return s;
  }

  if (!eat(line, " ops=") || !eat_number(line, s.ops) ||
      !eat(line, " crash=")) {
    return std::nullopt;
  }
  if (line == "none") return s;
  do {
    CrashPoint cp;
    if (!eat_number(line, cp.replica) || !eat(line, "@") ||
        !eat_number(line, cp.at) || !eat(line, "ns") || cp.at == 0) {
      return std::nullopt;
    }
    s.crashes.push_back(cp);
  } while (eat(line, ","));
  if (!line.empty()) return std::nullopt;
  return s;
}

}  // namespace prdma::check
