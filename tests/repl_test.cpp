// Multi-replica durability protocols (src/repl/) and their harness
// plumbing: chain/mirror commit ordering, the ack-after-every-replica
// pin (and its inverse under the ack_before_replica_persist mutant),
// crash self-healing, content-mode interaction, registry wiring and
// sweep determinism.

#include <gtest/gtest.h>

#include <map>
#include <stdexcept>
#include <vector>

#include "bench_util/micro.hpp"
#include "bench_util/sweep.hpp"
#include "check/explorer.hpp"
#include "core/node.hpp"
#include "net/faults.hpp"
#include "repl/replication.hpp"
#include "rpcs/registry.hpp"
#include "sim/task.hpp"

namespace prdma::repl {
namespace {

using core::FlushVariant;
using core::RpcOp;
using core::RpcRequest;
using core::RpcResult;

constexpr std::uint32_t kValue = 4096;

bench::MicroConfig repl_config(Protocol p, std::size_t replicas,
                               bool mutant = false) {
  bench::MicroConfig mc;
  mc.object_size = kValue;
  mc.read_ratio = 0.0;
  mc.content_mode = mem::ContentMode::kFull;
  mc.replication.protocol = p;
  mc.replication.replicas = replicas;
  mc.replication.ack_before_replica_persist = mutant;
  return mc;
}

/// A fresh replicated deployment on its own cluster: replicas on
/// nodes [0, R), one client on node R.
struct Fixture {
  explicit Fixture(const bench::MicroConfig& mc,
                   FlushVariant v = FlushVariant::kWFlush)
      : params(bench::params_for(mc)),
        cluster(params, mc.replication.replicas + 1) {
    const std::size_t client_nodes[] = {mc.replication.replicas};
    dep = make_replicated_deployment(cluster, v, mc.replication, client_nodes,
                                     params);
    set = dynamic_cast<ReplicaSet*>(dep.server.get());
    client = dynamic_cast<ReplicatedClient*>(dep.clients.front().get());
  }

  core::ModelParams params;
  core::Cluster cluster;
  core::RpcDeployment dep;
  ReplicaSet* set = nullptr;
  ReplicatedClient* client = nullptr;
};

sim::Task<> write_serial(core::RpcClient& c, std::uint64_t n,
                         std::vector<RpcResult>& out, bool& done) {
  for (std::uint64_t i = 0; i < n; ++i) {
    const RpcRequest req{RpcOp::kWrite, i % 16, kValue};
    out.push_back(co_await c.call(req));
  }
  done = true;
}

// ------------------------------------------------------ commit ordering

class BothProtocols : public ::testing::TestWithParam<Protocol> {};

TEST_P(BothProtocols, SerialWritesGetIdenticalSequencesOnEveryReplica) {
  // A serial writer commits txn i as redo-log sequence i on EVERY
  // replica's connection — the protocols must not reorder or skip.
  Fixture f(repl_config(GetParam(), 3));
  std::vector<RpcResult> results;
  bool done = false;
  sim::spawn(write_serial(*f.client, 12, results, done));
  f.cluster.sim().run();

  ASSERT_TRUE(done);
  ASSERT_EQ(results.size(), 12u);
  for (const auto& r : results) {
    EXPECT_TRUE(r.ok);
    EXPECT_GT(r.durable_at, r.issued_at);
  }
  ASSERT_EQ(f.client->txns().size(), 12u);
  EXPECT_EQ(f.client->acked(), 12u);
  for (const auto& [txn, rec] : f.client->txns()) {
    ASSERT_TRUE(rec.acked);
    ASSERT_EQ(rec.seq_on.size(), 3u);
    for (std::size_t r = 0; r < 3; ++r) {
      EXPECT_EQ(rec.seq_on[r], txn)
          << "replica " << r << " of txn " << txn;
    }
  }
}

TEST_P(BothProtocols, AckFiresOnlyAfterEveryReplicaPersisted) {
  // The cluster ACK pin: a transaction completes no earlier than the
  // LAST replica's persist-ACK for its entry.
  Fixture f(repl_config(GetParam(), 2));
  // hop_ack[r][seq] = instant hop r observed remote persistence.
  std::map<std::uint64_t, sim::SimTime> hop_ack[2];
  for (std::size_t r = 0; r < 2; ++r) {
    f.client->hop(r).set_ack_hook(
        [&f, &hop_ack, r](std::uint64_t seq, std::uint32_t) {
          hop_ack[r][seq] = f.cluster.sim().now();
        });
  }
  std::vector<RpcResult> results;
  bool done = false;
  sim::spawn(write_serial(*f.client, 10, results, done));
  f.cluster.sim().run();

  ASSERT_TRUE(done);
  for (const auto& [txn, rec] : f.client->txns()) {
    ASSERT_TRUE(rec.acked);
    for (std::size_t r = 0; r < 2; ++r) {
      const auto it = hop_ack[r].find(rec.seq_on[r]);
      ASSERT_NE(it, hop_ack[r].end())
          << "txn " << txn << " never persisted on replica " << r;
      EXPECT_GE(rec.acked_at, it->second)
          << "txn " << txn << " acked before replica " << r << " persisted";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Repl, BothProtocols,
                         ::testing::Values(Protocol::kChain,
                                           Protocol::kMirror),
                         [](const auto& param_info) {
                           return param_info.param == Protocol::kChain
                                      ? "Chain"
                                      : "Mirror";
                         });

TEST(Mutant, AckBeforeReplicaPersistInvertsThePin) {
  // Same measurement as the pin above, mutant switched on: some
  // transaction must be acknowledged BEFORE the tail replica persisted
  // it — the window the replicated oracle exists to catch.
  Fixture f(repl_config(Protocol::kChain, 2, /*mutant=*/true));
  std::map<std::uint64_t, sim::SimTime> tail_ack;
  f.client->hop(1).set_ack_hook(
      [&f, &tail_ack](std::uint64_t seq, std::uint32_t) {
        tail_ack[seq] = f.cluster.sim().now();
      });
  std::vector<RpcResult> results;
  bool done = false;
  sim::spawn(write_serial(*f.client, 10, results, done));
  f.cluster.sim().run();

  ASSERT_TRUE(done);
  std::size_t early = 0;
  for (const auto& [txn, rec] : f.client->txns()) {
    ASSERT_TRUE(rec.acked);
    // Background completion still lands every hop eventually.
    ASSERT_NE(rec.seq_on[1], 0u) << "txn " << txn;
    const auto it = tail_ack.find(rec.seq_on[1]);
    ASSERT_NE(it, tail_ack.end());
    if (rec.acked_at < it->second) ++early;
  }
  EXPECT_GT(early, 0u) << "mutant must acknowledge ahead of the tail";
}

// -------------------------------------------------------- read routing

TEST(Repl, ReadsGoToTheHeadAndCreateNoTransactions) {
  Fixture f(repl_config(Protocol::kChain, 2));
  std::vector<RpcResult> results;
  bool done = false;
  sim::spawn([](core::RpcClient& c, std::vector<RpcResult>& out,
                bool& d) -> sim::Task<> {
    out.push_back(co_await c.call({RpcOp::kWrite, 1, kValue}));
    out.push_back(co_await c.call({RpcOp::kRead, 1, kValue}));
    d = true;
  }(*f.client, results, done));
  f.cluster.sim().run();

  ASSERT_TRUE(done);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_TRUE(results[0].ok);
  EXPECT_TRUE(results[1].ok);
  EXPECT_EQ(f.client->txns().size(), 1u) << "reads are not replicated";
}

// ------------------------------------------------- crash & self-healing

TEST(Repl, CrashedReplicaHealsAndEveryOpCompletes) {
  // Mid-run crash of the tail replica: drivers stall on the dead hop,
  // recovery replays its log, writes self-heal; nothing is lost.
  check::ExplorerConfig cfg;
  cfg.protocol = Protocol::kChain;
  cfg.replicas = 2;
  cfg.ops = 24;
  cfg.window = 4;
  const auto dry = check::run_schedule(cfg, {cfg.seed, cfg.ops, {}});
  ASSERT_EQ(dry.ops_completed, cfg.ops);
  ASSERT_EQ(dry.crashes_fired, 0u);

  check::Schedule s{cfg.seed, cfg.ops, {{1, dry.end_time / 2}}};
  const auto r = check::run_schedule(cfg, s);
  EXPECT_GE(r.crashes_fired, 1u);
  EXPECT_EQ(r.ops_completed, cfg.ops) << "self-healing must finish the job";
  EXPECT_GT(r.end_time, dry.end_time) << "recovery costs simulated time";
  EXPECT_TRUE(r.violations.empty())
      << (r.violations.empty() ? "" : r.violations.front().detail);
}

TEST(Repl, CorrelatedCrashOfAllReplicasStillRecovers) {
  check::ExplorerConfig cfg;
  cfg.protocol = Protocol::kMirror;
  cfg.replicas = 2;
  cfg.ops = 16;
  cfg.window = 4;
  const auto dry = check::run_schedule(cfg, {cfg.seed, cfg.ops, {}});
  check::Schedule s{
      cfg.seed, cfg.ops, {{0, dry.end_time / 2}, {1, dry.end_time / 2}}};
  const auto r = check::run_schedule(cfg, s);
  EXPECT_EQ(r.crashes_fired, 2u);
  EXPECT_EQ(r.ops_completed, cfg.ops);
  EXPECT_TRUE(r.violations.empty())
      << (r.violations.empty() ? "" : r.violations.front().detail);
}

// ------------------------------------------------ content-mode contract

TEST(Repl, ShadowContentModeRefusesCrashInjection) {
  // Same fail-closed contract as Node::attach_crash_hook: shadow
  // stores cannot express torn DMA, so crash injection must throw
  // rather than silently pass a content-blind check.
  bench::MicroConfig mc = repl_config(Protocol::kChain, 2);
  mc.content_mode = mem::ContentMode::kShadow;
  Fixture f(mc);
  EXPECT_THROW(f.set->crash_replica(0, sim::kMillisecond), std::logic_error);
}

TEST(Repl, ShadowModeIsTimingIdenticalAndCopiesFewerBytes) {
  // DESIGN.md §7.3 extended to replication: the shadow data plane must
  // not perturb a replicated cell's timing — only elide payload copies
  // across every forwarding hop.
  bench::MicroConfig full = repl_config(Protocol::kChain, 2);
  full.ops = 200;
  bench::MicroConfig shadow = full;
  shadow.content_mode = mem::ContentMode::kShadow;
  const auto a = bench::run_micro(rpcs::System::kWFlushRpc, full);
  const auto b = bench::run_micro(rpcs::System::kWFlushRpc, shadow);
  EXPECT_EQ(a.duration, b.duration);
  EXPECT_EQ(a.ops_completed, b.ops_completed);
  EXPECT_EQ(a.sim_events, b.sim_events);
  EXPECT_LT(b.bytes_copied, a.bytes_copied);
}

// --------------------------------------------------- config validation

TEST(Repl, ReplicaSetRejectsDegenerateConfigs) {
  bench::MicroConfig mc = repl_config(Protocol::kChain, 2);
  const auto params = bench::params_for(mc);
  core::Cluster cluster(params, 3);

  ReplicationConfig none;  // protocol kNone
  EXPECT_THROW(ReplicaSet(cluster, FlushVariant::kWFlush, none, params),
               std::invalid_argument);

  ReplicationConfig one = mc.replication;
  one.replicas = 1;
  EXPECT_THROW(ReplicaSet(cluster, FlushVariant::kWFlush, one, params),
               std::invalid_argument);

  ReplicationConfig all = mc.replication;
  all.replicas = 3;  // no node left for a client
  EXPECT_THROW(ReplicaSet(cluster, FlushVariant::kWFlush, all, params),
               std::invalid_argument);

  // A client cannot live on a replica node.
  ReplicaSet set(cluster, FlushVariant::kWFlush, mc.replication, params);
  EXPECT_THROW((void)set.connect_client(1), std::invalid_argument);
}

// ------------------------------------------------------ registry wiring

TEST(Registry, InactiveReplicationIsThePlainSinglePrimaryPath) {
  bench::MicroConfig mc;
  mc.object_size = kValue;
  const auto params = bench::params_for(mc);
  core::Cluster cluster(params, 2);
  const std::size_t clients[] = {std::size_t{1}};
  auto dep = rpcs::make_deployment(cluster, rpcs::System::kWFlushRpc,
                                   repl::ReplicationConfig{}, clients, params);
  EXPECT_EQ(dep.server->name(), rpcs::name_of(rpcs::System::kWFlushRpc));
  EXPECT_EQ(dynamic_cast<ReplicaSet*>(dep.server.get()), nullptr);
}

TEST(Registry, ActiveReplicationBuildsAReplicaSet) {
  bench::MicroConfig mc = repl_config(Protocol::kMirror, 2);
  const auto params = bench::params_for(mc);
  core::Cluster cluster(params, 3);
  const std::size_t clients[] = {std::size_t{2}};
  auto dep = rpcs::make_deployment(cluster, rpcs::System::kSFlushRpc,
                                   mc.replication, clients, params);
  auto* set = dynamic_cast<ReplicaSet*>(dep.server.get());
  ASSERT_NE(set, nullptr);
  EXPECT_EQ(set->replica_count(), 2u);
  EXPECT_EQ(set->variant(), FlushVariant::kSFlush);
  EXPECT_NE(std::string(set->name()).find("mirror"), std::string::npos);
}

TEST(Registry, ReplicationRequiresADurableRpc) {
  bench::MicroConfig mc = repl_config(Protocol::kChain, 2);
  const auto params = bench::params_for(mc);
  core::Cluster cluster(params, 3);
  const std::size_t clients[] = {std::size_t{2}};
  EXPECT_THROW((void)rpcs::make_deployment(cluster, rpcs::System::kFaRM,
                                           mc.replication, clients, params),
               std::invalid_argument);
}

TEST(Registry, ProtocolNamesRoundTrip) {
  for (const Protocol p :
       {Protocol::kNone, Protocol::kChain, Protocol::kMirror}) {
    const auto back = protocol_from_name(protocol_name(p));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, p);
  }
  EXPECT_FALSE(protocol_from_name("raid6").has_value());
}

// --------------------------------------------------------- determinism

TEST(Determinism, ReplicatedCellsAreByteIdenticalAtAnyJobCount) {
  // The sweep contract extends to replication: --jobs moves wall
  // clock only.
  std::vector<bench::MicroCell> cells;
  for (const Protocol p : {Protocol::kChain, Protocol::kMirror}) {
    bench::MicroConfig mc = repl_config(p, 2);
    mc.content_mode = mem::ContentMode::kShadow;
    mc.ops = 120;
    cells.push_back({rpcs::System::kWFlushRpc, mc});
    cells.push_back({rpcs::System::kSRFlushRpc, mc});
  }
  bench::SweepRunner serial(1);
  bench::SweepRunner wide(4);
  const auto a = bench::run_micro_cells(serial, cells);
  const auto b = bench::run_micro_cells(wide, cells);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].duration, b[i].duration) << "cell " << i;
    EXPECT_EQ(a[i].ops_completed, b[i].ops_completed) << "cell " << i;
    EXPECT_EQ(a[i].sim_events, b[i].sim_events) << "cell " << i;
    EXPECT_EQ(a[i].kops, b[i].kops) << "cell " << i;
  }
}

TEST(Determinism, ReplicatedStatsAreIdenticalAcrossEngineThreadCounts) {
  // DESIGN.md §7.5 applied to replication: a noise-free replicated
  // cell must produce the same stats whether the engine runs one
  // serial partition or one partition per node under 8 workers. Chain
  // exercises the forced-single-partition path (its hop clients live
  // on forwarder nodes); mirror genuinely shards across replicas.
  for (const Protocol p : {Protocol::kChain, Protocol::kMirror}) {
    bench::MicroConfig mc = repl_config(p, 2);
    mc.ops = 150;
    mc.jitter_sigma = 0.0;
    bench::MicroConfig wide = mc;
    wide.engine_threads = 8;
    const auto a = bench::run_micro(rpcs::System::kWFlushRpc, mc);
    const auto b = bench::run_micro(rpcs::System::kWFlushRpc, wide);
    EXPECT_EQ(a.duration, b.duration) << protocol_name(p);
    EXPECT_EQ(a.ops_completed, b.ops_completed) << protocol_name(p);
    EXPECT_EQ(a.sim_events, b.sim_events) << protocol_name(p);
    EXPECT_EQ(a.kops, b.kops) << protocol_name(p);
    EXPECT_EQ(a.latency.sum(), b.latency.sum()) << protocol_name(p);
    EXPECT_EQ(a.durable_latency.sum(), b.durable_latency.sum())
        << protocol_name(p);
    EXPECT_EQ(a.server.ops_processed, b.server.ops_processed)
        << protocol_name(p);
  }
}

// ------------------------------------------------------ degraded fabric

TEST(DegradedFabric, BothProtocolsCompleteEveryOpUnderLoss) {
  // RC go-back-N underneath the replication hops (DESIGN.md §7.8):
  // chain forwarding and mirror fan-out complete every transaction on
  // a lossy fabric, and at 1% loss the drop/retransmit accounting
  // shows the cables really were lossy.
  for (const Protocol p : {Protocol::kChain, Protocol::kMirror}) {
    for (const double loss : {1e-4, 1e-2}) {
      bench::MicroConfig mc = repl_config(p, 2);
      mc.ops = 150;
      mc.jitter_sigma = 0.0;
      mc.loss_probability = loss;
      mc.retransmit_interval = 500 * sim::kMicrosecond;
      const auto r = bench::run_micro(rpcs::System::kWFlushRpc, mc);
      EXPECT_EQ(r.ops_completed, mc.ops)
          << protocol_name(p) << " loss=" << loss;
      if (loss >= 1e-2) {
        EXPECT_GT(r.net_drops, 0u) << protocol_name(p);
        EXPECT_GT(r.rnic_retransmits, 0u) << protocol_name(p);
      }
    }
  }
}

TEST(DegradedFabric, LossyReplicatedStatsAreIdenticalAcrossThreadCounts) {
  // §7.8 determinism pin for replication: a lossy cell (with a client
  // partition layered on top) pins per-link RNG streams, so chain (a
  // single forced partition) and mirror (per-node partitions) both
  // stay byte-identical at 1 and 8 engine threads — including the
  // drop and retransmit counters.
  for (const Protocol p : {Protocol::kChain, Protocol::kMirror}) {
    bench::MicroConfig mc = repl_config(p, 2);
    mc.ops = 150;
    mc.jitter_sigma = 0.0;
    mc.loss_probability = 1e-2;
    mc.retransmit_interval = 500 * sim::kMicrosecond;
    net::FaultPlan plan;
    plan.partitions.push_back(
        {{2}, 100 * sim::kMicrosecond, 250 * sim::kMicrosecond});
    plan.validate();
    mc.faults = plan;
    bench::MicroConfig wide = mc;
    wide.engine_threads = 8;
    const auto a = bench::run_micro(rpcs::System::kWFlushRpc, mc);
    const auto b = bench::run_micro(rpcs::System::kWFlushRpc, wide);
    EXPECT_GT(a.net_drops, 0u) << protocol_name(p);
    EXPECT_GT(a.rnic_retransmits, 0u) << protocol_name(p);
    EXPECT_EQ(a.duration, b.duration) << protocol_name(p);
    EXPECT_EQ(a.ops_completed, b.ops_completed) << protocol_name(p);
    EXPECT_EQ(a.sim_events, b.sim_events) << protocol_name(p);
    EXPECT_EQ(a.kops, b.kops) << protocol_name(p);
    EXPECT_EQ(a.latency.sum(), b.latency.sum()) << protocol_name(p);
    EXPECT_EQ(a.durable_latency.sum(), b.durable_latency.sum())
        << protocol_name(p);
    EXPECT_EQ(a.net_drops, b.net_drops) << protocol_name(p);
    EXPECT_EQ(a.rnic_retransmits, b.rnic_retransmits) << protocol_name(p);
  }
}

// ---------------------------------------------------------- reproducer

TEST(Reproducer, FormatParseRoundTrip) {
  const check::Schedule s{42, 17, {{0, 111}, {1, 222}}};
  const auto line = check::format_reproducer(s);
  EXPECT_EQ(line, "seed=42 ops=17 crash=0@111ns,1@222ns");
  const auto back = check::parse_reproducer(line);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->seed, s.seed);
  EXPECT_EQ(back->ops, s.ops);
  EXPECT_EQ(back->crashes, s.crashes);
}

TEST(Reproducer, DryScheduleSaysCrashNone) {
  const check::Schedule s{7, 8, {}};
  const auto line = check::format_reproducer(s);
  EXPECT_EQ(line, "seed=7 ops=8 crash=none");
  const auto back = check::parse_reproducer(line);
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(back->crashes.empty());
}

TEST(Reproducer, ParseRejectsGarbage) {
  EXPECT_FALSE(check::parse_reproducer("not a reproducer").has_value());
  EXPECT_FALSE(check::parse_reproducer("seed=1 ops=2").has_value());
  EXPECT_FALSE(check::parse_reproducer("seed=1 ops=2 crash=").has_value());
}

}  // namespace
}  // namespace prdma::repl
