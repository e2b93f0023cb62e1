// Crash-schedule explorer + durability oracle (src/check/).
//
// The oracle's contract (§4.2): a persist-ACK is a promise that
// survives a power failure at ANY later nanosecond. These tests drive
// the explorer over all four durable RPC variants — random schedules
// plus targeted schedules straddling every protocol-phase boundary —
// and additionally prove the oracle has teeth by switching on the
// ack-before-persist RNIC mutant and demanding a caught, shrunken,
// re-runnable reproducer.

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>

#include "check/explorer.hpp"
#include "check/oracle.hpp"
#include "core/redo_log.hpp"
#include "core/wire.hpp"

namespace prdma::check {
namespace {

using core::FlushVariant;

ExplorerConfig small_config(FlushVariant v) {
  ExplorerConfig cfg;
  cfg.variant = v;
  cfg.seed = 17;
  cfg.ops = 48;
  cfg.window = 8;
  cfg.value_size = 4096;
  cfg.random_schedules = 32;
  cfg.restart_delay = 1 * sim::kMillisecond;
  return cfg;
}

/// The mutant is only observable when the ACK can outrun the DMA: a
/// 32 KB entry needs ~6 us of PCIe/media time while the flush ACK
/// round-trip is ~2 us, so an early ACK leaves a multi-microsecond
/// window in which a crash tears acknowledged data.
ExplorerConfig mutant_config() {
  ExplorerConfig cfg = small_config(FlushVariant::kWFlush);
  cfg.value_size = 32 * 1024;
  cfg.ops = 32;
  cfg.ack_before_persist = true;
  return cfg;
}

// ------------------------------------------------------------ reproducer

TEST(Reproducer, FormatParseRoundTrip) {
  const Schedule s{42, 17, {{0, 123456789}}};
  const auto line = format_reproducer(s);
  EXPECT_EQ(line, "seed=42 ops=17 crash=0@123456789ns");
  const auto back = parse_reproducer(line);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->seed, s.seed);
  EXPECT_EQ(back->crashes, s.crashes);
  EXPECT_EQ(back->ops, s.ops);
}

TEST(Reproducer, ParseRejectsGarbage) {
  EXPECT_FALSE(parse_reproducer("not a reproducer").has_value());
  EXPECT_FALSE(parse_reproducer("seed=1 crash_at=2").has_value());
}

TEST(Reproducer, ParseRejectsSignsAndTrailingText) {
  EXPECT_FALSE(parse_reproducer("seed=-1 crash_at=5000ns ops=3junk"));
  EXPECT_FALSE(parse_reproducer("seed=-1 crash_at=5000ns ops=3"));
  EXPECT_FALSE(parse_reproducer("seed=1 crash_at=5000ns ops=3junk"));
  EXPECT_FALSE(parse_reproducer("seed=+1 ops=3 crash=none"));
  EXPECT_FALSE(parse_reproducer("seed=1 ops=-3 crash=none"));
  EXPECT_FALSE(parse_reproducer("seed=1 ops=3 crash=none "));
  EXPECT_FALSE(parse_reproducer("seed=1 ops=3 crash=0@5000ns,"));
  EXPECT_FALSE(parse_reproducer("seed=1 ops=3 crash=0@5000ns junk"));
  EXPECT_FALSE(parse_reproducer(" seed=1 ops=3 crash=none"));
}

TEST(Reproducer, ParseRejectsOverflow) {
  EXPECT_TRUE(parse_reproducer("seed=18446744073709551615 ops=3 crash=none"));
  EXPECT_FALSE(parse_reproducer("seed=18446744073709551616 ops=3 crash=none"));
  EXPECT_FALSE(
      parse_reproducer("seed=1 ops=3 crash=0@99999999999999999999ns"));
  EXPECT_FALSE(
      parse_reproducer("seed=1 crash_at=99999999999999999999ns ops=3"));
}

TEST(Reproducer, ParseRejectsEmptyCrashListAndCrashAtZero) {
  EXPECT_FALSE(parse_reproducer("seed=1 ops=3 crash="));
  EXPECT_FALSE(parse_reproducer("seed=1 ops=3 crash=0@0ns"));
  EXPECT_FALSE(parse_reproducer("seed=1 ops=3 crash=0@5000ns,1@0ns"));
}

TEST(Reproducer, SingleServerLineAtZeroMeansNoCrash) {
  const auto s = parse_reproducer("seed=5 crash_at=0ns ops=9");
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->seed, 5u);
  EXPECT_EQ(s->ops, 9u);
  EXPECT_TRUE(s->crashes.empty());
  EXPECT_EQ(format_reproducer(*s), "seed=5 ops=9 crash=none");
}

TEST(Reproducer, RunRejectsCrashPointsOutsideTheDeployment) {
  const ExplorerConfig single = small_config(FlushVariant::kWFlush);
  EXPECT_THROW((void)run_schedule(single, Schedule{1, 4, {{1, 5000}}}),
               std::invalid_argument);
  EXPECT_THROW((void)run_schedule(single, Schedule{1, 4, {{0, 0}}}),
               std::invalid_argument);
  EXPECT_THROW(
      (void)run_schedule(single, Schedule{1, 4, {{0, 5000}, {0, 9000}}}),
      std::invalid_argument);

  ExplorerConfig chain = single;
  chain.protocol = repl::Protocol::kChain;
  chain.replicas = 2;
  EXPECT_THROW((void)run_schedule(chain, Schedule{1, 4, {{7, 5000}}}),
               std::invalid_argument);
  EXPECT_THROW((void)run_schedule(chain, Schedule{1, 4, {{2, 5000}}}),
               std::invalid_argument);
}

// ------------------------------------------------------- oracle plumbing

TEST(Oracle, CleanRunRecordsEveryAckAndStaysSilent) {
  const ExplorerConfig cfg = small_config(FlushVariant::kWFlush);
  const auto r = run_schedule(cfg, Schedule{cfg.seed, cfg.ops, {}});
  EXPECT_EQ(r.crashes_fired, 0u);
  EXPECT_EQ(r.ops_completed, cfg.ops);
  EXPECT_EQ(r.acks, cfg.ops);  // write-only workload: one ACK per op
  EXPECT_EQ(r.replays, 0u);
  EXPECT_TRUE(r.violations.empty()) << "clean run must not violate";
}

TEST(Oracle, CrashedRunReplaysAndCompletesEverything) {
  const ExplorerConfig cfg = small_config(FlushVariant::kWFlush);
  // Crash mid-run: half the clean run length.
  const auto dry = run_schedule(cfg, Schedule{cfg.seed, cfg.ops, {}});
  const auto r =
      run_schedule(cfg, Schedule{cfg.seed, cfg.ops, {{0, dry.end_time / 2}}});
  EXPECT_EQ(r.crashes_fired, 1u);
  EXPECT_EQ(r.ops_completed, cfg.ops);  // recovery + re-sends finish the job
  EXPECT_TRUE(r.violations.empty()) << "correct stack survives any schedule";
}

TEST(Oracle, DeterministicPayloadMatchesDurableClientPattern) {
  // The oracle recomputes acknowledged bytes from (seq, len) alone;
  // this pins the shared pattern so client and oracle cannot drift.
  const auto p = core::deterministic_payload(3, 8);
  ASSERT_EQ(p.size(), 8u);
  for (std::uint32_t i = 0; i < 8; ++i) {
    EXPECT_EQ(p[i], static_cast<std::byte>((3 * 131 + i * 7) & 0xFF));
  }
}

// ---------------------------------------------------------- determinism

TEST(Explorer, IdenticalScheduleGivesBitIdenticalResult) {
  const ExplorerConfig cfg = small_config(FlushVariant::kSFlush);
  const auto dry = run_schedule(cfg, Schedule{cfg.seed, cfg.ops, {}});
  const Schedule s{cfg.seed, cfg.ops, {{0, dry.end_time / 3}}};
  const auto a = run_schedule(cfg, s);
  const auto b = run_schedule(cfg, s);
  EXPECT_EQ(a.end_time, b.end_time);
  EXPECT_EQ(a.ops_completed, b.ops_completed);
  EXPECT_EQ(a.acks, b.acks);
  EXPECT_EQ(a.replays, b.replays);
  EXPECT_EQ(a.resends, b.resends);
  EXPECT_EQ(a.violations.size(), b.violations.size());
}

TEST(Explorer, DryRunHarvestsPhaseBoundaries) {
  const ExplorerConfig cfg = small_config(FlushVariant::kWFlush);
  std::vector<sim::SimTime> boundaries;
  (void)run_schedule(cfg, Schedule{cfg.seed, cfg.ops, {}}, &boundaries);
  EXPECT_GE(boundaries.size(), 2 * cfg.ops)  // posted + done per op minimum
      << "phase traces should fire for every verb transition";
  EXPECT_TRUE(std::is_sorted(boundaries.begin(), boundaries.end()));
}

// ---------------------------------------- all variants survive schedules

class AllVariants : public ::testing::TestWithParam<FlushVariant> {};

TEST_P(AllVariants, Survives32RandomPlusTargetedSchedules) {
  const ExplorerConfig cfg = small_config(GetParam());
  const auto rep = explore(cfg);
  EXPECT_GE(rep.schedules_run,
            static_cast<std::uint64_t>(cfg.random_schedules));
  EXPECT_FALSE(rep.boundary_points.empty());
  EXPECT_EQ(rep.schedules_failed, 0u)
      << (rep.first_failure.has_value()
              ? format_reproducer(rep.first_failure->schedule)
              : std::string())
      << (rep.first_failure.has_value() && !rep.first_failure->violations.empty()
              ? rep.first_failure->violations.front().detail
              : std::string());
  EXPECT_FALSE(rep.minimal.has_value());
}

INSTANTIATE_TEST_SUITE_P(Check, AllVariants,
                         ::testing::Values(FlushVariant::kWFlush,
                                           FlushVariant::kSFlush,
                                           FlushVariant::kWRFlush,
                                           FlushVariant::kSRFlush),
                         [](const auto& info) {
                           switch (info.param) {
                             case FlushVariant::kWFlush: return "WFlush";
                             case FlushVariant::kSFlush: return "SFlush";
                             case FlushVariant::kWRFlush: return "WRFlush";
                             case FlushVariant::kSRFlush: return "SRFlush";
                           }
                           return "Unknown";
                         });

// ----------------------------------------------------- mutant detection

TEST(Mutant, AckBeforePersistIsCaughtAndShrunk) {
  const ExplorerConfig cfg = mutant_config();
  const auto rep = explore(cfg);
  ASSERT_GT(rep.schedules_failed, 0u)
      << "the explorer must find a schedule that exposes the early ACK";
  ASSERT_TRUE(rep.first_failure.has_value());
  ASSERT_TRUE(rep.minimal.has_value());
  EXPECT_LE(rep.minimal->schedule.ops, rep.first_failure->schedule.ops);
  EXPECT_FALSE(rep.reproducer.empty());

  // The violation is acknowledged-data loss (or corruption), at a
  // concrete sequence and instant.
  const auto& v = rep.minimal->violations.front();
  EXPECT_TRUE(v.kind == ViolationKind::kAckedLost ||
              v.kind == ViolationKind::kAckedCorrupt)
      << violation_name(v.kind) << ": " << v.detail;
  EXPECT_GT(v.seq, 0u);
  EXPECT_GT(v.at, 0u);
}

TEST(Explorer, ParallelJobsReportIsBitIdenticalToSerial) {
  // The whole point of the sweep runner: --jobs only changes wall
  // clock. Run the mutant hunt serial and 8-wide; every field of the
  // report — counts, boundary harvest, first failure, shrunken minimal
  // reproducer line — must match bit for bit.
  ExplorerConfig cfg = mutant_config();
  cfg.random_schedules = 12;
  ExplorerConfig wide = cfg;
  wide.jobs = 8;
  const auto a = explore(cfg);
  const auto b = explore(wide);
  EXPECT_EQ(a.schedules_run, b.schedules_run);
  EXPECT_EQ(a.schedules_failed, b.schedules_failed);
  EXPECT_EQ(a.clean_end, b.clean_end);
  EXPECT_EQ(a.boundary_points, b.boundary_points);
  ASSERT_EQ(a.first_failure.has_value(), b.first_failure.has_value());
  ASSERT_TRUE(a.first_failure.has_value())
      << "mutant config must fail under both job counts";
  EXPECT_EQ(a.first_failure->schedule.seed, b.first_failure->schedule.seed);
  EXPECT_EQ(a.first_failure->schedule.crashes,
            b.first_failure->schedule.crashes);
  EXPECT_EQ(a.first_failure->schedule.ops, b.first_failure->schedule.ops);
  ASSERT_EQ(a.first_failure->violations.size(),
            b.first_failure->violations.size());
  for (std::size_t i = 0; i < a.first_failure->violations.size(); ++i) {
    EXPECT_EQ(a.first_failure->violations[i].kind,
              b.first_failure->violations[i].kind);
    EXPECT_EQ(a.first_failure->violations[i].seq,
              b.first_failure->violations[i].seq);
    EXPECT_EQ(a.first_failure->violations[i].at,
              b.first_failure->violations[i].at);
  }
  ASSERT_EQ(a.minimal.has_value(), b.minimal.has_value());
  EXPECT_EQ(a.reproducer, b.reproducer);
}

TEST(Mutant, ShrunkenReproducerRoundTrips) {
  const ExplorerConfig cfg = mutant_config();
  const auto rep = explore(cfg);
  ASSERT_TRUE(rep.minimal.has_value());

  // Parse the printed seed+timestamp pair back and re-run it cold: the
  // identical violation must reappear.
  const auto parsed = parse_reproducer(rep.reproducer);
  ASSERT_TRUE(parsed.has_value());
  const auto replay = run_schedule(cfg, *parsed);
  ASSERT_FALSE(replay.violations.empty())
      << "reproducer must re-trigger the failure: " << rep.reproducer;
  EXPECT_EQ(replay.violations.size(), rep.minimal->violations.size());
  EXPECT_EQ(replay.violations.front().kind,
            rep.minimal->violations.front().kind);
  EXPECT_EQ(replay.violations.front().seq, rep.minimal->violations.front().seq);
  EXPECT_EQ(replay.violations.front().at, rep.minimal->violations.front().at);
}

TEST(Mutant, CleanWFlushWithLargePayloadsStillPasses) {
  // Control: identical workload without the mutant — the window the
  // mutant opens must not exist in the correct RNIC.
  ExplorerConfig cfg = mutant_config();
  cfg.ack_before_persist = false;
  cfg.random_schedules = 8;
  const auto rep = explore(cfg);
  EXPECT_EQ(rep.schedules_failed, 0u);
}

// ------------------------------------------------------ degraded fabric

// Acceptance matrix (DESIGN.md §7.8): the persist-ACK promise must
// hold on a lossy fabric exactly as on a clean one — go-back-N
// retransmission may slow schedules down, never weaken them.

TEST_P(AllVariants, SurvivesCrashSchedulesUnderPacketLoss) {
  ExplorerConfig cfg = small_config(GetParam());
  cfg.loss_probability = 1e-2;
  cfg.retransmit_interval = 200 * sim::kMicrosecond;
  cfg.random_schedules = 12;
  const auto rep = explore(cfg);
  EXPECT_GT(rep.schedules_run, 0u);
  EXPECT_EQ(rep.schedules_failed, 0u)
      << (rep.first_failure.has_value()
              ? format_reproducer(rep.first_failure->schedule)
              : std::string())
      << (rep.first_failure.has_value() && !rep.first_failure->violations.empty()
              ? rep.first_failure->violations.front().detail
              : std::string());
}

TEST_P(AllVariants, SurvivesEveryNetFaultFamily) {
  for (const NetFaultFamily family :
       {NetFaultFamily::kCrashDuringRetransmit,
        NetFaultFamily::kFlapDuringRecovery,
        NetFaultFamily::kPartitionThenHeal}) {
    ExplorerConfig cfg = small_config(GetParam());
    cfg.random_schedules = 8;
    cfg = with_net_faults(cfg, family);
    const auto rep = explore(cfg);
    EXPECT_EQ(rep.schedules_failed, 0u)
        << net_fault_family_name(family) << ": "
        << (rep.first_failure.has_value()
                ? format_reproducer(rep.first_failure->schedule)
                : std::string())
        << " "
        << (rep.first_failure.has_value() &&
                    !rep.first_failure->violations.empty()
                ? rep.first_failure->violations.front().detail
                : std::string());
  }
}

TEST(NetFaults, MildLossLeavesExplorationClean) {
  // The 1e-4 point of the loss matrix: rare enough that many schedules
  // see no drop at all, which must not perturb the oracle either.
  ExplorerConfig cfg = small_config(FlushVariant::kWRFlush);
  cfg.loss_probability = 1e-4;
  cfg.retransmit_interval = 200 * sim::kMicrosecond;
  cfg.random_schedules = 8;
  const auto rep = explore(cfg);
  EXPECT_EQ(rep.schedules_failed, 0u);
}

TEST(NetFaults, FaultedScheduleIsDeterministic) {
  // Loss draws and fault windows are part of the schedule's pure
  // function of (cfg, s): replaying the same point must be
  // bit-identical, or reproducers printed under faults would lie.
  const ExplorerConfig cfg =
      with_net_faults(small_config(FlushVariant::kSFlush),
                      NetFaultFamily::kFlapDuringRecovery);
  const auto dry = run_schedule(cfg, Schedule{cfg.seed, cfg.ops, {}});
  const Schedule s{cfg.seed, cfg.ops, {{0, dry.end_time / 3}}};
  const auto a = run_schedule(cfg, s);
  const auto b = run_schedule(cfg, s);
  EXPECT_EQ(a.end_time, b.end_time);
  EXPECT_EQ(a.ops_completed, b.ops_completed);
  EXPECT_EQ(a.acks, b.acks);
  EXPECT_EQ(a.resends, b.resends);
  EXPECT_EQ(a.replays, b.replays);
  EXPECT_EQ(a.violations.size(), b.violations.size());
}

TEST(Mutant, EarlyAckIsStillCaughtOnADegradedFabric) {
  // The oracle must not lose its teeth when retransmissions blur the
  // timeline: the ack-before-persist window is still a violation when
  // crashes land inside a loss burst.
  const ExplorerConfig cfg =
      with_net_faults(mutant_config(), NetFaultFamily::kCrashDuringRetransmit);
  const auto rep = explore(cfg);
  ASSERT_GT(rep.schedules_failed, 0u)
      << "degraded fabric must not mask the early-ACK mutant";
  ASSERT_TRUE(rep.minimal.has_value());
  EXPECT_FALSE(rep.reproducer.empty());
}

// ============================================= replicated crash oracle

ExplorerConfig small_repl_config(core::FlushVariant v, repl::Protocol p) {
  ExplorerConfig cfg;
  cfg.variant = v;
  cfg.protocol = p;
  cfg.replicas = 2;
  cfg.seed = 17;
  cfg.ops = 18;
  cfg.window = 4;
  cfg.value_size = 2048;
  cfg.random_schedules = 8;
  cfg.max_boundary_points = 6;
  cfg.jobs = 4;
  return cfg;
}

/// The replicated mutant acknowledges once the HEAD persisted and
/// finishes the other hops in the background; crashing the head inside
/// the forwarding window strands the acked entry on the dead replica —
/// the surviving peer has nothing (ViolationKind::kReplicaLost).
ExplorerConfig repl_mutant_config() {
  ExplorerConfig cfg =
      small_repl_config(core::FlushVariant::kWFlush, repl::Protocol::kChain);
  cfg.ops = 24;
  cfg.value_size = 16 * 1024;
  cfg.random_schedules = 16;
  cfg.max_boundary_points = 10;
  cfg.ack_before_replica_persist = true;
  return cfg;
}

TEST(ReplOracle, CleanRunAuditsEveryHopAndStaysSilent) {
  const auto cfg = small_repl_config(core::FlushVariant::kWFlush,
                                     repl::Protocol::kChain);
  const auto r = run_schedule(cfg, Schedule{cfg.seed, cfg.ops, {}});
  EXPECT_EQ(r.crashes_fired, 0u);
  EXPECT_EQ(r.ops_completed, cfg.ops);
  EXPECT_EQ(r.txn_acks, cfg.ops);
  // One per-replica persist-ACK per hop of every transaction.
  EXPECT_EQ(r.acks, cfg.ops * cfg.replicas);
  EXPECT_TRUE(r.violations.empty());
}

class ReplAllCombos
    : public ::testing::TestWithParam<
          std::tuple<core::FlushVariant, repl::Protocol>> {};

TEST_P(ReplAllCombos, SurvivesTargetedCorrelatedAndRandomCrashSweeps) {
  const auto cfg = small_repl_config(std::get<0>(GetParam()),
                                     std::get<1>(GetParam()));
  const auto rep = explore(cfg);
  EXPECT_GE(rep.schedules_run,
            static_cast<std::uint64_t>(cfg.random_schedules));
  EXPECT_FALSE(rep.boundary_points.empty());
  EXPECT_EQ(rep.schedules_failed, 0u)
      << (rep.first_failure.has_value()
              ? format_reproducer(rep.first_failure->schedule)
              : std::string())
      << " "
      << (rep.first_failure.has_value() &&
                  !rep.first_failure->violations.empty()
              ? rep.first_failure->violations.front().detail
              : std::string());
  EXPECT_FALSE(rep.minimal.has_value());
}

INSTANTIATE_TEST_SUITE_P(
    Repl, ReplAllCombos,
    ::testing::Combine(::testing::Values(FlushVariant::kWFlush,
                                         FlushVariant::kSFlush,
                                         FlushVariant::kWRFlush,
                                         FlushVariant::kSRFlush),
                       ::testing::Values(repl::Protocol::kChain,
                                         repl::Protocol::kMirror)),
    [](const auto& param_info) {
      std::string n;
      switch (std::get<0>(param_info.param)) {
        case FlushVariant::kWFlush: n = "WFlush"; break;
        case FlushVariant::kSFlush: n = "SFlush"; break;
        case FlushVariant::kWRFlush: n = "WRFlush"; break;
        case FlushVariant::kSRFlush: n = "SRFlush"; break;
      }
      n += std::get<1>(param_info.param) == repl::Protocol::kChain ? "Chain"
                                                                   : "Mirror";
      return n;
    });

TEST(ReplMutant, AckBeforeReplicaPersistIsCaughtAndShrunk) {
  const auto cfg = repl_mutant_config();
  const auto rep = explore(cfg);
  ASSERT_GT(rep.schedules_failed, 0u)
      << "the explorer must find a head crash inside the forwarding window";
  ASSERT_TRUE(rep.first_failure.has_value());
  ASSERT_TRUE(rep.minimal.has_value());
  EXPECT_LE(rep.minimal->schedule.ops, rep.first_failure->schedule.ops);
  EXPECT_FALSE(rep.reproducer.empty());

  const auto& v = rep.minimal->violations.front();
  EXPECT_TRUE(v.kind == ViolationKind::kReplicaLost ||
              v.kind == ViolationKind::kTxnLost)
      << violation_name(v.kind) << ": " << v.detail;
  EXPECT_GT(v.seq, 0u);
  EXPECT_GT(v.at, 0u);
}

TEST(ReplMutant, ShrunkenReproducerRoundTrips) {
  const auto cfg = repl_mutant_config();
  const auto rep = explore(cfg);
  ASSERT_TRUE(rep.minimal.has_value());

  // Parse the printed schedule back and re-run it cold: the identical
  // violation must reappear, bit for bit.
  const auto parsed = parse_reproducer(rep.reproducer);
  ASSERT_TRUE(parsed.has_value());
  const auto replay = run_schedule(cfg, *parsed);
  ASSERT_FALSE(replay.violations.empty())
      << "reproducer must re-trigger the failure: " << rep.reproducer;
  EXPECT_EQ(replay.violations.size(), rep.minimal->violations.size());
  EXPECT_EQ(replay.violations.front().kind,
            rep.minimal->violations.front().kind);
  EXPECT_EQ(replay.violations.front().seq,
            rep.minimal->violations.front().seq);
  EXPECT_EQ(replay.violations.front().at, rep.minimal->violations.front().at);
}

TEST(ReplMutant, CorrectChainWithSameWorkloadPasses) {
  // Control: the identical workload without the mutant must survive
  // the exact same exploration.
  ExplorerConfig cfg = repl_mutant_config();
  cfg.ack_before_replica_persist = false;
  cfg.random_schedules = 8;
  const auto rep = explore(cfg);
  EXPECT_EQ(rep.schedules_failed, 0u)
      << (rep.first_failure.has_value() &&
                  !rep.first_failure->violations.empty()
              ? rep.first_failure->violations.front().detail
              : std::string());
}

TEST(ReplExplorer, ParallelJobsReportIsBitIdenticalToSerial) {
  ExplorerConfig cfg = repl_mutant_config();
  cfg.random_schedules = 8;
  cfg.jobs = 1;
  ExplorerConfig wide = cfg;
  wide.jobs = 8;
  const auto a = explore(cfg);
  const auto b = explore(wide);
  EXPECT_EQ(a.schedules_run, b.schedules_run);
  EXPECT_EQ(a.schedules_failed, b.schedules_failed);
  EXPECT_EQ(a.clean_end, b.clean_end);
  EXPECT_EQ(a.boundary_points, b.boundary_points);
  ASSERT_EQ(a.first_failure.has_value(), b.first_failure.has_value());
  ASSERT_TRUE(a.first_failure.has_value());
  EXPECT_EQ(a.first_failure->schedule.seed, b.first_failure->schedule.seed);
  EXPECT_EQ(a.first_failure->schedule.ops, b.first_failure->schedule.ops);
  EXPECT_EQ(a.first_failure->schedule.crashes,
            b.first_failure->schedule.crashes);
  EXPECT_EQ(a.reproducer, b.reproducer);
}

// ------------------------------------ replication on a degraded fabric

TEST(ReplNetFaults, BothProtocolsSurviveCrashSweepsUnderLoss) {
  // Replication hops ride the same lossy transport as clients: chain
  // forwarding and mirror fan-out must keep the replicated durability
  // predicate with 1% of packets vanishing.
  for (const repl::Protocol proto :
       {repl::Protocol::kChain, repl::Protocol::kMirror}) {
    auto cfg = small_repl_config(core::FlushVariant::kWFlush, proto);
    cfg.loss_probability = 1e-2;
    cfg.retransmit_interval = 200 * sim::kMicrosecond;
    cfg.random_schedules = 6;
    const auto rep = explore(cfg);
    EXPECT_EQ(rep.schedules_failed, 0u)
        << (proto == repl::Protocol::kChain ? "chain" : "mirror") << ": "
        << (rep.first_failure.has_value()
                ? format_reproducer(rep.first_failure->schedule)
                : std::string())
        << " "
        << (rep.first_failure.has_value() &&
                    !rep.first_failure->violations.empty()
                ? rep.first_failure->violations.front().detail
                : std::string());
  }
}

TEST(ReplNetFaults, CannedFamiliesTargetTheClientNode) {
  // The client sits on node R: the canned flap and partition must cut
  // it off, not a replica hop, and a crash inside the window heals.
  const auto base =
      small_repl_config(core::FlushVariant::kWFlush, repl::Protocol::kMirror);
  const auto flap = with_net_faults(base, NetFaultFamily::kFlapDuringRecovery);
  ASSERT_EQ(flap.faults.link_flaps.size(), 1u);
  EXPECT_EQ(flap.faults.link_flaps[0].a, 0u);
  EXPECT_EQ(flap.faults.link_flaps[0].b, 2u);
  const auto part = with_net_faults(base, NetFaultFamily::kPartitionThenHeal);
  ASSERT_EQ(part.faults.partitions.size(), 1u);
  EXPECT_EQ(part.faults.partitions[0].island, std::vector<net::NodeId>{2});

  const sim::SimTime down = part.faults.partitions[0].begin;
  const auto r =
      run_schedule(part, Schedule{part.seed, part.ops, {{1, down + 1}}});
  EXPECT_EQ(r.crashes_fired, 1u);
  EXPECT_EQ(r.ops_completed, part.ops);
  EXPECT_TRUE(r.violations.empty())
      << (r.violations.empty() ? "" : r.violations.front().detail);
}

TEST(ReplNetFaults, ChainSurvivesReplicaLinkFlapAcrossCrashSweep) {
  // Flap the head→tail cable over the middle of the run: forwarding
  // hops stall on go-back-N until the cable heals, and replica crashes
  // layered on top must still never strand an acked transaction.
  auto cfg = small_repl_config(core::FlushVariant::kSRFlush,
                               repl::Protocol::kChain);
  cfg.retransmit_interval = 200 * sim::kMicrosecond;
  cfg.random_schedules = 6;
  const auto dry = run_schedule(cfg, Schedule{cfg.seed, cfg.ops, {}});
  const sim::SimTime span = std::max<sim::SimTime>(dry.end_time, 16);
  net::FaultPlan plan;
  plan.link_flaps.push_back({0, 1, span / 3, span / 3 + span / 8 + 1});
  plan.validate();
  cfg.faults = std::move(plan);
  const auto rep = explore(cfg);
  EXPECT_EQ(rep.schedules_failed, 0u)
      << (rep.first_failure.has_value()
              ? format_reproducer(rep.first_failure->schedule)
              : std::string())
      << " "
      << (rep.first_failure.has_value() &&
                  !rep.first_failure->violations.empty()
              ? rep.first_failure->violations.front().detail
              : std::string());
}

// ========================================================= golden pins
//
// Literal values of whole explorations, so a refactor of the harness
// cannot move a candidate, a verdict or a shrunken schedule unnoticed.

TEST(Golden, SingleServerMutantHunt) {
  const auto rep = explore(mutant_config());
  EXPECT_EQ(rep.schedules_run, 80u);
  EXPECT_EQ(rep.schedules_failed, 46u);
  EXPECT_EQ(rep.clean_end, 216940u);
  EXPECT_EQ(rep.boundary_points, (std::vector<sim::SimTime>{
                                     259, 598, 30148, 45146, 58362, 71680,
                                     85958, 99384, 112432, 128279, 142071,
                                     155638, 170705, 183902, 203703,
                                     231540}));
  ASSERT_TRUE(rep.first_failure.has_value());
  EXPECT_EQ(rep.first_failure->schedule.seed, 17u);
  EXPECT_EQ(rep.first_failure->schedule.ops, 32u);
  EXPECT_EQ(rep.first_failure->schedule.crashes,
            (std::vector<CrashPoint>{{0, 30147}}));
  ASSERT_TRUE(rep.minimal.has_value());
  EXPECT_EQ(rep.minimal->schedule.seed, 17u);
  EXPECT_EQ(rep.minimal->schedule.ops, 3u);
  EXPECT_EQ(rep.minimal->schedule.crashes,
            (std::vector<CrashPoint>{{0, 30147}}));
  ASSERT_FALSE(rep.minimal->violations.empty());
  const Violation& v = rep.minimal->violations.front();
  EXPECT_STREQ(violation_name(v.kind), "acked-lost");
  EXPECT_EQ(v.seq, 3u);
  EXPECT_EQ(v.at, 30147u);
}

TEST(Golden, ChainMutantHunt) {
  const auto rep = explore(repl_mutant_config());
  EXPECT_EQ(rep.schedules_run, 124u);
  EXPECT_EQ(rep.schedules_failed, 68u);
  EXPECT_EQ(rep.clean_end, 120191u);
  EXPECT_EQ(rep.boundary_points, (std::vector<sim::SimTime>{
                                     287, 22425, 35507, 50228, 61341, 74477,
                                     86953, 100765, 112336, 135887}));
  ASSERT_TRUE(rep.first_failure.has_value());
  EXPECT_EQ(rep.first_failure->schedule.seed, 17u);
  EXPECT_EQ(rep.first_failure->schedule.ops, 24u);
  EXPECT_EQ(rep.first_failure->schedule.crashes,
            (std::vector<CrashPoint>{{0, 22424}}));
  ASSERT_TRUE(rep.minimal.has_value());
  EXPECT_EQ(rep.minimal->schedule.seed, 17u);
  EXPECT_EQ(rep.minimal->schedule.ops, 2u);
  EXPECT_EQ(rep.minimal->schedule.crashes,
            (std::vector<CrashPoint>{{0, 22424}}));
  ASSERT_FALSE(rep.minimal->violations.empty());
  const Violation& v = rep.minimal->violations.front();
  EXPECT_STREQ(violation_name(v.kind), "replica-lost");
  EXPECT_EQ(v.seq, 2u);
  EXPECT_EQ(v.at, 22424u);
}

// The benchmark's explorations (default knobs, seed 1) stay clean and
// keep their schedule and boundary counts.
TEST_P(AllVariants, GoldenDefaultSweepIsClean) {
  ExplorerConfig cfg;
  cfg.variant = GetParam();
  cfg.jobs = 2;
  const auto rep = explore(cfg);
  EXPECT_EQ(rep.schedules_run, 80u);
  EXPECT_EQ(rep.boundary_points.size(), 16u);
  EXPECT_EQ(rep.schedules_failed, 0u);
}

TEST(Golden, DefaultReplicatedSweepsAreClean) {
  for (const repl::Protocol p :
       {repl::Protocol::kChain, repl::Protocol::kMirror}) {
    ExplorerConfig cfg;
    cfg.protocol = p;
    cfg.replicas = 2;
    cfg.ops = 32;
    cfg.window = 4;
    cfg.random_schedules = 16;
    cfg.max_boundary_points = 8;
    cfg.jobs = 2;
    const auto rep = explore(cfg);
    EXPECT_EQ(rep.schedules_run, 104u) << repl::protocol_name(p);
    EXPECT_EQ(rep.boundary_points.size(), 8u) << repl::protocol_name(p);
    EXPECT_EQ(rep.schedules_failed, 0u) << repl::protocol_name(p);
  }
}

TEST(Golden, SingleServerLineMeansACrashOfReplicaZero) {
  const auto old_form = parse_reproducer("seed=42 crash_at=123456789ns ops=17");
  const auto new_form =
      parse_reproducer("seed=42 ops=17 crash=0@123456789ns");
  ASSERT_TRUE(old_form.has_value());
  ASSERT_TRUE(new_form.has_value());
  EXPECT_EQ(old_form->seed, new_form->seed);
  EXPECT_EQ(old_form->ops, new_form->ops);
  EXPECT_EQ(old_form->crashes, new_form->crashes);
}

}  // namespace
}  // namespace prdma::check
