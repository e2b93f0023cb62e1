#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "check/oracle.hpp"
#include "core/durable_rpc.hpp"
#include "net/faults.hpp"
#include "repl/replication.hpp"
#include "sim/time.hpp"

namespace prdma::check {

/// Deployment, workload and model knobs shared by every schedule of one
/// exploration. `protocol = kNone` is the unreplicated single-primary
/// deployment (R = 1); kChain / kMirror put `replicas` servers behind
/// one client and audit them with the cluster oracle.
struct ExplorerConfig {
  core::FlushVariant variant = core::FlushVariant::kWFlush;
  repl::Protocol protocol = repl::Protocol::kNone;
  std::size_t replicas = 2;  ///< R when protocol != kNone
  std::uint64_t seed = 1;
  std::uint64_t ops = 48;              ///< write operations to drive
  std::uint32_t window = 8;            ///< outstanding requests
  std::uint32_t value_size = 4096;
  std::uint32_t random_schedules = 32;
  /// Cap on distinct protocol-phase timestamps turned into targeted
  /// schedules (each is probed at t-1, t, t+1 on every replica; R >= 2
  /// adds correlated and crash-during-recovery combinations).
  std::uint32_t max_boundary_points = 16;
  /// FAULT-INJECTION MUTANT (RnicParams::ack_before_persist): the
  /// server RNIC acknowledges WFlush before its DMA drained. The
  /// explorer must find a schedule that proves the resulting data loss.
  bool ack_before_persist = false;
  /// PROTOCOL MUTANT (ReplicationConfig::ack_before_replica_persist):
  /// ack after the head replica persists and finish the remaining hops
  /// in the background. The explorer must find a schedule where the
  /// cluster predicate catches the resulting acked-transaction loss.
  bool ack_before_replica_persist = false;
  bool heavy_processing = false;
  sim::SimTime restart_delay = 1 * sim::kMillisecond;
  sim::SimTime retransmit_interval = 100 * sim::kMillisecond;
  /// Uniform packet-loss probability on every cable (degraded-fabric
  /// exploration, DESIGN.md §7.8). Schedules stay a pure function of
  /// (cfg, s): loss draws replay identically.
  double loss_probability = 0.0;
  /// Deterministic network-fault schedule installed into the fabric of
  /// every schedule (link flaps, partitions, loss bursts). Combine
  /// with crash instants to probe crash-during-retransmit windows; use
  /// with_net_faults() for the canned families.
  net::FaultPlan faults;
  /// Worker threads for independent schedules (0 = hardware
  /// concurrency). Every schedule is a pure function of (cfg, s), so
  /// the report is byte-identical at any jobs value; only wall-clock
  /// changes (DESIGN.md §7.1).
  std::size_t jobs = 1;

  /// Replica count R of the explored deployment.
  [[nodiscard]] std::size_t replica_count() const {
    return protocol == repl::Protocol::kNone ? 1 : replicas;
  }
};

/// One crash instant: replica `replica` dies at `at` nanoseconds.
struct CrashPoint {
  std::size_t replica = 0;
  sim::SimTime at = 0;

  friend bool operator==(const CrashPoint&, const CrashPoint&) = default;
};

/// One point in crash-schedule space: drive `ops` writes and crash at
/// every CrashPoint (none = a crash-free run). Together with
/// ExplorerConfig this is a complete, re-runnable reproducer.
struct Schedule {
  std::uint64_t seed = 1;
  std::uint64_t ops = 48;
  std::vector<CrashPoint> crashes;
};

struct ScheduleResult {
  Schedule schedule;
  std::uint64_t crashes_fired = 0;
  std::uint64_t ops_completed = 0;
  std::uint64_t resends = 0;
  /// Writes acknowledged to the application (at R = 1 every write is
  /// one persist-ACK, so this equals `acks`).
  std::uint64_t txn_acks = 0;
  std::uint64_t acks = 0;  ///< per-replica persist-ACKs (oracle view)
  std::uint64_t replays = 0;
  sim::SimTime end_time = 0;
  std::vector<Violation> violations;

  [[nodiscard]] bool failed() const { return !violations.empty(); }
};

struct ExplorerReport {
  std::uint64_t schedules_run = 0;
  std::uint64_t schedules_failed = 0;
  sim::SimTime clean_end = 0;                 ///< crash-free run length
  std::vector<sim::SimTime> boundary_points;  ///< targeted timestamps
  std::optional<ScheduleResult> first_failure;
  /// Shrunken minimal reproducer of the first failure (fewest ops that
  /// still violate an invariant under the same crash points).
  std::optional<ScheduleResult> minimal;
  /// format_reproducer(minimal->schedule) — feed to parse_reproducer()
  /// / run_schedule() to replay the minimal failure.
  std::string reproducer;
};

/// Runs ONE crash schedule deterministically: builds a fresh cluster
/// (R servers + 1 client node, kFull content) and deployment, drives
/// cfg.window pipelined writes, crashes at every CrashPoint (torn DMA
/// and all), recovers, and audits with a DurabilityOracle (R = 1) or a
/// ClusterOracle (R >= 2). Identical (cfg, s) inputs give a
/// bit-identical result. When `boundaries` is non-null every client
/// session's verb phase transitions and every server redo log's trace
/// points are recorded into it (timestamps, sorted and unique).
/// Throws std::invalid_argument for a crash point at 0 ns or on a
/// replica >= R, and for more than one crash point at R = 1.
ScheduleResult run_schedule(const ExplorerConfig& cfg, const Schedule& s,
                            std::vector<sim::SimTime>* boundaries = nullptr);

/// Full exploration: one traced dry run to harvest protocol-phase
/// boundary timestamps, targeted single crashes at each boundary
/// (t-1, t, t+1) on every replica, then cfg.random_schedules seeded
/// random crash instants. At R >= 2 it adds correlated all-replica
/// crashes, crash-during-recovery and failover pairs, and random
/// pairs. The first failing schedule is shrunk (bisection on op count,
/// crash points kept) to a minimal reproducer.
ExplorerReport explore(const ExplorerConfig& cfg);

/// Canned degraded-fabric schedule families (DESIGN.md §7.8). Each
/// overlays a deterministic FaultPlan on the exploration so the crash
/// instants the explorer probes land inside the degraded window:
///  * kCrashDuringRetransmit — a loss/corruption burst covers most of
///    the run, so crashes interleave with go-back-N replays;
///  * kFlapDuringRecovery    — the cable between replica 0 and the
///    client flaps over the window where post-crash recovery traffic
///    flows;
///  * kPartitionThenHeal     — the client is partitioned away for a
///    stretch of the run, then the partition heals.
enum class NetFaultFamily {
  kCrashDuringRetransmit,
  kFlapDuringRecovery,
  kPartitionThenHeal,
};

[[nodiscard]] const char* net_fault_family_name(NetFaultFamily family);

/// Derives a faulted ExplorerConfig from `cfg`: dry-runs one clean
/// schedule to size the windows, shrinks the RC timer so lost packets
/// recover inside the run, and installs the family's FaultPlan (the
/// client is node R). Deterministic: same (cfg, family) in, same
/// config out.
[[nodiscard]] ExplorerConfig with_net_faults(ExplorerConfig cfg,
                                             NetFaultFamily family);

/// Formats / parses the re-runnable reproducer line
/// "seed=<s> ops=<n> crash=<r>@<t>ns[,<r>@<t>ns…]" ("crash=none" for a
/// crash-free run). The parser also reads the single-server form
/// "seed=<s> crash_at=<t>ns ops=<n>" (a crash of replica 0; 0 ns means
/// none) and fails closed: signs, overflow, trailing text, an empty
/// crash list and crash instants at 0 ns are rejected.
[[nodiscard]] std::string format_reproducer(const Schedule& s);
[[nodiscard]] std::optional<Schedule> parse_reproducer(std::string_view line);

}  // namespace prdma::check
