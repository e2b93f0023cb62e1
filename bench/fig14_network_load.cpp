// Reproduces Fig. 14: impact of RDMA network load on average RPC
// latency (idle vs busy link). The paper's findings: receiver-
// initiated Flush RPCs suffer least (fewer wire crossings on the
// persistence path); write-based RPCs are more load-sensitive than
// send-based ones.
//
// Flags: --ops=N (default 4000), --seed=N, --load=0.85, --jobs=N, --quick
// plus the common --topology family: under rack / leaf-spine the same
// background load applies per cable and switch queues add on top (see
// EXPERIMENTS.md "Fig. 14 under switched topologies").
//
// Degraded-fabric axis (DESIGN.md §7.8): --loss=P injects a uniform
// per-packet loss probability into every cable (RC go-back-N recovers;
// latency degrades); --loss-sweep replaces the idle/busy grid with a
// loss sweep over {0, 1e-4, 1e-3, 1e-2} and prints the degradation
// curve per system.

#include <cstdio>
#include <vector>

#include "bench_util/micro.hpp"
#include "bench_util/sweep.hpp"
#include "bench_util/flags.hpp"
#include "bench_util/table.hpp"

using namespace prdma;

int main(int argc, char** argv) {
  const bench::Flags flags(argc, argv);
  if (flags.help_requested()) {
    flags.print_help();
    return 0;
  }
  const std::uint64_t ops = flags.u64("ops", flags.flag("quick") ? 1000 : 4000);
  const std::uint64_t seed = flags.u64("seed", 1);
  const double busy = flags.f64("load", 0.85);
  const double loss = flags.f64("loss", 0.0);
  const net::TopologyConfig topology = bench::topology_from(flags);
  bench::SweepRunner runner(bench::jobs_from(flags));

  const auto lineup = rpcs::evaluation_lineup(64 * 1024);

  if (flags.flag("loss-sweep")) {
    // Degradation curve: avg latency per system as the fabric loses
    // more packets. The RC timer shrinks to 1 ms so the curve shows
    // recovery cost, not the paper's 100 ms crash-detection interval.
    const std::vector<double> losses = {0.0, 1e-4, 1e-3, 1e-2};
    std::vector<bench::MicroCell> cells;
    for (const rpcs::System sys : lineup) {
      for (const double p : losses) {
        bench::MicroConfig cfg;
        cfg.object_size = 16 * 1024;
        cfg.ops = ops;
        cfg.seed = seed;
        cfg.topology = topology;
        cfg.loss_probability = p;
        cfg.retransmit_interval = 1 * sim::kMillisecond;
        cells.push_back({sys, cfg});
      }
    }
    const auto results = bench::run_micro_cells(runner, cells);

    std::printf("Fig. 14 (loss sweep) — avg latency (us) vs packet loss\n\n");
    bench::TablePrinter table(
        {"System", "loss=0", "1e-4", "1e-3", "1e-2", "worst/clean",
         "drops", "retx"});
    std::size_t k = 0;
    for (const rpcs::System sys : lineup) {
      std::vector<double> us;
      std::uint64_t drops = 0;
      std::uint64_t retx = 0;
      for (std::size_t i = 0; i < losses.size(); ++i) {
        const bench::MicroResult& r = results[k++];
        us.push_back(r.avg_us());
        drops += r.net_drops;
        retx += r.rnic_retransmits;
      }
      table.add_row({std::string(rpcs::name_of(sys)),
                     bench::TablePrinter::num(us[0], 1),
                     bench::TablePrinter::num(us[1], 1),
                     bench::TablePrinter::num(us[2], 1),
                     bench::TablePrinter::num(us[3], 1),
                     bench::TablePrinter::num(us[3] / us[0], 2),
                     std::to_string(drops), std::to_string(retx)});
    }
    table.print();
    return 0;
  }

  std::printf("Fig. 14 — avg latency (us), idle vs busy network (load=%.2f)\n\n",
              busy);

  std::vector<bench::MicroCell> cells;
  for (const rpcs::System sys : lineup) {
    for (const bool is_busy : {false, true}) {
      bench::MicroConfig cfg;
      cfg.object_size = 16 * 1024;
      cfg.ops = ops;
      cfg.seed = seed;
      cfg.net_load = is_busy ? busy : 0.0;
      cfg.topology = topology;
      if (loss > 0.0) {
        cfg.loss_probability = loss;
        cfg.retransmit_interval = 1 * sim::kMillisecond;
      }
      cells.push_back({sys, cfg});
    }
  }
  const auto results = bench::run_micro_cells(runner, cells);

  bench::TablePrinter table({"System", "Idle", "Busy", "Busy/Idle"});
  std::size_t k = 0;
  for (const rpcs::System sys : lineup) {
    const double idle = results[k++].avg_us();
    const double loaded = results[k++].avg_us();
    table.add_row({std::string(rpcs::name_of(sys)),
                   bench::TablePrinter::num(idle, 1),
                   bench::TablePrinter::num(loaded, 1),
                   bench::TablePrinter::num(loaded / idle, 2)});
  }
  table.print();
  return 0;
}
