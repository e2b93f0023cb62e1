// Reproduces Fig. 16: impact of the sender's CPU load on RPC latency.
// Every system's sender path (posting, polling its own completion/
// response) is software, so a busy sender inflates all of them
// significantly (the paper's conclusion).
//
// Flags: --ops=N (default 4000), --seed=N, --load=30, --jobs=N, --quick

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
  const net::TopologyConfig topology = bench::topology_from(flags);
  const double busy = flags.f64("load", 30.0);
  bench::SweepRunner runner(bench::jobs_from(flags));

  std::printf(
      "Fig. 16 — avg latency (us), idle vs busy sender CPU (load=%.0fx)\n\n",
      busy);

  const auto lineup = rpcs::evaluation_lineup(64 * 1024);
  std::vector<bench::MicroCell> cells;
  for (const rpcs::System sys : lineup) {
    for (const bool is_busy : {false, true}) {
      bench::MicroConfig cfg;
      cfg.object_size = 4096;
      cfg.ops = ops;
      cfg.seed = seed;
      cfg.topology = topology;
      cfg.client_cpu_load = is_busy ? busy : 0.0;
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
