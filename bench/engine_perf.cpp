// Event-engine and sweep-runner performance proof (tracked from PR 2
// onward via BENCH_engine.json):
//
//  1. Raw engine throughput — a self-rescheduling "pinger" workload
//     whose capture mimics the RNIC hot path (~112 B, defeats
//     std::function's small-buffer optimisation) — on the slab/
//     InlineTask engine.
//  2. Steady-state allocations/event of the current engine, from the
//     instrumented counters (Simulator::pool_allocations and
//     sim::inline_fn_heap_allocs): expected 0 after warm-up.
//  3. A reference micro cell (WFlush-RPC, 1 KB writes): simulated
//     events replayed per wall-clock second, plus its heap-fallback
//     count (expected 0).
//  4. SweepRunner wall-clock at --jobs=1 vs --jobs=N on a small grid,
//     asserting the merged results are identical (per-cell wall times
//     land in the JSON so sweep_speedup regressions are attributable).
//  5. Data plane (PR 4, BENCH_dataplane.json): the same durable cell
//     at 64 B / 1 KB / 16 KB in kShadow vs kFull content mode —
//     asserting byte-identical stats, recording bytes-copied/op and
//     wall speedup, and gating zero steady-state allocations per
//     durable RPC (event pool + InlineFunction + payload-pool slabs
//     all flat between an N-op and a 2N-op run); plus the pinned cost
//     of a fabric link-table lookup (flat open addressing — the
//     per-packet hot path).
//  6. Partitioned engine scaling (PR 7, DESIGN.md §7.5): a 64-node
//     durable workload at --engine-threads 1/2/4/8, asserting every
//     run is byte-identical to the serial engine and recording
//     events/sec + speedup per thread count (speedup is only
//     meaningful when the host has the cores; hw_concurrency lands in
//     the JSON so the CI gate can tell).
//
// Flags: --events=N (default 1000000), --ops=N (micro cell, default
//        2000), --pingers=N (concurrently pending events, default
//        1024), --jobs=N (sweep comparison, 0 = clamp(cores,2,4),
//        default 0), --scale-nodes=N (scaling section, default 64),
//        --scale-ops=N (default 4x --ops),
//        --out=PATH (default BENCH_engine.json),
//        --out-dataplane=PATH (default BENCH_dataplane.json)

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include <thread>

#include "bench_util/flags.hpp"
#include "bench_util/json.hpp"
#include "bench_util/micro.hpp"
#include "bench_util/sweep.hpp"
#include "bench_util/table.hpp"
#include "net/fabric.hpp"
#include "sim/inline_function.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "trace/tracer.hpp"

using namespace prdma;

namespace {

/// Capture ballast matching the RNIC transmit/DMA lambdas (a Packet by
/// value plus bookkeeping): big enough that std::function must heap-
/// allocate, comfortably inside the InlineTask budget.
struct Pad {
  unsigned char bytes[96] = {};
};

void ping(sim::Simulator& eng, std::uint64_t& remaining, const Pad& pad) {
  if (remaining == 0) return;
  --remaining;
  eng.schedule((remaining % 97) + 1, [&eng, &remaining, pad] {
    ping(eng, remaining, pad);
  });
}

/// Drives `total` pinger events through `eng` with `pingers` of them
/// concurrently pending (the bench workloads keep hundreds to
/// thousands of events in flight), returns wall seconds.
double run_pingers(sim::Simulator& eng, std::uint64_t total,
                   std::uint64_t pingers) {
  std::uint64_t remaining = total;
  const Pad pad;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < pingers && remaining > 0; ++i) {
    ping(eng, remaining, pad);
  }
  eng.run();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

double wall_seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Flags flags(argc, argv);
  if (flags.help_requested()) {
    flags.print_help();
    return 0;
  }
  const std::uint64_t events = flags.u64("events", 1'000'000);
  const std::uint64_t pingers = flags.u64("pingers", 1024);
  const std::uint64_t micro_ops = flags.u64("ops", 2000);
  const std::size_t sweep_jobs =
      flags.u64("jobs", 0) == 0 ? bench::SweepRunner::default_jobs()
                                : static_cast<std::size_t>(flags.u64("jobs", 0));
  const std::uint64_t scale_nodes = flags.u64("scale-nodes", 64);
  const std::uint64_t scale_ops = flags.u64("scale-ops", micro_ops * 4);
  const std::string out = flags.str("out", "BENCH_engine.json");
  const std::string out_dataplane =
      flags.str("out-dataplane", "BENCH_dataplane.json");

  std::printf("engine_perf — event-engine + sweep-runner throughput\n\n");

  // ---- 1. raw engine ----------------------------------------------
  sim::Simulator warm;
  (void)run_pingers(warm, events / 4, pingers);  // warm the allocator + caches

  sim::Simulator fresh;
  (void)run_pingers(fresh, events / 4, pingers);  // grow slab/heap to high-water

  // Steady state: slots recycle, captures stay inline — both counters
  // must be flat across every measured window. Wall time is the best of
  // five windows; min is the standard estimator for a deterministic
  // workload.
  constexpr int kWindows = 5;
  const std::uint64_t pool0 = fresh.pool_allocations();
  const std::uint64_t heap0 = sim::inline_fn_heap_allocs();
  double new_secs = 1e300;
  for (int r = 0; r < kWindows; ++r) {
    new_secs = std::min(new_secs, run_pingers(fresh, events, pingers));
  }
  const std::uint64_t steady_allocs = (fresh.pool_allocations() - pool0) +
                                      (sim::inline_fn_heap_allocs() - heap0);

  const double new_eps = static_cast<double>(events) / new_secs;
  const double allocs_per_event = static_cast<double>(steady_allocs) /
                                  static_cast<double>(kWindows * events);

  bench::TablePrinter engine({"Engine", "events/sec", "allocs/event"});
  engine.add_row({"slab+InlineTask",
                  bench::TablePrinter::num(new_eps / 1e6, 2) + "M",
                  bench::TablePrinter::num(allocs_per_event, 6)});
  engine.print();
  std::printf("\n");

  // ---- 2. reference micro cell + tracer overhead ------------------
  // Same cell at every tracer depth. kOff is the zero-allocs reference;
  // kCounters (the default of every micro cell) and kFull must match
  // its heap-fallback count exactly — recording is preallocated — and
  // the wall-clock delta over the records folded in is the per-span
  // overhead the tracing layer charges (DESIGN.md §7.2).
  bench::MicroConfig mc;
  mc.object_size = 1024;
  mc.ops = micro_ops;
  mc.read_ratio = 0.0;

  const auto timed_cell = [&mc](trace::Mode mode, double& secs,
                                std::uint64_t& fallbacks) {
    mc.trace_mode = mode;
    const std::uint64_t h0 = sim::inline_fn_heap_allocs();
    const auto t0 = std::chrono::steady_clock::now();
    auto res = bench::run_micro(rpcs::System::kWFlushRpc, mc);
    secs = wall_seconds_since(t0);
    fallbacks = sim::inline_fn_heap_allocs() - h0;
    return res;
  };

  double micro_secs = 0, counters_secs = 0, full_secs = 0;
  std::uint64_t micro_fallbacks = 0, counters_fallbacks = 0,
                full_fallbacks = 0;
  const auto mres = timed_cell(trace::Mode::kOff, micro_secs, micro_fallbacks);
  const auto cres =
      timed_cell(trace::Mode::kCounters, counters_secs, counters_fallbacks);
  const auto fres = timed_cell(trace::Mode::kFull, full_secs, full_fallbacks);
  mc.trace_mode = trace::Mode::kCounters;  // back to the default

  const double micro_eps = static_cast<double>(mres.sim_events) / micro_secs;
  const auto records = static_cast<double>(
      std::max<std::uint64_t>(fres.breakdown.total_samples(), 1));
  const double counters_span_ns =
      std::max(0.0, (counters_secs - micro_secs) * 1e9 / records);
  const double full_span_ns =
      std::max(0.0, (full_secs - micro_secs) * 1e9 / records);

  std::printf("reference micro cell (WFlush-RPC, 1KB writes, %llu ops):\n",
              static_cast<unsigned long long>(micro_ops));
  std::printf("  %llu events in %.3fs -> %.2fM events/sec, "
              "%llu heap fallbacks\n",
              static_cast<unsigned long long>(mres.sim_events), micro_secs,
              micro_eps / 1e6,
              static_cast<unsigned long long>(micro_fallbacks));
  std::printf("  tracer overhead over %.0f records: counters %+.1f ns/span "
              "(%llu fallbacks), full %+.1f ns/span (%llu fallbacks)\n",
              records, counters_span_ns,
              static_cast<unsigned long long>(counters_fallbacks),
              full_span_ns, static_cast<unsigned long long>(full_fallbacks));

  // Tracing must be an observer: the simulation itself is unchanged at
  // any depth, and recording never falls back to the heap.
  const bool trace_inert =
      mres.sim_events == cres.sim_events && mres.sim_events == fres.sim_events &&
      mres.duration == cres.duration && mres.duration == fres.duration &&
      mres.ops_completed == cres.ops_completed &&
      mres.ops_completed == fres.ops_completed &&
      counters_fallbacks == micro_fallbacks && full_fallbacks == micro_fallbacks;
  std::printf("  tracing inert (identical sim, no extra fallbacks): %s\n\n",
              trace_inert ? "yes" : "NO — DIVERGED");

  // ---- 3. sweep wall-clock: jobs=1 vs jobs=N ----------------------
  std::vector<bench::MicroCell> cells;
  for (const rpcs::System sys : rpcs::evaluation_lineup(1024)) {
    bench::MicroConfig cfg;
    cfg.object_size = 1024;
    cfg.ops = micro_ops;
    cells.push_back({sys, cfg});
  }

  bench::SweepRunner serial(1);
  const auto s0 = std::chrono::steady_clock::now();
  const auto serial_res = bench::run_micro_cells(serial, cells);
  const double serial_secs = wall_seconds_since(s0);

  bench::SweepRunner parallel(sweep_jobs);
  const auto p0 = std::chrono::steady_clock::now();
  const auto parallel_res = bench::run_micro_cells(parallel, cells);
  const double parallel_secs = wall_seconds_since(p0);

  bool identical = serial_res.size() == parallel_res.size();
  for (std::size_t i = 0; identical && i < serial_res.size(); ++i) {
    identical = serial_res[i].kops == parallel_res[i].kops &&
                serial_res[i].ops_completed == parallel_res[i].ops_completed &&
                serial_res[i].duration == parallel_res[i].duration &&
                serial_res[i].sim_events == parallel_res[i].sim_events;
  }

  std::printf("sweep of %zu cells: jobs=1 %.2fs, jobs=%zu %.2fs "
              "(%.2fx), results %s\n",
              cells.size(), serial_secs, sweep_jobs, parallel_secs,
              serial_secs / parallel_secs,
              identical ? "identical" : "DIVERGED");
  const std::vector<double> serial_cell_secs = serial.cell_seconds();
  const std::vector<double> parallel_cell_secs = parallel.cell_seconds();

  // ---- 4. data plane: content modes, copies, steady-state allocs --
  struct PlaneCell {
    std::uint64_t size = 0;
    bench::MicroResult res;
    double secs = 0.0;
    std::uint64_t fn_allocs = 0;
  };
  const auto run_plane = [&micro_ops](std::uint64_t size, mem::ContentMode mode,
                                      std::uint64_t ops = 0) {
    bench::MicroConfig cfg;
    cfg.object_size = static_cast<std::uint32_t>(size);
    cfg.ops = ops == 0 ? micro_ops : ops;
    cfg.read_ratio = 0.0;
    cfg.content_mode = mode;
    PlaneCell c;
    c.size = size;
    const std::uint64_t h0 = sim::inline_fn_heap_allocs();
    const auto t0 = std::chrono::steady_clock::now();
    c.res = bench::run_micro(rpcs::System::kWFlushRpc, cfg);
    c.secs = wall_seconds_since(t0);
    c.fn_allocs = sim::inline_fn_heap_allocs() - h0;
    return c;
  };

  constexpr std::uint64_t kPlaneSizes[] = {64, 1024, 16384};
  bench::TablePrinter plane(
      {"size", "mode", "wall s", "copied B/op", "kops", "speedup"});
  bench::Json plane_cells = bench::Json::array();
  bool plane_parity = true;
  double shadow_speedup_1k = 0.0;
  for (const std::uint64_t size : kPlaneSizes) {
    const PlaneCell full = run_plane(size, mem::ContentMode::kFull);
    const PlaneCell shadow = run_plane(size, mem::ContentMode::kShadow);
    // The whole point of kShadow: identical simulation, fewer copies.
    const bool same =
        full.res.ops_completed == shadow.res.ops_completed &&
        full.res.duration == shadow.res.duration &&
        full.res.sim_events == shadow.res.sim_events &&
        full.res.kops == shadow.res.kops &&
        full.res.latency.mean() == shadow.res.latency.mean() &&
        full.res.latency.p99() == shadow.res.latency.p99();
    plane_parity = plane_parity && same;
    const double speedup = full.secs / shadow.secs;
    if (size == 1024) shadow_speedup_1k = speedup;
    for (const PlaneCell* c : {&full, &shadow}) {
      const bool is_shadow = c == &shadow;
      const double ops = static_cast<double>(
          std::max<std::uint64_t>(c->res.ops_completed, 1));
      const double copied_per_op =
          static_cast<double>(c->res.bytes_copied) / ops;
      plane.add_row({std::to_string(size), is_shadow ? "shadow" : "full",
                     bench::TablePrinter::num(c->secs, 3),
                     bench::TablePrinter::num(copied_per_op, 0),
                     bench::TablePrinter::num(c->res.kops, 1),
                     is_shadow ? bench::TablePrinter::num(speedup, 2) + "x"
                               : "-"});
      bench::Json cell = bench::Json::object();
      cell.set("object_size", bench::Json::num(size))
          .set("mode", bench::Json::str(is_shadow ? "shadow" : "full"))
          .set("wall_secs", bench::Json::num(c->secs))
          .set("events_per_sec",
               bench::Json::num(static_cast<double>(c->res.sim_events) /
                                c->secs))
          .set("kops", bench::Json::num(c->res.kops))
          .set("bytes_copied", bench::Json::num(c->res.bytes_copied))
          .set("bytes_copied_per_op", bench::Json::num(copied_per_op))
          .set("pool_acquires", bench::Json::num(c->res.pool.acquires))
          .set("pool_outstanding_peak",
               bench::Json::num(c->res.pool.outstanding_peak))
          .set("pool_slab_bytes", bench::Json::num(c->res.pool.slab_bytes))
          .set("pool_oversize_allocs",
               bench::Json::num(c->res.pool.oversize_allocs))
          .set("heap_fallbacks", bench::Json::num(c->fn_allocs))
          .set("stats_match_other_mode", bench::Json::boolean(same));
      plane_cells.push(std::move(cell));
    }
  }
  std::printf("\ndata plane (WFlush-RPC, write-only, %llu ops):\n",
              static_cast<unsigned long long>(micro_ops));
  plane.print();

  // Steady state: an extra N ops must allocate nothing — no event-pool
  // refill, no InlineFunction heap fallback, no new payload slab. The
  // base run must get well past the 100 ms retransmit horizon (every
  // packet pins an event slot that long), or the slot slab is still
  // ramping to its high-water mark and the delta reads as a leak.
  const std::uint64_t probe_ops = std::max<std::uint64_t>(micro_ops, 30'000);
  const PlaneCell base =
      run_plane(1024, mem::ContentMode::kShadow, probe_ops);
  const PlaneCell twice =
      run_plane(1024, mem::ContentMode::kShadow, probe_ops * 2);
  const std::uint64_t extra_ops =
      twice.res.ops_completed - base.res.ops_completed;
  const std::uint64_t steady_pool =
      twice.res.sim_pool_allocs - base.res.sim_pool_allocs;
  const std::uint64_t steady_fn = twice.fn_allocs - base.fn_allocs;
  const std::uint64_t steady_slab =
      twice.res.pool.slab_bytes - base.res.pool.slab_bytes;
  const bool plane_steady =
      steady_pool == 0 && steady_fn == 0 && steady_slab == 0;
  const double allocs_per_rpc =
      static_cast<double>(steady_pool + steady_fn) /
      static_cast<double>(std::max<std::uint64_t>(extra_ops, 1));
  std::printf("  steady-state allocs/durable RPC over %llu extra ops: %.6f "
              "(event pool +%llu, fn heap +%llu, payload slab +%llu B) %s\n",
              static_cast<unsigned long long>(extra_ops), allocs_per_rpc,
              static_cast<unsigned long long>(steady_pool),
              static_cast<unsigned long long>(steady_fn),
              static_cast<unsigned long long>(steady_slab),
              plane_steady ? "OK" : "REGRESSED");
  std::printf("  mode parity (stats byte-identical shadow vs full): %s\n\n",
              plane_parity ? "yes" : "NO — DIVERGED");

  // Link-table lookup pin: Fabric::state() is hit once per packet, so
  // its cost is a first-order term of the data plane. The flat
  // open-addressing table replaced a std::map (red-black walk per
  // send); pin the absolute ns/lookup so a regression to pointer
  // chasing is visible in review.
  double link_lookup_ns = 0.0;
  {
    sim::Simulator lsim;
    sim::Rng lrng(1);
    net::Fabric lf(lsim, lrng, net::LinkParams{});
    constexpr std::uint32_t kLinkNodes = 64;
    for (std::uint32_t from = 0; from < kLinkNodes; ++from) {
      for (std::uint32_t to = 0; to < kLinkNodes; ++to) {
        if (from != to) lf.direct_link(from, to).propagation = 1000 + from + to;
      }
    }
    const std::uint64_t iters = 2'000'000;
    std::uint64_t acc = 0;
    const auto t0 = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < iters; ++i) {
      const auto from = static_cast<std::uint32_t>(i % kLinkNodes);
      auto to = static_cast<std::uint32_t>((i * 7 + 1) % kLinkNodes);
      if (to == from) to = (to + 1) % kLinkNodes;
      acc += lf.direct_link(from, to).propagation;
    }
    link_lookup_ns =
        wall_seconds_since(t0) * 1e9 / static_cast<double>(iters);
    std::printf("  link-table lookup (%u nodes, %llu hits): %.1f ns/lookup "
                "(checksum %llu)\n\n",
                kLinkNodes * (kLinkNodes - 1),
                static_cast<unsigned long long>(iters), link_lookup_ns,
                static_cast<unsigned long long>(acc % 1000));
  }

  // ---- 5. partitioned engine: multi-node scaling ------------------
  // One durable server + (scale_nodes - 1) clients, zero link noise:
  // the partitioned engine must reproduce the serial run bit for bit
  // at every thread count, and on a multicore host turn the extra
  // threads into simulated events per wall second.
  const auto run_scaled = [&scale_nodes, &scale_ops](unsigned threads,
                                                     double& secs) {
    bench::MicroConfig cfg;
    cfg.object_size = 1024;
    cfg.ops = scale_ops;
    cfg.read_ratio = 0.0;
    cfg.clients = static_cast<std::size_t>(scale_nodes) - 1;
    cfg.jitter_sigma = 0.0;
    cfg.engine_threads = threads;
    const auto t0 = std::chrono::steady_clock::now();
    auto res = bench::run_micro(rpcs::System::kWFlushRpc, cfg);
    secs = wall_seconds_since(t0);
    return res;
  };

  const unsigned hw_threads =
      std::max(1u, std::thread::hardware_concurrency());
  constexpr unsigned kScaleThreads[] = {1, 2, 4, 8};
  std::printf("partitioned engine (%llu nodes, %llu ops, WFlush-RPC, "
              "host has %u hardware threads):\n",
              static_cast<unsigned long long>(scale_nodes),
              static_cast<unsigned long long>(scale_ops), hw_threads);
  bench::TablePrinter scaling(
      {"threads", "wall s", "Mevents/s", "speedup", "identical"});
  bench::Json scaling_rows = bench::Json::array();
  double scale_serial_secs = 0.0;
  bench::MicroResult scale_serial;
  std::uint64_t partitioned_epochs = 0;
  bool scaling_identical = true;
  for (const unsigned t : kScaleThreads) {
    double secs = 0.0;
    const bench::MicroResult res = run_scaled(t, secs);
    if (t == 1) {
      scale_serial = res;
      scale_serial_secs = secs;
    }
    // The whole contract: every model-visible stat equals the serial
    // engine's, no matter how many workers advanced the partitions.
    bool same = res.duration == scale_serial.duration &&
                      res.ops_completed == scale_serial.ops_completed &&
                      res.sim_events == scale_serial.sim_events &&
                      res.kops == scale_serial.kops &&
                      res.latency.sum() == scale_serial.latency.sum() &&
                      res.durable_latency.sum() ==
                          scale_serial.durable_latency.sum() &&
                      res.server.ops_processed ==
                          scale_serial.server.ops_processed;
    // The epoch count is part of the deterministic schedule of a
    // layout: every partitioned run (threads > 1 shards per node
    // here; the serial run is one partition with no epochs) must
    // agree on it exactly.
    if (t > 1) {
      if (partitioned_epochs == 0) partitioned_epochs = res.engine_epochs;
      same = same && res.engine_epochs == partitioned_epochs;
    }
    scaling_identical = scaling_identical && same;
    const double eps = static_cast<double>(res.sim_events) / secs;
    const double speedup = scale_serial_secs / secs;
    scaling.add_row({std::to_string(t), bench::TablePrinter::num(secs, 3),
                     bench::TablePrinter::num(eps / 1e6, 2),
                     bench::TablePrinter::num(speedup, 2) + "x",
                     same ? "yes" : "NO"});
    bench::Json row = bench::Json::object();
    row.set("threads", bench::Json::num(static_cast<std::uint64_t>(t)))
        .set("wall_secs", bench::Json::num(secs))
        .set("events_per_sec", bench::Json::num(eps))
        .set("speedup", bench::Json::num(speedup))
        .set("partitions", bench::Json::num(res.engine_partitions))
        .set("epochs", bench::Json::num(res.engine_epochs))
        .set("barrier_wall_ns", bench::Json::num(res.engine_barrier_wall_ns))
        .set("identical", bench::Json::boolean(same));
    scaling_rows.push(std::move(row));
  }
  scaling.print();
  std::printf("  byte-identical to serial at every thread count: %s\n\n",
              scaling_identical ? "yes" : "NO — DIVERGED");

  // ---- 6. JSON record ---------------------------------------------
  bench::Json doc = bench::Json::object();
  doc.set("bench", bench::Json::str("engine_perf"))
      .set("events", bench::Json::num(events))
      .set("events_per_sec", bench::Json::num(new_eps))
      .set("steady_state_allocs_per_event", bench::Json::num(allocs_per_event))
      .set("micro_cell_events", bench::Json::num(mres.sim_events))
      .set("micro_cell_events_per_sec", bench::Json::num(micro_eps))
      .set("micro_cell_heap_fallbacks", bench::Json::num(micro_fallbacks))
      .set("tracer_records", bench::Json::num(
               static_cast<std::uint64_t>(records)))
      .set("tracer_counters_ns_per_span", bench::Json::num(counters_span_ns))
      .set("tracer_full_ns_per_span", bench::Json::num(full_span_ns))
      .set("tracer_counters_heap_fallbacks",
           bench::Json::num(counters_fallbacks))
      .set("tracer_full_heap_fallbacks", bench::Json::num(full_fallbacks))
      .set("tracer_inert", bench::Json::boolean(trace_inert))
      .set("sweep_cells", bench::Json::num(
               static_cast<std::uint64_t>(cells.size())))
      .set("sweep_jobs", bench::Json::num(
               static_cast<std::uint64_t>(sweep_jobs)))
      .set("sweep_serial_secs", bench::Json::num(serial_secs))
      .set("sweep_parallel_secs", bench::Json::num(parallel_secs))
      .set("sweep_speedup", bench::Json::num(serial_secs / parallel_secs))
      .set("sweep_identical", bench::Json::boolean(identical));
  bench::Json cell_secs_serial = bench::Json::array();
  for (const double s : serial_cell_secs) {
    cell_secs_serial.push(bench::Json::num(s));
  }
  bench::Json cell_secs_parallel = bench::Json::array();
  for (const double s : parallel_cell_secs) {
    cell_secs_parallel.push(bench::Json::num(s));
  }
  doc.set("sweep_cell_secs_serial", std::move(cell_secs_serial))
      .set("sweep_cell_secs_parallel", std::move(cell_secs_parallel));
  bench::Json scaling_doc = bench::Json::object();
  scaling_doc.set("nodes", bench::Json::num(scale_nodes))
      .set("ops", bench::Json::num(scale_ops))
      .set("hw_concurrency", bench::Json::num(static_cast<std::uint64_t>(hw_threads)))
      .set("identical", bench::Json::boolean(scaling_identical))
      .set("rows", std::move(scaling_rows));
  doc.set("engine_scaling", std::move(scaling_doc));
  if (!bench::emit_json(out, doc)) {
    std::printf("\nfailed to open %s for writing\n", out.c_str());
    return 2;
  }
  std::printf("\nwrote %s\n", out.c_str());

  bench::Json dp = bench::Json::object();
  dp.set("bench", bench::Json::str("dataplane"))
      .set("ops", bench::Json::num(micro_ops))
      .set("cells", std::move(plane_cells))
      .set("mode_parity", bench::Json::boolean(plane_parity))
      .set("shadow_speedup_1k", bench::Json::num(shadow_speedup_1k))
      .set("steady_extra_ops", bench::Json::num(extra_ops))
      .set("steady_allocs_per_rpc", bench::Json::num(allocs_per_rpc))
      .set("steady_event_pool_allocs", bench::Json::num(steady_pool))
      .set("steady_fn_heap_allocs", bench::Json::num(steady_fn))
      .set("steady_payload_slab_bytes", bench::Json::num(steady_slab))
      .set("steady_ok", bench::Json::boolean(plane_steady))
      .set("link_lookup_ns_per_op", bench::Json::num(link_lookup_ns));
  if (!bench::emit_json(out_dataplane, dp)) {
    std::printf("failed to open %s for writing\n", out_dataplane.c_str());
    return 2;
  }
  std::printf("wrote %s\n", out_dataplane.c_str());

  return identical && trace_inert && steady_allocs == 0 && plane_parity &&
                 plane_steady && scaling_identical
             ? 0
             : 1;
}
