// Tests for the benchmark harness: parameter derivation, the
// micro-benchmark driver (including whole-stack determinism), table
// printing and flag parsing.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <sstream>
#include <vector>

#include "bench_util/flags.hpp"
#include "bench_util/json.hpp"
#include "bench_util/micro.hpp"
#include "bench_util/sweep.hpp"
#include "bench_util/table.hpp"

namespace prdma::bench {
namespace {

// ------------------------------------------------------------ params_for

TEST(ParamsFor, SizesPmToFitStoreAndLogs) {
  MicroConfig cfg;
  cfg.object_size = 64 * 1024;
  cfg.clients = 10;
  const auto p = params_for(cfg);
  core::LogLayout lay;
  lay.slots = p.log_slots;
  lay.payload_capacity = p.max_payload;
  const std::uint64_t need =
      p.object_count * p.max_payload + 10 * lay.total_bytes();
  EXPECT_GE(p.memory.pm_capacity, need);
}

TEST(ParamsFor, LargeObjectsShrinkTheStore) {
  MicroConfig small;
  small.object_size = 1024;
  MicroConfig large;
  large.object_size = 64 * 1024;
  EXPECT_EQ(effective_objects(small), 50'000u);
  EXPECT_LT(effective_objects(large), 50'000u);
  EXPECT_GE(effective_objects(large), 64u);
}

TEST(ParamsFor, HeavyLoadSetsProcessing) {
  MicroConfig cfg;
  cfg.heavy_load = true;
  EXPECT_EQ(params_for(cfg).rpc_processing, 100 * sim::kMicrosecond);
  cfg.heavy_load = false;
  EXPECT_EQ(params_for(cfg).rpc_processing, 0u);
}

TEST(ParamsFor, KnobsPropagate) {
  MicroConfig cfg;
  cfg.net_load = 0.5;
  cfg.ddio = true;
  cfg.emulate_flush = false;
  cfg.sflush_addressing_us = 3;
  const auto p = params_for(cfg);
  EXPECT_DOUBLE_EQ(p.link.background_load, 0.5);
  EXPECT_TRUE(p.rnic.ddio);
  EXPECT_FALSE(p.rnic.emulate_flush);
  EXPECT_EQ(p.rnic.sflush_addressing, 3 * sim::kMicrosecond);
}

// -------------------------------------------------------------- run_micro

TEST(RunMicro, CompletesAllOpsAndMeasures) {
  MicroConfig cfg;
  cfg.object_size = 1024;
  cfg.ops = 200;
  const auto res = run_micro(rpcs::System::kFaRM, cfg);
  EXPECT_EQ(res.ops_completed, 200u);
  EXPECT_GT(res.kops, 0.0);
  EXPECT_GT(res.avg_us(), 0.0);
  EXPECT_GE(res.p99_us(), res.p95_us());
  EXPECT_EQ(res.server.ops_processed, 200u);
  EXPECT_GT(res.sender_sw_ns, 0.0);
  EXPECT_GT(res.receiver_sw_ns, 0.0);
}

TEST(RunMicro, DeterministicAcrossRuns) {
  MicroConfig cfg;
  cfg.object_size = 512;
  cfg.ops = 150;
  cfg.seed = 77;
  const auto a = run_micro(rpcs::System::kWFlushRpc, cfg);
  const auto b = run_micro(rpcs::System::kWFlushRpc, cfg);
  EXPECT_EQ(a.duration, b.duration);
  EXPECT_DOUBLE_EQ(a.kops, b.kops);
  EXPECT_EQ(a.latency.p99(), b.latency.p99());
}

TEST(RunMicro, SeedChangesOutcome) {
  MicroConfig cfg;
  cfg.object_size = 512;
  cfg.ops = 150;
  cfg.seed = 1;
  const auto a = run_micro(rpcs::System::kFaRM, cfg);
  cfg.seed = 2;
  const auto b = run_micro(rpcs::System::kFaRM, cfg);
  EXPECT_NE(a.duration, b.duration);
}

TEST(RunMicro, DurableWritesCompleteAtPersistVisibility) {
  MicroConfig cfg;
  cfg.object_size = 1024;
  cfg.ops = 100;
  cfg.read_ratio = 0.0;
  cfg.heavy_load = true;
  const auto res = run_micro(rpcs::System::kWFlushRpc, cfg);
  EXPECT_GT(res.durable_latency.count(), 0u);
  // Persist visibility is far below the 100 us processing injection.
  EXPECT_LT(res.durable_latency.mean(), 60'000.0);
}

TEST(RunMicro, MultipleClientsShareTheServer) {
  MicroConfig cfg;
  cfg.object_size = 256;
  cfg.ops = 300;
  cfg.clients = 3;
  const auto res = run_micro(rpcs::System::kOctopus, cfg);
  EXPECT_EQ(res.ops_completed, 300u);
}

TEST(RunMicro, BatchMultipliesProcessedOps) {
  MicroConfig cfg;
  cfg.object_size = 512;
  cfg.ops = 40;  // 40 batched calls of 4 sub-ops
  cfg.batch = 4;
  cfg.read_ratio = 0.0;
  const auto res = run_micro(rpcs::System::kWFlushRpc, cfg);
  EXPECT_EQ(res.server.ops_processed, 160u);
}

// ----------------------------------------------------------------- table

TEST(TablePrinter, AlignsColumnsAndSeparates) {
  TablePrinter t({"Name", "X"});
  t.add_row({"longer-name", "1.5"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("Name"), std::string::npos);
  EXPECT_NE(out.find("longer-name"), std::string::npos);
  EXPECT_NE(out.find("---"), std::string::npos);
  // Header pads to the widest cell.
  EXPECT_NE(out.find(" Name        "), std::string::npos);
}

TEST(TablePrinter, NumFormatsPrecision) {
  EXPECT_EQ(TablePrinter::num(3.14159, 2), "3.14");
  EXPECT_EQ(TablePrinter::num(10.0, 0), "10");
}

// ----------------------------------------------------------------- flags

TEST(Flags, ParsesKeyValueAndBoolean) {
  const char* argv[] = {"prog", "--ops=500", "--seed=9", "--quick",
                        "ignored"};
  Flags f(5, const_cast<char**>(argv));
  EXPECT_EQ(f.u64("ops", 1), 500u);
  EXPECT_EQ(f.u64("seed", 1), 9u);
  EXPECT_TRUE(f.flag("quick"));
  EXPECT_FALSE(f.flag("missing"));
  EXPECT_EQ(f.u64("missing", 42), 42u);
  EXPECT_DOUBLE_EQ(f.f64("missing", 1.5), 1.5);
}

TEST(Flags, ParsesReals) {
  const char* argv[] = {"prog", "--load=0.85"};
  Flags f(2, const_cast<char**>(argv));
  EXPECT_DOUBLE_EQ(f.f64("load", 0.0), 0.85);
  EXPECT_DOUBLE_EQ(f.f64("load", 1.5), 0.85);  // a present key wins
}

TEST(Flags, TypedStringAccessor) {
  const char* argv[] = {"prog", "--trace=out.json"};
  Flags f(2, const_cast<char**>(argv));
  EXPECT_EQ(f.str("trace", ""), "out.json");
  EXPECT_EQ(f.str("json", "fallback"), "fallback");
}

TEST(Flags, CommonRegistryCoversSharedKnobs) {
  const auto& specs = Flags::common_flags();
  for (const char* name : {"seed", "ops", "jobs", "json", "trace", "quick",
                           "help"}) {
    const bool present = std::any_of(
        specs.begin(), specs.end(),
        [name](const FlagSpec& s) { return s.name == name; });
    EXPECT_TRUE(present) << name;
  }
}

TEST(Flags, GeneratedHelpListsExtrasAndCommons) {
  const char* argv[] = {"prog", "--help"};
  Flags f(2, const_cast<char**>(argv),
          {{"variant", "NAME", "which flush variant to run"}},
          "Demo synopsis line.");
  EXPECT_TRUE(f.help_requested());
  const std::string usage = f.usage();
  EXPECT_NE(usage.find("Usage: prog"), std::string::npos);
  EXPECT_NE(usage.find("Demo synopsis line."), std::string::npos);
  EXPECT_NE(usage.find("--variant=NAME"), std::string::npos);
  EXPECT_NE(usage.find("which flush variant to run"), std::string::npos);
  EXPECT_NE(usage.find("--trace=PATH"), std::string::npos);
  EXPECT_NE(usage.find("--jobs=N"), std::string::npos);
}

// ------------------------------------------------------------------ json

TEST(Json, DumpsOrderedDeterministicDocuments) {
  Json doc = Json::object();
  doc.set("b_first", Json::num(std::uint64_t{3}))
      .set("a_second", Json::str("x\"y"))
      .set("arr", Json::array().push(Json::num(1.5)).push(Json::boolean(true)));
  const std::string compact = doc.dump(0);
  // Insertion order, not key order.
  EXPECT_LT(compact.find("b_first"), compact.find("a_second"));
  EXPECT_NE(compact.find("\"x\\\"y\""), std::string::npos);
  EXPECT_EQ(compact, doc.dump(0));  // stable
  EXPECT_NE(doc.dump(2).find('\n'), std::string::npos);
}

TEST(Json, EmitWritesFile) {
  const std::string path = "bench_util_test_emit.json";
  Json doc = Json::object();
  doc.set("bench", Json::str("unit"));
  ASSERT_TRUE(emit_json(path, doc));
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  EXPECT_NE(ss.str().find("\"bench\": \"unit\""), std::string::npos);
  std::remove(path.c_str());
}

// ----------------------------------------------------------- SweepRunner

TEST(SweepRunner, JobsFromFlagsDefaultsToSerial) {
  const char* argv[] = {"prog"};
  EXPECT_EQ(jobs_from(Flags(1, const_cast<char**>(argv))), 1u);
  const char* argv4[] = {"prog", "--jobs=4"};
  EXPECT_EQ(jobs_from(Flags(2, const_cast<char**>(argv4))), 4u);
  const char* argv0[] = {"prog", "--jobs=0"};
  // 0 = hardware concurrency, resolved by the runner itself.
  EXPECT_EQ(SweepRunner(jobs_from(Flags(2, const_cast<char**>(argv0)))).jobs(),
            SweepRunner::default_jobs());
}

TEST(SweepRunner, MapReturnsResultsInSubmissionOrder) {
  SweepRunner runner(4);
  std::vector<int> items(100);
  std::iota(items.begin(), items.end(), 0);
  const std::vector<int> out =
      runner.map(items, [](const int& v) { return v * 3; });
  ASSERT_EQ(out.size(), items.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], static_cast<int>(i) * 3);
  }
}

TEST(SweepRunner, MapNParityAcrossJobCounts) {
  const auto cell = [](std::size_t i) {
    // Deterministic per-cell work with its own state, as the contract
    // (DESIGN.md §7.1) requires of every sweep cell.
    std::uint64_t h = 0x9E3779B97F4A7C15ull + i;
    for (int r = 0; r < 1000; ++r) h = h * 6364136223846793005ull + i;
    return h;
  };
  SweepRunner serial(1);
  SweepRunner wide(8);
  EXPECT_EQ(serial.map_n(64, cell), wide.map_n(64, cell));
}

TEST(SweepRunner, RunMicroCellsMatchesSerialRunMicro) {
  // The real thing end-to-end: whole simulations on worker threads must
  // merge byte-identically to the serial loop.
  std::vector<MicroCell> cells;
  for (const auto sys :
       {rpcs::System::kWFlushRpc, rpcs::System::kFaRM, rpcs::System::kSFlushRpc,
        rpcs::System::kWFlushRpc}) {
    MicroConfig cfg;
    cfg.object_size = 512;
    cfg.ops = 120;
    cfg.seed = 5 + cells.size();
    cells.push_back({sys, cfg});
  }
  SweepRunner parallel(4);
  const auto par = run_micro_cells(parallel, cells);
  ASSERT_EQ(par.size(), cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const auto ref = run_micro(cells[i].system, cells[i].cfg);
    EXPECT_EQ(par[i].duration, ref.duration) << i;
    EXPECT_EQ(par[i].ops_completed, ref.ops_completed) << i;
    EXPECT_DOUBLE_EQ(par[i].kops, ref.kops) << i;
    EXPECT_EQ(par[i].sim_events, ref.sim_events) << i;
    EXPECT_EQ(par[i].latency.p99(), ref.latency.p99()) << i;
  }
}

}  // namespace
}  // namespace prdma::bench
