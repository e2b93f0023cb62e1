// Tests for the memory substrate: device content + timing, the DDIO
// cache model, and the node memory map's persistence semantics.

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <map>
#include <random>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "mem/buffer_pool.hpp"
#include "mem/device.hpp"
#include "mem/llc.hpp"
#include "mem/node_memory.hpp"
#include "sim/simulator.hpp"

namespace prdma::mem {
namespace {

using prdma::sim::SimTime;
using prdma::sim::Simulator;

std::vector<std::byte> bytes(std::initializer_list<int> vals) {
  std::vector<std::byte> out;
  out.reserve(vals.size());
  for (int v : vals) out.push_back(static_cast<std::byte>(v));
  return out;
}

std::vector<std::byte> pattern(std::size_t n, int seed = 1) {
  std::vector<std::byte> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::byte>((seed * 131 + i) & 0xFF);
  }
  return out;
}

DeviceTiming fast_timing() {
  return DeviceTiming{100, 50, 10e9, 5e9};
}

// ---------------------------------------------------------------- Device

TEST(Device, PokePeekRoundTrip) {
  Simulator sim;
  PmDevice pm(sim, "pm", 4096, fast_timing());
  const auto data = pattern(256);
  pm.poke(100, data);
  std::vector<std::byte> out(256);
  pm.peek(100, out);
  EXPECT_EQ(out, data);
  EXPECT_EQ(pm.bytes_written(), 256u);
}

TEST(Device, ViewAliasesContent) {
  Simulator sim;
  PmDevice pm(sim, "pm", 1024, fast_timing());
  pm.poke(0, bytes({1, 2, 3}));
  const auto v = pm.view(0, 3);
  EXPECT_EQ(static_cast<int>(v[1]), 2);
}

TEST(Device, WriteTimingIncludesLatencyAndBandwidth) {
  Simulator sim;
  PmDevice pm(sim, "pm", 1 << 20, DeviceTiming{0, 100, 1e9, 1e9});
  // 1 GB/s => 1 ns per byte. 1000 bytes at t=0 -> latency 100 + 1000.
  EXPECT_EQ(pm.write_complete_at(0, 1000), 1100u);
}

TEST(Device, BandwidthSerializesBackToBackWrites) {
  Simulator sim;
  PmDevice pm(sim, "pm", 1 << 20, DeviceTiming{0, 0, 1e9, 1e9});
  const SimTime t1 = pm.write_complete_at(0, 1000);
  const SimTime t2 = pm.write_complete_at(0, 1000);  // queues behind first
  EXPECT_EQ(t1, 1000u);
  EXPECT_EQ(t2, 2000u);
}

TEST(Device, IdleGapDoesNotCarryOccupancy) {
  Simulator sim;
  PmDevice pm(sim, "pm", 1 << 20, DeviceTiming{0, 0, 1e9, 1e9});
  (void)pm.write_complete_at(0, 1000);
  // Device free again by t=5000; a later write starts fresh.
  EXPECT_EQ(pm.write_complete_at(5000, 100), 5100u);
}

TEST(Device, PmSurvivesCrashDramDoesNot) {
  Simulator sim;
  PmDevice pm(sim, "pm", 1024, fast_timing());
  DramDevice dram(sim, "dram", 1024, fast_timing());
  const auto data = pattern(64);
  pm.poke(0, data);
  dram.poke(0, data);
  pm.crash();
  dram.crash();
  std::vector<std::byte> out(64);
  pm.peek(0, out);
  EXPECT_EQ(out, data);
  dram.peek(0, out);
  EXPECT_EQ(out, std::vector<std::byte>(64, std::byte{0}));
  EXPECT_TRUE(pm.persistent());
  EXPECT_FALSE(dram.persistent());
}

bool all_zero(std::span<const std::byte> s) {
  return std::all_of(s.begin(), s.end(),
                     [](std::byte b) { return b == std::byte{0}; });
}

TEST(Device, DramCrashClearsWhatWasWrittenSinceTheLastCrash) {
  Simulator sim;
  DramDevice dram(sim, "dram", 4096, fast_timing());
  // Nothing written: the crash is a no-op.
  dram.crash();
  EXPECT_TRUE(all_zero(dram.view(0, 4096)));
  EXPECT_EQ(dram.bytes_written(), 0u);
  EXPECT_EQ(dram.bytes_copied(), 0u);
  // An empty store at the end of capacity writes nothing.
  dram.poke(4096, {});
  dram.crash();
  EXPECT_TRUE(all_zero(dram.view(0, 4096)));
  EXPECT_EQ(dram.bytes_written(), 0u);

  // Stores at both ends of capacity are cleared by the next crash.
  dram.poke(4093, bytes({1, 2, 3}));
  dram.poke(0, bytes({7}));
  EXPECT_EQ(static_cast<int>(dram.view(4095, 1)[0]), 3);
  EXPECT_EQ(static_cast<int>(dram.view(0, 1)[0]), 7);
  dram.crash();
  EXPECT_TRUE(all_zero(dram.view(0, 4096)));
  EXPECT_EQ(dram.bytes_written(), 4u);

  // Stores after a crash are cleared by the following crash.
  dram.poke(100, bytes({9, 9}));
  dram.poke(2000, bytes({5}));
  EXPECT_EQ(static_cast<int>(dram.view(101, 1)[0]), 9);
  EXPECT_EQ(static_cast<int>(dram.view(2000, 1)[0]), 5);
  dram.crash();
  EXPECT_TRUE(all_zero(dram.view(0, 4096)));
  EXPECT_EQ(dram.bytes_written(), 7u);
  EXPECT_EQ(dram.bytes_copied(), 7u);
}

long minor_faults() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_minflt;
}

// A volatile crash costs what the node wrote, not what it could hold:
// zeroing 256 MiB would fault in 65,536 fresh pages; clearing the
// written extent touches only pages that are already resident. The
// second crash fails if the extent outlived the first one.
TEST(DramDevice, CrashCostScalesWithWrittenBytesNotCapacity) {
  constexpr std::uint64_t kMiB = 1 << 20;
  Simulator sim;
  DramDevice dram(sim, "dram", 256 * kMiB, fast_timing());
  const auto data = pattern(4096);
  dram.poke(1 * kMiB, data);
  long before = minor_faults();
  dram.crash();
  EXPECT_LT(minor_faults() - before, 64);
  EXPECT_TRUE(all_zero(dram.view(1 * kMiB, 4096)));

  dram.poke(192 * kMiB, data);
  before = minor_faults();
  dram.crash();
  EXPECT_LT(minor_faults() - before, 64);
  EXPECT_TRUE(all_zero(dram.view(192 * kMiB, 4096)));
}

/// Drives a small device with one seeded random sequence of stores
/// (unaligned, empty, at both ends of capacity), torn PM landings,
/// reads and crashes, and compares content and accounting after every
/// step against a plain byte vector that a DRAM crash zeroes in full
/// and a PM crash keeps.
template <class Dev>
void device_differential_run(std::uint64_t seed) {
  constexpr std::uint64_t kCap = 8 * kCacheLine + 13;
  Simulator sim;
  Dev dev(sim, "dev", kCap, fast_timing());
  std::vector<std::byte> ref(kCap);
  std::uint64_t written = 0;
  std::uint64_t copied = 0;
  std::mt19937_64 rng(seed);
  auto draw = [&rng](std::uint64_t n) { return rng() % n; };
  for (int step = 0; step < 300; ++step) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed << " step " << step);
    std::uint64_t len = draw(4) == 0 ? 0 : 1 + draw(3 * kCacheLine);
    len = std::min(len, kCap);
    std::uint64_t addr = draw(kCap - len + 1);
    if (const std::uint64_t where = draw(4); where == 0) {
      addr = 0;
    } else if (where == 1) {
      addr = kCap - len;
    }
    const auto data = pattern(len, static_cast<int>(draw(256)));
    const std::uint64_t op = draw(100);
    if (op < 45) {
      dev.poke(addr, data);
      std::copy(data.begin(), data.end(), ref.begin() + addr);
      written += len;
      copied += len;
    } else if (op < 60) {
      if constexpr (std::is_same_v<Dev, PmDevice>) {
        const std::uint64_t persisted = draw(len + kCacheLine);
        dev.torn_write(addr, data, persisted);
        const std::uint64_t landed = line_down(std::min(persisted, len));
        std::copy_n(data.begin(), landed, ref.begin() + addr);
        written += landed;
        copied += landed;
      }
    } else if (op < 88) {
      std::vector<std::byte> got(len);
      dev.peek(addr, got);
      ASSERT_TRUE(std::equal(got.begin(), got.end(), ref.begin() + addr));
      copied += len;
    } else {
      dev.crash();
      if (!dev.persistent()) std::fill(ref.begin(), ref.end(), std::byte{0});
    }
    const auto v = dev.view(0, kCap);
    ASSERT_TRUE(std::equal(v.begin(), v.end(), ref.begin())) << "contents";
    ASSERT_EQ(dev.bytes_written(), written);
    ASSERT_EQ(dev.bytes_copied(), copied);
  }
}

TEST(DeviceDifferential, MatchesByteVectorOnRandomSequences) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    device_differential_run<DramDevice>(seed);
    if (::testing::Test::HasFatalFailure()) return;
    device_differential_run<PmDevice>(seed);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// ------------------------------------------------------------------- Llc

struct LlcFixture : ::testing::Test {
  Simulator sim;
  PmDevice pm{sim, "pm", 1 << 20, DeviceTiming{170, 90, 6e9, 2e9}};
  LlcParams params{};
  Llc llc{sim, pm, params};
};

TEST_F(LlcFixture, WriteIsDirtyUntilFlush) {
  const auto data = pattern(128);
  llc.write(256, data);
  EXPECT_TRUE(llc.is_dirty(256, 128));
  EXPECT_EQ(llc.dirty_lines(), 2u);

  // PM content must still be stale.
  std::vector<std::byte> raw(128);
  pm.peek(256, raw);
  EXPECT_EQ(raw, std::vector<std::byte>(128, std::byte{0}));

  // But a coherent read sees the new data (the DDIO trap).
  std::vector<std::byte> coherent(128);
  llc.read(256, coherent);
  EXPECT_EQ(coherent, data);
}

TEST_F(LlcFixture, ClflushPersistsAndCleans) {
  const auto data = pattern(64);
  llc.write(0, data);
  const SimTime done = llc.clflush(1000, 0, 64);
  EXPECT_GT(done, 1000u);
  EXPECT_FALSE(llc.is_dirty(0, 64));
  std::vector<std::byte> raw(64);
  pm.peek(0, raw);
  EXPECT_EQ(raw, data);
  EXPECT_EQ(llc.lines_flushed(), 1u);
}

TEST_F(LlcFixture, ClflushOfCleanRangeOnlyCostsFence) {
  const SimTime done = llc.clflush(500, 4096, 64);
  EXPECT_EQ(done, 500 + params.sfence_cost);
}

TEST_F(LlcFixture, CrashDropsDirtyLines) {
  const auto data = pattern(64);
  llc.write(128, data);
  llc.crash();
  EXPECT_EQ(llc.dirty_lines(), 0u);
  EXPECT_EQ(llc.lines_lost_to_crash(), 1u);
  std::vector<std::byte> raw(64);
  pm.peek(128, raw);
  EXPECT_EQ(raw, std::vector<std::byte>(64, std::byte{0}))
      << "crash must not persist dirty lines";
}

TEST_F(LlcFixture, PartialLineWritePreservesRestOfLine) {
  // Pre-existing persistent data in the middle of a line.
  const auto old_data = pattern(64, 3);
  pm.poke(0, old_data);
  llc.write(10, bytes({0xAA, 0xBB}));
  std::vector<std::byte> out(64);
  llc.read(0, out);
  auto expect = old_data;
  expect[10] = std::byte{0xAA};
  expect[11] = std::byte{0xBB};
  EXPECT_EQ(out, expect) << "line fill must merge with backing contents";
}

TEST_F(LlcFixture, EvictionWritesBackOldestLine) {
  LlcParams small;
  small.capacity_lines = 4;
  Llc tiny(sim, pm, small);
  for (std::uint64_t i = 0; i < 6; ++i) {
    tiny.write(i * kCacheLine, pattern(kCacheLine, static_cast<int>(i)));
  }
  EXPECT_EQ(tiny.evictions(), 2u);
  EXPECT_EQ(tiny.dirty_lines(), 4u);
  // The first (evicted) line is now physically in PM.
  std::vector<std::byte> raw(kCacheLine);
  pm.peek(0, raw);
  EXPECT_EQ(raw, pattern(kCacheLine, 0));
}

TEST_F(LlcFixture, FlushTimingScalesWithLineCount) {
  llc.write(0, pattern(64));
  const SimTime one = llc.clflush(0, 0, 64) ;
  llc.write(1024, pattern(256));
  const SimTime four = llc.clflush(100000, 1024, 256) - 100000;
  EXPECT_GT(four, one);
}

TEST_F(LlcFixture, ZeroCapacityIsRejected) {
  LlcParams none;
  none.capacity_lines = 0;
  EXPECT_THROW(Llc(sim, pm, none), std::invalid_argument);
}

// The four non-obvious semantics of the line model, pinned one by one.

TEST_F(LlcFixture, EvictionAheadOfWriteCursorRedirtiesTheLine) {
  LlcParams small;
  small.capacity_lines = 2;
  Llc tiny(sim, pm, small);
  const auto a = pattern(kCacheLine, 1);
  const auto b = pattern(3 * kCacheLine, 2);
  tiny.write(2 * kCacheLine, a);  // line 2: the FIFO-oldest line
  // Lines 0..2 in one write: dirtying line 1 evicts line 2, which lies
  // further ahead in the same write, with its old bytes. When the
  // cursor reaches line 2 it is faulted in again with a fresh FIFO
  // position, and in turn evicts line 0.
  tiny.write(0, b);
  EXPECT_EQ(tiny.evictions(), 2u);
  EXPECT_EQ(tiny.dirty_lines(), 2u);
  std::vector<std::byte> raw(3 * kCacheLine);
  pm.peek(0, raw);
  EXPECT_TRUE(std::equal(b.begin(), b.begin() + kCacheLine, raw.begin()))
      << "line 0 was evicted after its store";
  EXPECT_EQ(raw[kCacheLine], std::byte{0}) << "line 1 is still dirty";
  EXPECT_TRUE(std::equal(a.begin(), a.end(), raw.begin() + 2 * kCacheLine))
      << "line 2 was written back before the cursor reached it";
  // Fills: line 2, then lines 0, 1, 2 again; reads: the peek above.
  EXPECT_EQ(pm.bytes_copied(), 4 * kCacheLine + 2 * kCacheLine + raw.size());
  EXPECT_EQ(pm.bytes_written(), 2 * kCacheLine);
  // Line 2's fresh FIFO position is younger than line 1's.
  tiny.write(8 * kCacheLine, pattern(kCacheLine, 3));
  EXPECT_TRUE(tiny.is_dirty(2 * kCacheLine, kCacheLine));
  EXPECT_FALSE(tiny.is_dirty(kCacheLine, kCacheLine));
  std::vector<std::byte> out(3 * kCacheLine);
  tiny.read(0, out);
  EXPECT_EQ(out, b);
}

TEST_F(LlcFixture, RedirtyingALineKeepsItsFifoPosition) {
  LlcParams small;
  small.capacity_lines = 2;
  Llc tiny(sim, pm, small);
  tiny.write(0, pattern(kCacheLine, 1));
  tiny.write(4 * kCacheLine, pattern(kCacheLine, 2));
  const auto c = pattern(kCacheLine, 3);
  tiny.write(0, c);  // already dirty: same FIFO position
  tiny.write_shadow(0, kCacheLine);
  tiny.write(8 * kCacheLine, pattern(kCacheLine, 4));
  EXPECT_EQ(tiny.evictions(), 1u);
  EXPECT_FALSE(tiny.is_dirty(0, kCacheLine))
      << "line 0 is still the oldest, however recently it was stored to";
  EXPECT_TRUE(tiny.is_dirty(4 * kCacheLine, kCacheLine));
  std::vector<std::byte> raw(kCacheLine);
  pm.peek(0, raw);
  EXPECT_EQ(raw, c);
}

TEST_F(LlcFixture, ByteStoreIntoShadowLineZeroFills) {
  pm.poke(0, pattern(kCacheLine, 3));
  const std::uint64_t copied = pm.bytes_copied();
  llc.write_shadow(0, kCacheLine);
  llc.write(10, bytes({0xAA, 0xBB}));
  EXPECT_EQ(pm.bytes_copied(), copied) << "no fill from PM";
  std::vector<std::byte> expect(kCacheLine, std::byte{0});
  expect[10] = std::byte{0xAA};
  expect[11] = std::byte{0xBB};
  std::vector<std::byte> out(kCacheLine);
  llc.read(0, out);
  EXPECT_EQ(out, expect);
  (void)llc.clflush(0, 0, kCacheLine);
  pm.peek(0, out);
  EXPECT_EQ(out, expect) << "the line writes back as bytes";
}

TEST_F(LlcFixture, ReadOverlaysZerosForShadowLines) {
  const auto old_data = pattern(2 * kCacheLine, 5);
  pm.poke(0, old_data);
  llc.write_shadow(0, kCacheLine);
  std::vector<std::byte> out(2 * kCacheLine);
  llc.read(0, out);
  auto expect = old_data;
  std::fill_n(expect.begin(), kCacheLine, std::byte{0});
  EXPECT_EQ(out, expect);
  // Writing a shadow line back moves no bytes but counts the write.
  const std::uint64_t written = pm.bytes_written();
  (void)llc.clflush(0, 0, kCacheLine);
  EXPECT_EQ(pm.bytes_written(), written + kCacheLine);
  pm.peek(0, out);
  EXPECT_EQ(out, old_data);
}

// ------------------------------------------- Llc vs per-line reference

/// Test-only reference for Llc: the same cache model kept as one entry
/// per 64 B line (a line map plus a FIFO of (line, seq) with lazy
/// deletion). Llc tracks dirty lines as runs; the two must agree on
/// every observable after every operation.
class LineLlc {
 public:
  LineLlc(Device& backing, LlcParams params)
      : backing_(backing), params_(params) {}

  void write(std::uint64_t addr, std::span<const std::byte> data) {
    std::uint64_t pos = addr;
    std::size_t done = 0;
    while (done < data.size()) {
      const std::uint64_t la = line_down(pos);
      const std::uint64_t off = pos - la;
      const std::size_t n = static_cast<std::size_t>(
          std::min<std::uint64_t>(kCacheLine - off, data.size() - done));
      Line& line = dirty_line(la, /*fill=*/true);
      std::copy_n(data.begin() + static_cast<std::ptrdiff_t>(done), n,
                  line.data.begin() + static_cast<std::ptrdiff_t>(off));
      pos += n;
      done += n;
    }
  }

  void write_shadow(std::uint64_t addr, std::uint64_t len) {
    for (std::uint64_t la = line_down(addr); la < line_up(addr + len);
         la += kCacheLine) {
      (void)dirty_line(la, /*fill=*/false);
    }
  }

  void read(std::uint64_t addr, std::span<std::byte> out) const {
    backing_.peek(addr, out);
    for (std::uint64_t la = line_down(addr); la < line_up(addr + out.size());
         la += kCacheLine) {
      const auto it = lines_.find(la);
      if (it == lines_.end()) continue;
      const std::uint64_t lo = std::max(la, addr);
      const std::uint64_t hi = std::min(la + kCacheLine, addr + out.size());
      std::copy_n(it->second.data.begin() + static_cast<std::ptrdiff_t>(lo - la),
                  hi - lo, out.begin() + static_cast<std::ptrdiff_t>(lo - addr));
    }
  }

  bool is_dirty(std::uint64_t addr, std::uint64_t len) const {
    for (std::uint64_t la = line_down(addr); la < line_up(addr + len);
         la += kCacheLine) {
      if (lines_.contains(la)) return true;
    }
    return false;
  }

  SimTime clflush(SimTime start, std::uint64_t addr, std::uint64_t len) {
    SimTime t = start;
    std::uint64_t flushed = 0;
    for (std::uint64_t la = line_down(addr); la < line_up(addr + len);
         la += kCacheLine) {
      const auto it = lines_.find(la);
      if (it == lines_.end()) continue;
      write_back(la, it->second);
      lines_.erase(it);
      t += params_.clflush_per_line;
      ++flushed;
    }
    lines_flushed_ += flushed;
    if (flushed > 0) {
      t = std::max(t, backing_.write_complete_at(start, flushed * kCacheLine));
    }
    return t + params_.sfence_cost;
  }

  void crash() {
    lines_lost_ += lines_.size();
    lines_.clear();
    fifo_.clear();
  }

  std::size_t dirty_lines() const { return lines_.size(); }
  std::uint64_t evictions() const { return evictions_; }
  std::uint64_t lines_flushed() const { return lines_flushed_; }
  std::uint64_t lines_lost_to_crash() const { return lines_lost_; }

 private:
  struct Line {
    std::array<std::byte, kCacheLine> data{};
    std::uint64_t seq = 0;
    bool has_bytes = true;
  };

  Line& dirty_line(std::uint64_t la, bool fill) {
    auto it = lines_.find(la);
    if (it == lines_.end()) {
      it = lines_.emplace(la, Line{}).first;
      if (fill) {
        backing_.peek(la, it->second.data);
      } else {
        it->second.has_bytes = false;
      }
      it->second.seq = next_seq_++;
      fifo_.emplace_back(la, it->second.seq);
      while (lines_.size() > params_.capacity_lines) {
        const auto [victim, seq] = fifo_.front();
        fifo_.pop_front();
        const auto v = lines_.find(victim);
        if (v == lines_.end() || v->second.seq != seq) continue;
        write_back(victim, v->second);
        lines_.erase(v);
        ++evictions_;
      }
    } else if (fill) {
      it->second.has_bytes = true;
    }
    return it->second;
  }

  void write_back(std::uint64_t la, const Line& line) {
    if (line.has_bytes) {
      backing_.poke(la, line.data);
    } else {
      backing_.poke_shadow(la, kCacheLine);
    }
  }

  Device& backing_;
  LlcParams params_;
  std::map<std::uint64_t, Line> lines_;
  std::deque<std::pair<std::uint64_t, std::uint64_t>> fifo_;
  std::uint64_t next_seq_ = 1;
  std::uint64_t evictions_ = 0;
  std::uint64_t lines_flushed_ = 0;
  std::uint64_t lines_lost_ = 0;
};

/// Drives Llc and LineLlc with one seeded random operation sequence
/// (byte and shadow stores, unaligned, up to twice the capacity long)
/// and compares every observable after every step.
void differential_run(std::uint64_t seed, std::uint64_t capacity_lines) {
  constexpr std::uint64_t kSpan = 24 * kCacheLine;
  constexpr std::uint64_t kMem = kSpan + 32 * kCacheLine;
  Simulator sim;
  PmDevice pm_new(sim, "pm", kMem, DeviceTiming{170, 90, 6e9, 2e9});
  PmDevice pm_ref(sim, "pm", kMem, DeviceTiming{170, 90, 6e9, 2e9});
  LlcParams params;
  params.capacity_lines = capacity_lines;
  Llc llc(sim, pm_new, params);
  LineLlc ref(pm_ref, params);
  std::mt19937_64 rng(seed);
  auto draw = [&rng](std::uint64_t n) { return rng() % n; };
  SimTime now = 0;
  for (int step = 0; step < 400; ++step) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed << " capacity "
                                      << capacity_lines << " step " << step);
    const std::uint64_t addr = draw(kSpan);
    const std::uint64_t max_len = 2 * (capacity_lines + 1) * kCacheLine;
    const std::uint64_t len = draw(8) == 0 ? draw(kCacheLine) : draw(max_len);
    const std::uint64_t op = draw(100);
    if (op < 30) {
      const auto data = pattern(len, static_cast<int>(draw(256)));
      llc.write(addr, data);
      ref.write(addr, data);
    } else if (op < 55) {
      llc.write_shadow(addr, len);
      ref.write_shadow(addr, len);
    } else if (op < 70) {
      std::vector<std::byte> got(len);
      std::vector<std::byte> want(len);
      llc.read(addr, got);
      ref.read(addr, want);
      ASSERT_EQ(got, want);
    } else if (op < 80) {
      ASSERT_EQ(llc.is_dirty(addr, len), ref.is_dirty(addr, len));
    } else if (op < 98) {
      now += draw(2000);
      ASSERT_EQ(llc.clflush(now, addr, len), ref.clflush(now, addr, len));
    } else {
      llc.crash();
      ref.crash();
    }
    ASSERT_EQ(llc.dirty_lines(), ref.dirty_lines());
    ASSERT_EQ(llc.evictions(), ref.evictions());
    ASSERT_EQ(llc.lines_flushed(), ref.lines_flushed());
    ASSERT_EQ(llc.lines_lost_to_crash(), ref.lines_lost_to_crash());
    ASSERT_EQ(pm_new.bytes_written(), pm_ref.bytes_written());
    ASSERT_EQ(pm_new.bytes_copied(), pm_ref.bytes_copied());
    const auto a = pm_new.view(0, kMem);
    const auto b = pm_ref.view(0, kMem);
    ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin())) << "PM contents";
  }
  // Whatever is still dirty reads back the same through both models.
  std::vector<std::byte> got(kMem);
  std::vector<std::byte> want(kMem);
  llc.read(0, got);
  ref.read(0, want);
  ASSERT_EQ(got, want);
}

TEST(LlcDifferential, MatchesPerLineModelOnRandomSequences) {
  for (std::uint64_t capacity = 1; capacity <= 8; ++capacity) {
    for (std::uint64_t seed = 1; seed <= 25; ++seed) {
      differential_run(seed * 1000 + capacity, capacity);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

// ------------------------------------------------------------ NodeMemory

struct NodeMemFixture : ::testing::Test {
  Simulator sim;
  NodeMemoryParams params;
  NodeMemFixture() {
    params.pm_capacity = 1 << 20;
    params.dram_capacity = 1 << 20;
  }
};

TEST_F(NodeMemFixture, AddressMapRoutesPmAndDram) {
  NodeMemory mem(sim, params);
  EXPECT_TRUE(mem.is_pm(0));
  EXPECT_TRUE(mem.is_pm(params.pm_capacity - 1));
  EXPECT_FALSE(mem.is_pm(NodeMemory::kDramBase));

  const auto data = pattern(32);
  mem.cpu_write(NodeMemory::kDramBase + 64, data);
  std::vector<std::byte> out(32);
  mem.cpu_read(NodeMemory::kDramBase + 64, out);
  EXPECT_EQ(out, data);
}

TEST_F(NodeMemFixture, CpuStoreToPmIsVolatileUntilFlush) {
  NodeMemory mem(sim, params);
  const auto data = pattern(64);
  mem.cpu_write(512, data);
  EXPECT_FALSE(mem.range_persistent(512, 64));
  mem.clflush(0, 512, 64);
  EXPECT_TRUE(mem.range_persistent(512, 64));
  std::vector<std::byte> raw(64);
  mem.pm().peek(512, raw);
  EXPECT_EQ(raw, data);
}

TEST_F(NodeMemFixture, DmaWithoutDdioLandsInPersistDomain) {
  NodeMemory mem(sim, params);
  const auto data = pattern(128);
  mem.dma_write(1024, data, /*ddio=*/false);
  EXPECT_TRUE(mem.range_persistent(1024, 128));
  std::vector<std::byte> raw(128);
  mem.pm().peek(1024, raw);
  EXPECT_EQ(raw, data);
}

TEST_F(NodeMemFixture, DmaWithDdioIsVolatileButCoherent) {
  NodeMemory mem(sim, params);
  const auto data = pattern(128);
  mem.dma_write(1024, data, /*ddio=*/true);
  EXPECT_FALSE(mem.range_persistent(1024, 128));

  // A read-after-write check would succeed even though nothing is
  // persistent yet — the paper's §2.4 failure mode.
  std::vector<std::byte> readback(128);
  mem.dma_read(1024, readback);
  EXPECT_EQ(readback, data);

  mem.crash();
  std::vector<std::byte> raw(128);
  mem.pm().peek(1024, raw);
  EXPECT_EQ(raw, std::vector<std::byte>(128, std::byte{0}))
      << "DDIO-buffered data must be lost on crash";
}

TEST_F(NodeMemFixture, CrashWipesDramKeepsPm) {
  NodeMemory mem(sim, params);
  const auto data = pattern(64);
  mem.dma_write(0, data, /*ddio=*/false);
  mem.cpu_write(NodeMemory::kDramBase, data);
  mem.crash();
  std::vector<std::byte> out(64);
  mem.cpu_read(0, out);
  EXPECT_EQ(out, data);
  mem.cpu_read(NodeMemory::kDramBase, out);
  EXPECT_EQ(out, std::vector<std::byte>(64, std::byte{0}));
}

TEST_F(NodeMemFixture, RangePersistentFalseForDram) {
  NodeMemory mem(sim, params);
  EXPECT_FALSE(mem.range_persistent(NodeMemory::kDramBase, 8));
}

TEST_F(NodeMemFixture, DeviceTimingHelpersRouteByAddress) {
  NodeMemory mem(sim, params);
  const SimTime pm_t = mem.device_write_complete_at(0, 0, 4096);
  NodeMemory mem2(sim, params);
  const SimTime dram_t =
      mem2.device_write_complete_at(0, NodeMemory::kDramBase, 4096);
  EXPECT_GT(pm_t, dram_t) << "PM writes are slower than DRAM";
}

// ------------------------------------------------------------ BufferPool

TEST(BufferPool, AcquireRecycleReusesBlocks) {
  Simulator sim;
  BufferPool pool(sim);
  PayloadRef a = pool.acquire(100);
  PayloadBuf* const first = a.buf();
  EXPECT_EQ(pool.stats().acquires, 1u);
  EXPECT_EQ(pool.stats().outstanding, 1u);
  a.reset();
  EXPECT_EQ(pool.stats().recycles, 1u);
  EXPECT_EQ(pool.stats().outstanding, 0u);

  // Same size class -> the freed block comes straight back; no slab
  // growth in steady state.
  const std::uint64_t slab0 = pool.stats().slab_bytes;
  PayloadRef b = pool.acquire(100);
  EXPECT_EQ(b.buf(), first);
  EXPECT_EQ(pool.stats().slab_bytes, slab0);
}

TEST(BufferPool, RefcountKeepsBlockAliveUntilLastHandle) {
  Simulator sim;
  BufferPool pool(sim);
  PayloadRef a = pool.make_bytes(pattern(64));
  PayloadRef b = a;  // shared
  EXPECT_EQ(a.buf(), b.buf());
  EXPECT_EQ(a.buf()->refs, 2u);
  EXPECT_EQ(a.buf()->ref_acquires, 2u);
  a.reset();
  EXPECT_EQ(pool.stats().recycles, 0u) << "b still holds the block";
  EXPECT_EQ(std::vector<std::byte>(b.bytes().begin(), b.bytes().end()),
            pattern(64));
  b.reset();
  EXPECT_EQ(pool.stats().recycles, 1u);
}

TEST(BufferPool, AppendMergesTrailingBytesSegment) {
  Simulator sim;
  BufferPool pool(sim);
  PayloadRef r = pool.acquire(256);
  r.buf()->append_bytes(pattern(100, 1));
  r.buf()->append_bytes(pattern(100, 2));
  EXPECT_EQ(r.seg_count(), 1u);
  EXPECT_TRUE(r.contiguous_bytes());
  EXPECT_EQ(r.size(), 200u);
}

TEST(BufferPool, ShadowSegmentsCarryNoData) {
  Simulator sim;
  BufferPool pool(sim);
  PayloadRef r = pool.acquire(64);
  r.buf()->append_bytes(pattern(16));
  r.buf()->append_shadow(1000, /*seed=*/7, /*off=*/0);
  EXPECT_EQ(r.size(), 1016u);
  EXPECT_EQ(r.seg_count(), 2u);
  EXPECT_EQ(r.buf()->data_used, 16u) << "shadow extents consume no data area";
  EXPECT_FALSE(r.contiguous_bytes());
}

TEST(BufferPool, OversizeAcquireFallsBackToHeap) {
  Simulator sim;
  BufferPool pool(sim);
  // One byte past the largest class (128 MiB). The data area is never
  // touched, so the allocation stays virtual.
  PayloadRef r = pool.acquire((64ull << 21) + 1);
  EXPECT_EQ(pool.stats().oversize_allocs, 1u);
  r.buf()->append_bytes(pattern(16));
  r.reset();
  EXPECT_EQ(pool.stats().recycles, 1u);
  EXPECT_EQ(pool.stats().slab_bytes, 0u) << "oversize must not grow a class";
}

TEST(BufferPool, LegacyEnvDisablesPooling) {
  ::setenv("PRDMA_LEGACY_DATAPLANE", "1", 1);
  Simulator sim;
  BufferPool pool(sim);
  ::unsetenv("PRDMA_LEGACY_DATAPLANE");
  EXPECT_TRUE(pool.legacy_mode());
  PayloadRef r = pool.make_bytes(pattern(64));
  EXPECT_EQ(std::vector<std::byte>(r.bytes().begin(), r.bytes().end()),
            pattern(64));
  r.reset();
  EXPECT_EQ(pool.stats().slab_bytes, 0u) << "legacy mode never builds slabs";
  EXPECT_EQ(pool.stats().acquires, 1u);
  EXPECT_EQ(pool.stats().recycles, 1u);
}

TEST(BufferPool, AsanPoisonsRecycledDataAreas) {
  if (!BufferPool::poisoning_enabled()) {
    GTEST_SKIP() << "not an ASan build";
  }
  Simulator sim;
  BufferPool pool(sim);
  PayloadRef r = pool.acquire(64);
  const std::byte* data = r.buf()->data();
  EXPECT_FALSE(BufferPool::address_poisoned(data));
  r.reset();
  EXPECT_TRUE(BufferPool::address_poisoned(data))
      << "freed blocks must be poisoned: stale PayloadRef reads should trap";
  PayloadRef again = pool.acquire(64);
  EXPECT_FALSE(BufferPool::address_poisoned(again.buf()->data()));
}

// --------------------------------------------- content modes (shadow)

NodeMemoryParams small_params(ContentMode mode) {
  NodeMemoryParams p;
  p.pm_capacity = 1 << 20;
  p.dram_capacity = 1 << 20;
  p.content_mode = mode;
  return p;
}

/// Builds the same logical payload in both modes: [16B header][1 KB
/// interior][8B commit] — bytes everywhere in kFull, a shadow extent
/// interior in kShadow, as encode_log_entry_image does.
PayloadRef build_image(NodeMemory& mem, std::uint64_t seed) {
  if (mem.content_mode() == ContentMode::kShadow) {
    PayloadRef r = mem.pool().acquire(24);
    r.buf()->append_bytes(pattern(16, static_cast<int>(seed)));
    r.buf()->append_shadow(1024, seed, 0);
    r.buf()->append_bytes(pattern(8, static_cast<int>(seed) + 1));
    return r;
  }
  PayloadRef r = mem.pool().acquire(16 + 1024 + 8);
  r.buf()->append_bytes(pattern(16, static_cast<int>(seed)));
  r.buf()->append_bytes(pattern(1024, 99));
  r.buf()->append_bytes(pattern(8, static_cast<int>(seed) + 1));
  return r;
}

TEST(ContentModeParity, TimingAndAccountingMatchAcrossModes) {
  Simulator sim_full;
  Simulator sim_shadow;
  NodeMemory full(sim_full, small_params(ContentMode::kFull));
  NodeMemory shadow(sim_shadow, small_params(ContentMode::kShadow));

  for (auto* m : {&full, &shadow}) {
    PayloadRef img = build_image(*m, 3);
    m->cpu_write_payload(4096, img);
    m->dma_write_payload(65536, img, /*ddio=*/false);
  }
  // Identical line presence and dirtiness...
  EXPECT_EQ(full.llc().dirty_lines(), shadow.llc().dirty_lines());
  EXPECT_EQ(full.range_persistent(4096, 1048),
            shadow.range_persistent(4096, 1048));
  // ...identical flush timing...
  const SimTime t_full = full.clflush(0, 4096, 1048);
  const SimTime t_shadow = shadow.clflush(0, 4096, 1048);
  EXPECT_EQ(t_full, t_shadow);
  // ...and identical device write accounting (shadow writes charge the
  // same bytes_written; only bytes_copied diverges).
  EXPECT_EQ(full.pm().bytes_written(), shadow.pm().bytes_written());
  EXPECT_LT(shadow.pm().bytes_copied(), full.pm().bytes_copied());
}

TEST(ContentModeParity, TornWriteCountsMatchAcrossModes) {
  Simulator sim_full;
  Simulator sim_shadow;
  NodeMemory full(sim_full, small_params(ContentMode::kFull));
  NodeMemory shadow(sim_shadow, small_params(ContentMode::kShadow));
  for (auto* m : {&full, &shadow}) {
    PayloadRef img = build_image(*m, 5);
    // Only 100 bytes reached the media: the line-aligned prefix lands,
    // the entry is torn.
    m->dma_torn_write(8192, img, img.size(), /*persisted_bytes=*/100);
    EXPECT_EQ(m->pm().torn_writes(), 1u);
  }
  EXPECT_EQ(full.pm().bytes_written(), shadow.pm().bytes_written());
}

TEST(ShadowPlane, DigestTracksWrittenExtents) {
  Simulator sim;
  NodeMemory mem(sim, small_params(ContentMode::kShadow));
  PayloadRef r = mem.pool().acquire(0);
  r.buf()->append_shadow(1024, /*seed=*/42, /*off=*/0);
  mem.cpu_write_payload(4096, r);
  const auto d = mem.shadow_digest_at(4096, 1024);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(*d, shadow_digest(42, 0, 1024));
  // Untracked ranges have no digest — byte content is authoritative.
  EXPECT_FALSE(mem.shadow_digest_at(4096 + 64, 64).has_value());
  // Rewriting the same extent replaces its generator.
  PayloadRef again = mem.pool().acquire(0);
  again.buf()->append_shadow(1024, /*seed=*/7, /*off=*/128);
  mem.cpu_write_payload(4096, again);
  EXPECT_EQ(mem.shadow_digest_at(4096, 1024), shadow_digest(7, 128, 1024));
}

TEST(ShadowPlane, ReplicatedFanOutSharesOnePooledPayload) {
  // Replication pin (DESIGN.md §7.4): forwarding one transaction to R
  // replicas moves ONE pooled payload image by reference — every hop
  // holds its own PayloadRef to the same block, and in shadow mode the
  // per-replica stores land the digest with zero pool traffic and zero
  // payload bytes on any node.
  Simulator sim;
  NodeMemory head(sim, small_params(ContentMode::kShadow));
  NodeMemory tail(sim, small_params(ContentMode::kShadow));

  PayloadRef img = head.pool().acquire(0);
  img.buf()->append_shadow(4096, /*seed=*/9, /*off=*/0);
  EXPECT_EQ(img.buf()->data_used, 0u) << "shadow extents carry no bytes";

  // Each hop takes its own reference to the one block.
  PayloadRef hop_head = img;
  PayloadRef hop_tail = img;
  EXPECT_EQ(img.buf()->refs, 3u);

  head.poke_payload_pm(4096, hop_head);
  tail.poke_payload_pm(4096, hop_tail);

  // Identical content on both replicas, derivable without bytes...
  const auto dh = head.shadow_digest_at(4096, 4096);
  const auto dt = tail.shadow_digest_at(4096, 4096);
  ASSERT_TRUE(dh.has_value());
  ASSERT_TRUE(dt.has_value());
  EXPECT_EQ(*dh, *dt);
  EXPECT_EQ(*dh, shadow_digest(9, 0, 4096));
  // ...full timing-plane accounting but no copies on either device...
  EXPECT_EQ(head.pm().bytes_written(), 4096u);
  EXPECT_EQ(tail.pm().bytes_written(), 4096u);
  EXPECT_EQ(head.pm().bytes_copied(), 0u);
  EXPECT_EQ(tail.pm().bytes_copied(), 0u);
  // ...and the head's acquire was the only pool traffic anywhere.
  EXPECT_EQ(head.pool().stats().acquires, 1u);
  EXPECT_EQ(tail.pool().stats().acquires, 0u);
}

TEST(ShadowPlane, ByteOverwriteTrimsTheExtent) {
  Simulator sim;
  NodeMemory mem(sim, small_params(ContentMode::kShadow));
  PayloadRef r = mem.pool().acquire(0);
  r.buf()->append_shadow(1024, /*seed=*/42, /*off=*/0);
  mem.cpu_write_payload(4096, r);
  // A plain byte store into the middle invalidates the tracked range:
  // the digest fails closed rather than report stale content.
  mem.cpu_write(4096 + 512, pattern(8));
  EXPECT_FALSE(mem.shadow_digest_at(4096, 1024).has_value());
}

TEST(ShadowPlane, ReadPayloadRoundTripsExtents) {
  Simulator sim;
  NodeMemory mem(sim, small_params(ContentMode::kShadow));
  PayloadRef r = mem.pool().acquire(0);
  r.buf()->append_shadow(2048, /*seed=*/7, /*off=*/0);
  mem.cpu_write_payload(4096, r);

  // Reconstructing the range must come back as a shadow extent (no
  // bytes moved), and copying it elsewhere must preserve the digest.
  const std::uint64_t copied0 = mem.pm().bytes_copied();
  PayloadRef back = mem.read_payload(4096, 2048);
  EXPECT_EQ(mem.pm().bytes_copied(), copied0) << "shadow read moves no bytes";
  ASSERT_EQ(back.seg_count(), 1u);
  EXPECT_EQ(back.segs()[0].kind, PayloadSeg::Kind::kShadow);

  mem.cpu_write_payload(65536, back);
  const auto d = mem.shadow_digest_at(65536, 2048);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(*d, shadow_digest(7, 0, 2048));
}

TEST(ShadowPlane, FullModeNeverTracksDigests) {
  Simulator sim;
  NodeMemory mem(sim, small_params(ContentMode::kFull));
  PayloadRef r = mem.pool().make_bytes(pattern(256));
  mem.cpu_write_payload(4096, r);
  EXPECT_FALSE(mem.shadow_digest_at(4096, 256).has_value());
}

}  // namespace
}  // namespace prdma::mem
