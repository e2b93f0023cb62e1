#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <span>
#include <string>

#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace prdma::mem {

/// How faithfully a node's memory system models payload *content*
/// (timing is identical in both modes — DESIGN.md §7.3):
///  * kFull   — every byte is stored and copied (required by check/,
///              the durability oracle and any crash injection);
///  * kShadow — payload interiors are tracked as per-range lengths +
///              digests only; poke/peek copies of payload bytes are
///              elided. Benchmarks default to kShadow; arming a crash
///              hook in kShadow throws.
enum class ContentMode : std::uint8_t { kFull, kShadow };

inline constexpr std::uint64_t kCacheLine = 64;

/// Rounds an address down / a length up to cache-line granularity.
constexpr std::uint64_t line_down(std::uint64_t a) { return a & ~(kCacheLine - 1); }
constexpr std::uint64_t line_up(std::uint64_t a) {
  return (a + kCacheLine - 1) & ~(kCacheLine - 1);
}

/// Timing parameters of a memory device (calibrated in core/params.hpp).
struct DeviceTiming {
  sim::SimTime read_latency = 0;     ///< fixed per-access read latency
  sim::SimTime write_latency = 0;    ///< fixed per-access write latency
  double read_bw_bytes_per_s = 0.0;  ///< sustained read bandwidth
  double write_bw_bytes_per_s = 0.0; ///< sustained write bandwidth
};

/// Byte-addressable memory device with a bandwidth-occupancy timing
/// model. The data plane (content bytes) is updated instantaneously by
/// callers at the simulated instant the model says the access
/// completes; the timing plane serializes accesses against the
/// device's bandwidth.
class Device {
 public:
  Device(sim::Simulator& sim, std::string name, std::uint64_t capacity,
         DeviceTiming timing)
      : sim_(sim),
        name_(std::move(name)),
        timing_(timing),
        capacity_(capacity),
        // calloc: content pages stay untouched (kernel zero pages)
        // until first written, and a crash clears only what was
        // written (zero_content) — so neither constructing nor
        // crashing a 256 MiB device touches its unwritten pages, which
        // is what lets sweep cells and crash schedules scale.
        content_(static_cast<std::byte*>(std::calloc(capacity, 1))) {}

  virtual ~Device() = default;
  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] std::uint64_t capacity() const { return capacity_; }

  /// True when contents survive a power failure (the persist domain).
  [[nodiscard]] virtual bool persistent() const = 0;

  /// Power failure: volatile devices lose their contents.
  virtual void crash() = 0;

  // --- data plane (instantaneous; timing charged separately) ---

  void poke(std::uint64_t addr, std::span<const std::byte> data) {
    assert(addr + data.size() <= capacity_);
    if (!data.empty()) {
      written_lo_ = std::min(written_lo_, addr);
      written_hi_ = std::max(written_hi_, addr + data.size());
    }
    std::copy(data.begin(), data.end(), content_.get() + addr);
    bytes_written_ += data.size();
    bytes_copied_ += data.size();
  }

  /// Content-elided store (ContentMode::kShadow payload interiors):
  /// identical write accounting, no bytes moved.
  void poke_shadow(std::uint64_t addr, std::uint64_t len) {
    assert(addr + len <= capacity_);
    (void)addr;
    bytes_written_ += len;
  }

  void peek(std::uint64_t addr, std::span<std::byte> out) const {
    assert(addr + out.size() <= capacity_);
    std::copy_n(content_.get() + addr, out.size(), out.begin());
    bytes_copied_ += out.size();
  }

  [[nodiscard]] std::span<const std::byte> view(std::uint64_t addr,
                                                std::uint64_t len) const {
    assert(addr + len <= capacity_);
    return {content_.get() + addr, len};
  }

  // --- timing plane ---

  /// Completion time of a write of `bytes` that arrives at the device
  /// at `start`; serializes against earlier accesses (bandwidth).
  sim::SimTime write_complete_at(sim::SimTime start, std::uint64_t bytes) {
    const sim::SimTime begin = std::max(start, busy_until_);
    const sim::SimTime xfer =
        sim::transfer_time(bytes, timing_.write_bw_bytes_per_s);
    busy_until_ = begin + xfer;
    return begin + timing_.write_latency + xfer;
  }

  /// Pure cost of a write of `bytes` (latency + transfer), without
  /// claiming device occupancy — used by paths whose serialization is
  /// modeled elsewhere (the RNIC's DMA engine queue).
  [[nodiscard]] sim::SimTime write_cost(std::uint64_t bytes) const {
    return timing_.write_latency +
           sim::transfer_time(bytes, timing_.write_bw_bytes_per_s);
  }

  [[nodiscard]] sim::SimTime read_cost(std::uint64_t bytes) const {
    return timing_.read_latency +
           sim::transfer_time(bytes, timing_.read_bw_bytes_per_s);
  }

  /// Completion time of a read of `bytes` beginning at `start`.
  sim::SimTime read_complete_at(sim::SimTime start, std::uint64_t bytes) {
    const sim::SimTime begin = std::max(start, busy_until_);
    const sim::SimTime xfer =
        sim::transfer_time(bytes, timing_.read_bw_bytes_per_s);
    busy_until_ = begin + xfer;
    return begin + timing_.read_latency + xfer;
  }

  [[nodiscard]] std::uint64_t bytes_written() const { return bytes_written_; }
  /// Bytes physically moved through poke/peek — the data-plane copy
  /// traffic the shadow content mode elides (BENCH_dataplane.json).
  [[nodiscard]] std::uint64_t bytes_copied() const { return bytes_copied_; }
  [[nodiscard]] const DeviceTiming& timing() const { return timing_; }

 protected:
  /// Clears the content. poke(), the only content writer, widens the
  /// extent [written_lo_, written_hi_) written since the content was
  /// last all-zero; invariant: every byte outside it is zero. Clearing
  /// just the extent and resetting it therefore leaves the whole device
  /// zero, at a cost proportional to what was written, not to capacity.
  void zero_content() {
    if (written_lo_ < written_hi_) {
      std::memset(content_.get() + written_lo_, 0, written_hi_ - written_lo_);
    }
    written_lo_ = kNoWrites;
    written_hi_ = 0;
  }

  sim::Simulator& sim_;

 private:
  struct FreeDeleter {
    void operator()(std::byte* p) const { std::free(p); }
  };

  static constexpr std::uint64_t kNoWrites = ~std::uint64_t{0};

  std::string name_;
  DeviceTiming timing_;
  std::uint64_t capacity_;
  std::unique_ptr<std::byte[], FreeDeleter> content_;
  std::uint64_t written_lo_ = kNoWrites;  ///< extent written since all-zero
  std::uint64_t written_hi_ = 0;
  sim::SimTime busy_until_ = 0;
  std::uint64_t bytes_written_ = 0;
  mutable std::uint64_t bytes_copied_ = 0;
};

/// Persistent-memory device: its contents *are* the persist domain.
/// Once a DMA or cache write-back lands here it survives crashes (the
/// ADR guarantee covers the iMC write-pending queue; we model the
/// domain boundary at the device interface).
class PmDevice final : public Device {
 public:
  PmDevice(sim::Simulator& sim, std::string name, std::uint64_t capacity,
           DeviceTiming timing)
      : Device(sim, std::move(name), capacity, timing) {}

  [[nodiscard]] bool persistent() const override { return true; }
  void crash() override { /* contents retained by definition */ }

  /// Crash-instant landing of an in-flight DMA write: only the
  /// cache-line-aligned prefix that physically reached the media
  /// before the power failed is applied; the tail of `data` is lost.
  /// Models a torn entry — recovery must detect it by checksum (§4.2).
  void torn_write(std::uint64_t addr, std::span<const std::byte> data,
                  std::uint64_t persisted_bytes) {
    persisted_bytes = std::min<std::uint64_t>(persisted_bytes, data.size());
    persisted_bytes = line_down(persisted_bytes);
    if (persisted_bytes < data.size()) ++torn_writes_;
    if (persisted_bytes > 0) poke(addr, data.first(persisted_bytes));
  }

  /// Number of in-flight writes that landed partially across crashes.
  [[nodiscard]] std::uint64_t torn_writes() const { return torn_writes_; }

  /// Torn-landing bookkeeping for scatter-gather DMA images whose
  /// prefix application is walked segment-by-segment in NodeMemory
  /// (one torn write per in-flight DMA, like torn_write()).
  void count_torn_write() { ++torn_writes_; }

 private:
  std::uint64_t torn_writes_ = 0;
};

/// Volatile DRAM: contents are lost on power failure. A crash zeroes
/// only the extent written since the previous one (zero_content()), so
/// post-crash contents are all-zero at any capacity.
class DramDevice final : public Device {
 public:
  DramDevice(sim::Simulator& sim, std::string name, std::uint64_t capacity,
             DeviceTiming timing)
      : Device(sim, std::move(name), capacity, timing) {}

  [[nodiscard]] bool persistent() const override { return false; }
  void crash() override { zero_content(); }
};

}  // namespace prdma::mem
