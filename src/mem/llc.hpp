#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <utility>
#include <vector>

#include "mem/device.hpp"
#include "sim/simulator.hpp"

namespace prdma::mem {

/// Timing/cost parameters of the cache model.
struct LlcParams {
  std::uint64_t capacity_lines = 2048;   ///< DDIO-usable LLC portion (2 ways)
  sim::SimTime clflush_per_line = 10;    ///< clwb streaming rate (~6.4 GB/s)
  sim::SimTime sfence_cost = 250;        ///< trailing fence / drain latency
};

/// Last-level cache front of a persistent-memory device.
///
/// Two producers write through it:
///  * the receiver CPU's stores (always cached), and
///  * the RNIC's DMA when DDIO is enabled (§2.3 of the paper).
///
/// Dirty lines are *volatile*: a crash drops them, and that is exactly
/// why read-after-write fails as a persistence check under DDIO — a
/// coherent read returns the cached line even though PM still holds the
/// stale bytes. clflush() writes lines back into the persist domain.
/// Capacity pressure evicts the oldest dirty line to PM (physically
/// persisting it, but invisibly to any remote observer).
///
/// The model is per 64 B line, but the dirty set is stored as runs of
/// lines (DESIGN.md §7.3), so a store or flush costs one range
/// operation, not one per line.
class Llc {
 public:
  /// Throws std::invalid_argument if `params.capacity_lines` is 0.
  Llc(sim::Simulator& sim, Device& backing, LlcParams params);

  Llc(const Llc&) = delete;
  Llc& operator=(const Llc&) = delete;

  /// Store through the cache: lines become dirty; backing content is
  /// NOT updated until clflush or eviction.
  void write(std::uint64_t addr, std::span<const std::byte> data);

  /// Content-elided store (ContentMode::kShadow payload interiors):
  /// identical line presence / dirtiness / eviction / flush-cost
  /// bookkeeping as write(), but no backing fault-in and no byte
  /// copies. Shadow-only lines also write back content-free.
  void write_shadow(std::uint64_t addr, std::uint64_t len);

  /// Coherent load: dirty lines shadow the backing device (shadow-only
  /// lines read as zeros).
  void read(std::uint64_t addr, std::span<std::byte> out) const;

  /// True if any line overlapping [addr, addr+len) is dirty.
  [[nodiscard]] bool is_dirty(std::uint64_t addr, std::uint64_t len) const;

  /// Writes every dirty line overlapping [addr, addr+len) back to the
  /// backing device. Returns the simulated completion time of the
  /// flush + fence that starts at `start`.
  sim::SimTime clflush(sim::SimTime start, std::uint64_t addr, std::uint64_t len);

  /// Power failure: dirty lines are lost. Counts the casualties.
  void crash();

  [[nodiscard]] std::size_t dirty_lines() const { return dirty_lines_; }
  [[nodiscard]] std::uint64_t evictions() const { return evictions_; }
  [[nodiscard]] std::uint64_t lines_flushed() const { return lines_flushed_; }
  [[nodiscard]] std::uint64_t lines_lost_to_crash() const { return lines_lost_; }

 private:
  struct Run;
  /// A run as stored: (end address, run). Runs are keyed by their end,
  /// so evicting lines from a run's front never re-keys it.
  using Entry = std::pair<const std::uint64_t, Run>;

  /// Dirty lines [start, end): address-contiguous, and consecutive in
  /// the eviction FIFO in address order.
  struct Run {
    std::uint64_t start = 0;
    /// False for lines only ever touched by write_shadow: their
    /// content is meaningless, so write-back skips the byte copy
    /// (accounting is unchanged — see Device::poke_shadow).
    bool has_bytes = false;
    /// Content of a byte run: data[a - base] is the byte at address a
    /// (base <= start; evicting the front leaves a dead prefix).
    std::uint64_t base = 0;
    std::vector<std::byte> data;
    /// Neighbours in the eviction FIFO, which is the list of runs in
    /// FIFO order: every line of `older` is older than every line here.
    Entry* older = nullptr;
    Entry* newer = nullptr;
  };

  using RunMap = std::map<std::uint64_t, Run>;

  /// Turns lines [from, to) of shadow-only run `it` into a zero-filled
  /// byte run, splitting `it` around them; returns the byte run.
  Entry* make_bytes(RunMap::iterator it, std::uint64_t from, std::uint64_t to);
  /// Splits [start, at) off `it` into a new run just older than `it`.
  void split(RunMap::iterator it, std::uint64_t at);
  /// Writes back the FIFO-oldest lines until the capacity holds.
  void evict();
  void rekey(Entry* e, std::uint64_t end);

  // The helpers below run once per store or flush; they are inline so
  // a one-line store + flush costs no more than the per-line model did.

  /// Marks the clean lines [from, to) dirty as the FIFO's newest lines:
  /// extends the newest run when it ends at `from` with the same kind,
  /// else opens a new run before `next`, the first run after `to`. The
  /// caller sizes and fills a byte run's `data`. Does not evict.
  inline Entry* append_lines(RunMap::iterator next, std::uint64_t from,
                             std::uint64_t to, bool has_bytes);
  /// Drops lines [from, to) of `it` (no write-back).
  inline void remove_lines(RunMap::iterator it, std::uint64_t from,
                           std::uint64_t to);
  inline void write_back(const Run& r, std::uint64_t from, std::uint64_t to);
  /// Inserts an unlinked run before `next`, reusing a spare map node
  /// when there is one so the steady-state write->flush cycle performs
  /// no map allocations. A byte run's `data` comes back empty.
  inline Entry* new_run(RunMap::iterator next, std::uint64_t start,
                        std::uint64_t end, bool has_bytes);
  inline void erase_run(RunMap::iterator it);
  /// Keeps a removed node for reuse, within the spare-list bounds.
  inline void recycle(RunMap::node_type nh);
  inline void link_newest(Entry* e);
  inline void unlink(Entry* e);

  sim::Simulator& sim_;
  Device& backing_;
  LlcParams params_;
  RunMap runs_;
  std::vector<RunMap::node_type> spare_nodes_;  // recycled map nodes
  std::uint64_t spare_bytes_ = 0;  // data capacity held by spare nodes
  Entry* oldest_ = nullptr;  // eviction FIFO: front...
  Entry* newest_ = nullptr;  // ...and back
  std::size_t dirty_lines_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t lines_flushed_ = 0;
  std::uint64_t lines_lost_ = 0;
};

}  // namespace prdma::mem
