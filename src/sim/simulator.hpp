#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/inline_function.hpp"
#include "sim/time.hpp"

namespace prdma::sim {

/// Deterministic single-threaded discrete-event simulator.
///
/// Events scheduled for the same timestamp execute in scheduling order
/// (FIFO via a monotonically increasing sequence number), so a run is a
/// pure function of the initial schedule and the RNG seed. This property
/// is load-bearing: every benchmark in bench/ is reproducible bit-for-bit.
///
/// Hot-path layout: callables are move-only InlineTasks (no per-event
/// heap allocation for captures within the inline budget) parked in a
/// slab of recycled slots, while the priority queue orders 24-byte
/// (time, seq, slot) entries. Once the slab and heap vectors reach
/// their high-water marks, steady-state scheduling performs zero
/// allocations — measured by bench/engine_perf and pinned by sim_test.
class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time. Only advances inside run()/step().
  [[nodiscard]] SimTime now() const { return now_; }

  /// Schedules `fn` to run at now() + delay.
  template <typename F>
  void schedule(SimTime delay, F&& fn) {
    schedule_at(now_ + delay, std::forward<F>(fn));
  }

  /// Schedules `fn` to run at absolute time `t` (clamped to now()).
  /// The capture is constructed directly inside a recycled slab slot —
  /// no intermediate InlineTask moves on the hot path.
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InlineTask>>>
  void schedule_at(SimTime t, F&& fn) {
    const std::uint32_t s = acquire_slot();
    slot(s).fn.emplace(std::forward<F>(fn));
    push_entry(t, s);
  }

  /// Overload for a pre-built task (move-assigned into the slot).
  void schedule_at(SimTime t, InlineTask fn);

  /// Takes the sequence number the next schedule() would have used.
  /// A component that keeps its own (time, seq)-sorted queue reserves
  /// each entry's seq when the entry is created and later pushes only
  /// the queue's front with schedule_reserved(), so the heap holds one
  /// entry for the whole queue while every entry that reaches the heap
  /// still runs at the key a plain schedule() would have given it.
  [[nodiscard]] std::uint64_t reserve_seq() { return next_seq_++; }

  /// Schedules `fn` with exactly the key (t, seq), `seq` taken from
  /// reserve_seq(). The key must not precede the running event's key
  /// (it would run out of order); nothing is clamped.
  template <typename F>
  void schedule_reserved(SimTime t, std::uint64_t seq, F&& fn) {
    assert((t >= now_ && !HeapEntry{t, seq, kNoSlot}.before(running_)) &&
           "schedule_reserved() key precedes the running event");
    const std::uint32_t s = acquire_slot();
    slot(s).fn.emplace(std::forward<F>(fn));
    push_keyed(HeapEntry{t, seq, s});
  }

  /// Executes the next pending event, if any. Returns false when idle.
  bool step();

  /// Runs until the event queue drains or stop() is called.
  void run();

  /// Runs until simulated time would exceed `t` (events at exactly `t`
  /// still execute) or the queue drains. Advances now() to `t` even if
  /// the queue drained earlier.
  void run_until(SimTime t);

  /// Makes run()/run_until() return after the current event completes.
  void stop() { stopped_ = true; }

  [[nodiscard]] bool stopped() const { return stopped_; }

  /// Clears the stop flag so the simulation can be resumed.
  void clear_stop() { stopped_ = false; }

  // ---- crash hooks (fault injection) ----
  //
  // A crash hook is a callback the fault machinery registers to model a
  // power failure: the explorer (src/check/) schedules trigger_crash()
  // at an arbitrary simulated nanosecond and every registered hook runs
  // — in registration order — at that exact instant, mid-protocol if
  // need be. Hooks stay registered across crashes (a run may inject
  // several) and are removed explicitly. Registration is rare and the
  // snapshot in trigger_crash() needs copies, so hooks stay
  // std::function rather than InlineTask.

  using CrashHookId = std::uint64_t;

  /// Registers `fn` to run on every trigger_crash(). Returns an id for
  /// remove_crash_hook().
  CrashHookId add_crash_hook(std::function<void()> fn);

  void remove_crash_hook(CrashHookId id);

  /// Fires every registered crash hook now, in registration order.
  void trigger_crash();

  /// Schedules trigger_crash() at absolute simulated time `t` — the
  /// entry point for nanosecond-precise crash schedules.
  void schedule_crash_at(SimTime t) {
    schedule_at(t, [this] { trigger_crash(); });
  }

  /// Number of trigger_crash() invocations since construction.
  [[nodiscard]] std::uint64_t crashes_triggered() const {
    return crashes_triggered_;
  }

  [[nodiscard]] std::size_t crash_hook_count() const {
    return crash_hooks_.size();
  }

  /// Number of events executed since construction.
  [[nodiscard]] std::uint64_t events_executed() const { return executed_; }

  /// Number of events currently pending.
  [[nodiscard]] std::size_t pending() const { return heap_.size(); }

  /// Timestamp of the next pending event. Calling this with
  /// pending() == 0 is a contract violation (asserts in debug builds).
  [[nodiscard]] SimTime next_event_time() const {
    assert(!heap_.empty() && "next_event_time() requires pending() > 0");
    return heap_.front().time;
  }

  /// Times the event-storage vectors (slot slab / heap) had to grow.
  /// Flat after warm-up: the free-list recycles slots, so a steady
  /// workload schedules forever without touching the allocator.
  [[nodiscard]] std::uint64_t pool_allocations() const { return pool_allocs_; }

  /// Event slots currently owned by the slab (high-water mark of
  /// concurrently pending events, plus the one executing).
  [[nodiscard]] std::size_t slab_slots() const { return slab_size_; }

 private:
  static constexpr std::uint32_t kNoSlot = UINT32_MAX;
  /// Slab chunk geometry: fixed-size chunks give every slot a stable
  /// address, so step() can invoke a task in place while the callback
  /// grows the slab underneath it.
  static constexpr std::size_t kSlabChunkShift = 8;
  static constexpr std::size_t kSlabChunkSlots = std::size_t{1}
                                                << kSlabChunkShift;

  /// One recycled event slot. `next_free` threads the free-list when
  /// the slot is vacant.
  struct Slot {
    InlineTask fn;
    std::uint32_t next_free = kNoSlot;
  };

  /// Compact heap entry: ordering data only, so sift operations move
  /// 24 bytes instead of whole events.
  struct HeapEntry {
    SimTime time;
    std::uint64_t seq;
    std::uint32_t slot;

    [[nodiscard]] bool before(const HeapEntry& o) const {
      return time != o.time ? time < o.time : seq < o.seq;
    }
  };

  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t slot);
  /// Links an occupied slot into the queue at time `t` (clamped to now()).
  void push_entry(SimTime t, std::uint32_t slot);
  /// Links an occupied slot into the queue under exactly `entry`'s key.
  void push_keyed(HeapEntry entry);
  void sift_up(std::size_t i);
  void sift_down(std::size_t i);

  [[nodiscard]] Slot& slot(std::uint32_t i) {
    return slab_[i >> kSlabChunkShift][i & (kSlabChunkSlots - 1)];
  }

  struct CrashHook {
    CrashHookId id;
    std::function<void()> fn;
  };

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  bool stopped_ = false;
  CrashHookId next_crash_hook_ = 1;
  std::uint64_t crashes_triggered_ = 0;
  std::uint64_t pool_allocs_ = 0;
  std::vector<CrashHook> crash_hooks_;
  std::vector<std::unique_ptr<Slot[]>> slab_;
  std::size_t slab_size_ = 0;  ///< slots handed out across all chunks
  std::uint32_t free_head_ = kNoSlot;
  /// Key of the event step() last popped (the running one while it runs).
  HeapEntry running_{0, 0, kNoSlot};
  // Hand-rolled 4-ary min-heap: std::priority_queue's const top() blocks
  // moving entries out, and (time, seq) FIFO needs the explicit tie-break.
  // Arity does not affect the pop order — the comparator is total.
  std::vector<HeapEntry> heap_;
};

}  // namespace prdma::sim
