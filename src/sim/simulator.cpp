#include "sim/simulator.hpp"

#include <cstdio>
#include <string>

namespace prdma::sim {

std::uint32_t Simulator::acquire_slot() {
  if (free_head_ != kNoSlot) {
    const std::uint32_t s = free_head_;
    free_head_ = slot(s).next_free;
    slot(s).next_free = kNoSlot;
    return s;
  }
  if (slab_size_ == slab_.size() * kSlabChunkSlots) {
    slab_.push_back(std::make_unique<Slot[]>(kSlabChunkSlots));
    ++pool_allocs_;
  }
  return static_cast<std::uint32_t>(slab_size_++);
}

void Simulator::release_slot(std::uint32_t s) {
  slot(s).fn.reset();
  slot(s).next_free = free_head_;
  free_head_ = s;
}

void Simulator::schedule_at(SimTime t, InlineTask fn) {
  const std::uint32_t s = acquire_slot();
  slot(s).fn = std::move(fn);
  push_entry(t, s);
}

void Simulator::push_entry(SimTime t, std::uint32_t slot) {
  if (t < now_) t = now_;  // never schedule into the past
  push_keyed(HeapEntry{t, next_seq_++, slot});
}

void Simulator::push_keyed(HeapEntry entry) {
  if (heap_.size() == heap_.capacity()) ++pool_allocs_;
  heap_.push_back(entry);
  sift_up(heap_.size() - 1);
}

// 4-ary hole-insertion heap: half the levels of a binary heap and one
// entry store per level instead of a swap — both matter when sifting is
// the hot loop. (time, seq) is a total order, so the pop sequence is
// identical for any heap arity; determinism does not depend on layout.

void Simulator::sift_up(std::size_t i) {
  const HeapEntry entry = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!entry.before(heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = entry;
}

void Simulator::sift_down(std::size_t i) {
  const std::size_t n = heap_.size();
  const HeapEntry entry = heap_[i];
  for (;;) {
    const std::size_t first = 4 * i + 1;
    if (first >= n) break;
    // Pull the likely next level in while this one is compared.
    if (4 * first + 1 < n) {
      __builtin_prefetch(static_cast<const void*>(&heap_[4 * first + 1]));
    }
    std::size_t smallest = first;
    const std::size_t last = first + 4 < n ? first + 4 : n;
    for (std::size_t c = first + 1; c < last; ++c) {
      if (heap_[c].before(heap_[smallest])) smallest = c;
    }
    if (!heap_[smallest].before(entry)) break;
    heap_[i] = heap_[smallest];
    i = smallest;
  }
  heap_[i] = entry;
}

Simulator::CrashHookId Simulator::add_crash_hook(std::function<void()> fn) {
  const CrashHookId id = next_crash_hook_++;
  crash_hooks_.push_back(CrashHook{id, std::move(fn)});
  return id;
}

void Simulator::remove_crash_hook(CrashHookId id) {
  std::erase_if(crash_hooks_,
                [id](const CrashHook& h) { return h.id == id; });
}

void Simulator::trigger_crash() {
  ++crashes_triggered_;
  // A hook may register/remove hooks (e.g. a restart re-arming); run
  // over a snapshot so iteration stays well-defined.
  std::vector<std::function<void()>> fns;
  fns.reserve(crash_hooks_.size());
  for (const CrashHook& h : crash_hooks_) fns.push_back(h.fn);
  for (auto& fn : fns) fn();
}

bool Simulator::step() {
  if (heap_.empty()) return false;
  const HeapEntry top = heap_.front();
  // Start pulling the task's slot into cache while the sift below runs;
  // the slab is large enough that this fetch otherwise stalls invoke.
  __builtin_prefetch(static_cast<const void*>(&slot(top.slot)));
  heap_.front() = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0);
  now_ = top.time;
  running_ = top;
  ++executed_;
  // Invoke in place — the chunked slab keeps the slot's address stable
  // even when the callback schedules enough new events to grow the
  // slab. The slot is recycled right after, so steady state holds the
  // high-water mark of pending events plus one.
  slot(top.slot).fn.consume();
  release_slot(top.slot);
  return true;
}

void Simulator::run() {
  while (!stopped_ && step()) {
  }
}

void Simulator::run_until(SimTime t) {
  while (!stopped_ && !heap_.empty() && heap_.front().time <= t) {
    step();
  }
  if (now_ < t && !stopped_) now_ = t;
}

std::string format_time(SimTime t) {
  char buf[48];
  if (t < kMicrosecond) {
    std::snprintf(buf, sizeof buf, "%lluns", static_cast<unsigned long long>(t));
  } else if (t < kMillisecond) {
    std::snprintf(buf, sizeof buf, "%.2fus", to_us(t));
  } else if (t < kSecond) {
    std::snprintf(buf, sizeof buf, "%.2fms", to_ms(t));
  } else {
    std::snprintf(buf, sizeof buf, "%.3fs", to_s(t));
  }
  return buf;
}

}  // namespace prdma::sim
