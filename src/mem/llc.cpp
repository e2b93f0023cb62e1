#include "mem/llc.hpp"

#include <algorithm>
#include <stdexcept>

namespace prdma::mem {

namespace {

/// Spare map nodes kept for reuse, and the byte-buffer capacity they
/// may hold between them (beyond it, recycled buffers are freed).
constexpr std::size_t kMaxSpareNodes = 256;
constexpr std::uint64_t kMaxSpareBytes = 256 * 1024;

}  // namespace

Llc::Llc(sim::Simulator& sim, Device& backing, LlcParams params)
    : sim_(sim), backing_(backing), params_(params) {
  if (params_.capacity_lines == 0) {
    throw std::invalid_argument("LlcParams::capacity_lines must be >= 1");
  }
}

// ---- per-store / per-flush helpers (inline, see llc.hpp) ----

inline void Llc::link_newest(Entry* e) {
  e->second.older = newest_;
  e->second.newer = nullptr;
  (newest_ != nullptr ? newest_->second.newer : oldest_) = e;
  newest_ = e;
}

inline void Llc::unlink(Entry* e) {
  Run& r = e->second;
  (r.older != nullptr ? r.older->second.newer : oldest_) = r.newer;
  (r.newer != nullptr ? r.newer->second.older : newest_) = r.older;
}

inline Llc::Entry* Llc::new_run(RunMap::iterator next, std::uint64_t start,
                                std::uint64_t end, bool has_bytes) {
  Entry* e = nullptr;
  if (!spare_nodes_.empty()) {
    RunMap::node_type& nh = spare_nodes_.back();
    spare_bytes_ -= nh.mapped().data.capacity();
    nh.key() = end;
    e = &*runs_.insert(next, std::move(nh));
    spare_nodes_.pop_back();
  } else {
    e = &*runs_.try_emplace(next, end);
  }
  Run& r = e->second;
  r.start = start;
  r.has_bytes = has_bytes;
  r.base = start;
  r.data.clear();
  r.older = nullptr;
  r.newer = nullptr;
  return e;
}

inline void Llc::erase_run(RunMap::iterator it) {
  unlink(&*it);
  recycle(runs_.extract(it));
}

inline void Llc::recycle(RunMap::node_type nh) {
  if (spare_nodes_.size() >= kMaxSpareNodes) return;
  std::vector<std::byte>& data = nh.mapped().data;
  if (spare_bytes_ + data.capacity() > kMaxSpareBytes) {
    std::vector<std::byte>().swap(data);
  }
  spare_bytes_ += data.capacity();
  spare_nodes_.push_back(std::move(nh));
}

inline Llc::Entry* Llc::append_lines(RunMap::iterator next,
                                     std::uint64_t from, std::uint64_t to,
                                     bool has_bytes) {
  dirty_lines_ += (to - from) / kCacheLine;
  Entry* e = newest_;
  if (e != nullptr && e->first == from && e->second.has_bytes == has_bytes) {
    rekey(e, to);
  } else {
    e = new_run(next, from, to, has_bytes);
    link_newest(e);
  }
  return e;
}

inline void Llc::remove_lines(RunMap::iterator it, std::uint64_t from,
                              std::uint64_t to) {
  Entry* e = &*it;
  Run& r = e->second;
  if (from == r.start) {
    if (to == e->first) {
      erase_run(it);
    } else {
      r.start = to;
    }
  } else if (to == e->first) {
    rekey(e, from);
  } else {
    split(it, from);
    r.start = to;
  }
}

inline void Llc::write_back(const Run& r, std::uint64_t from,
                            std::uint64_t to) {
  if (r.has_bytes) {
    backing_.poke(from, std::span(r.data).subspan(from - r.base, to - from));
  } else {
    backing_.poke_shadow(from, to - from);
  }
}

// ---- public API ----

void Llc::write(std::uint64_t addr, std::span<const std::byte> data) {
  if (data.empty()) return;
  const std::uint64_t end = addr + data.size();
  // Copies the stored bytes that fall in lines [from, to) into `r`.
  const auto store = [&](Run& r, std::uint64_t from, std::uint64_t to) {
    const std::uint64_t lo = std::max(from, addr);
    const std::uint64_t hi = std::min(to, end);
    std::copy_n(data.begin() + static_cast<std::ptrdiff_t>(lo - addr), hi - lo,
                r.data.begin() + static_cast<std::ptrdiff_t>(lo - r.base));
  };
  const std::uint64_t last = line_up(end);
  std::uint64_t la = line_down(addr);
  while (la < last) {
    const auto it = runs_.upper_bound(la);
    if (it == runs_.end() || it->second.start > la) {
      // Clean lines up to the next run: fault them in, store, then
      // evict. Eviction may write back lines further ahead in this
      // write, so the state is read again for the next segment.
      const std::uint64_t to =
          it == runs_.end() ? last : std::min(last, it->second.start);
      Run& r = append_lines(it, la, to, /*has_bytes=*/true)->second;
      if (r.start - r.base > r.data.size() / 2) {
        // Drop the dead prefix before it outgrows the live lines.
        const auto dead = static_cast<std::ptrdiff_t>(r.start - r.base);
        r.data.erase(r.data.begin(), r.data.begin() + dead);
        r.base = r.start;
      }
      r.data.resize(to - r.base);
      backing_.peek(la, std::span(r.data).subspan(la - r.base, to - la));
      store(r, la, to);
      if (dirty_lines_ > params_.capacity_lines) evict();
      la = to;
    } else {
      // Already dirty: no fill, and no FIFO refresh.
      const std::uint64_t to = std::min(last, it->first);
      Entry* e = &*it;
      if (!e->second.has_bytes) e = make_bytes(it, la, to);
      store(e->second, la, to);
      la = to;
    }
  }
}

void Llc::write_shadow(std::uint64_t addr, std::uint64_t len) {
  const std::uint64_t last = line_up(addr + len);
  std::uint64_t la = line_down(addr);
  while (la < last) {
    const auto it = runs_.upper_bound(la);
    if (it == runs_.end() || it->second.start > la) {
      const std::uint64_t to =
          it == runs_.end() ? last : std::min(last, it->second.start);
      (void)append_lines(it, la, to, /*has_bytes=*/false);
      if (dirty_lines_ > params_.capacity_lines) evict();
      la = to;
    } else {
      la = std::min(last, it->first);
    }
  }
}

void Llc::read(std::uint64_t addr, std::span<std::byte> out) const {
  backing_.peek(addr, out);  // baseline from PM
  // Overlay any dirty lines (coherent view).
  const std::uint64_t end = addr + out.size();
  for (auto it = runs_.upper_bound(addr);
       it != runs_.end() && it->second.start < end; ++it) {
    const Run& r = it->second;
    const std::uint64_t lo = std::max(r.start, addr);
    const std::uint64_t hi = std::min(it->first, end);
    const auto dst = out.begin() + static_cast<std::ptrdiff_t>(lo - addr);
    if (r.has_bytes) {
      std::copy_n(r.data.begin() + static_cast<std::ptrdiff_t>(lo - r.base),
                  hi - lo, dst);
    } else {
      std::fill_n(dst, hi - lo, std::byte{0});
    }
  }
}

bool Llc::is_dirty(std::uint64_t addr, std::uint64_t len) const {
  const std::uint64_t first = line_down(addr);
  const std::uint64_t last = line_up(addr + len);
  const auto it = runs_.upper_bound(first);
  return first < last && it != runs_.end() && it->second.start < last;
}

sim::SimTime Llc::clflush(sim::SimTime start, std::uint64_t addr,
                          std::uint64_t len) {
  // clwb-style streaming flush: per-line issue cost, with the media
  // writes pipelined — one bandwidth charge for the whole range, the
  // trailing fence waits for the last write-back to land.
  const std::uint64_t first = line_down(addr);
  const std::uint64_t last = line_up(addr + len);
  std::uint64_t flushed = 0;
  auto it = runs_.upper_bound(first);
  while (first < last && it != runs_.end() && it->second.start < last) {
    const auto cur = it;
    const std::uint64_t lo = std::max(cur->second.start, first);
    const std::uint64_t hi = std::min(cur->first, last);
    // Step past `cur` before changing it; removing lines from `cur`
    // leaves the later runs in place.
    if (hi < last) ++it;
    write_back(cur->second, lo, hi);
    remove_lines(cur, lo, hi);
    flushed += (hi - lo) / kCacheLine;
    if (hi == last) break;
  }
  dirty_lines_ -= flushed;
  lines_flushed_ += flushed;
  sim::SimTime t = start + flushed * params_.clflush_per_line;
  if (flushed > 0) {
    t = std::max(t, backing_.write_complete_at(start, flushed * kCacheLine));
  }
  return t + params_.sfence_cost;
}

void Llc::crash() {
  lines_lost_ += dirty_lines_;
  dirty_lines_ = 0;
  while (!runs_.empty()) erase_run(runs_.begin());
}

// ---- run surgery and eviction ----

Llc::Entry* Llc::make_bytes(RunMap::iterator it, std::uint64_t from,
                            std::uint64_t to) {
  if (from > it->second.start) split(it, from);
  if (to < it->first) split(it, to);
  // The lines [from, to) now form the run just older than `it`, or `it`.
  Entry* mid = it->second.start == from ? &*it : it->second.older;
  Run& r = mid->second;
  r.has_bytes = true;
  r.base = from;
  r.data.assign(to - from, std::byte{0});  // not filled from PM
  return mid;
}

void Llc::split(RunMap::iterator it, std::uint64_t at) {
  Entry* e = &*it;
  Run& r = e->second;
  Entry* left = new_run(it, r.start, at, r.has_bytes);
  if (r.has_bytes) {
    const auto src =
        r.data.begin() + static_cast<std::ptrdiff_t>(r.start - r.base);
    left->second.data.assign(src,
                             src + static_cast<std::ptrdiff_t>(at - r.start));
  }
  r.start = at;
  // `left` takes `e`'s place in the FIFO, just before `e`.
  Run& l = left->second;
  l.older = r.older;
  l.newer = e;
  (r.older != nullptr ? r.older->second.newer : oldest_) = left;
  r.older = left;
}

void Llc::rekey(Entry* e, std::uint64_t end) {
  // The node keeps its address, so FIFO links to it stay valid.
  auto nh = runs_.extract(e->first);
  nh.key() = end;
  runs_.insert(std::move(nh));
}

void Llc::evict() {
  while (dirty_lines_ > params_.capacity_lines) {
    Entry* e = oldest_;
    Run& r = e->second;
    const std::uint64_t n =
        std::min<std::uint64_t>((e->first - r.start) / kCacheLine,
                                dirty_lines_ - params_.capacity_lines);
    const std::uint64_t to = r.start + n * kCacheLine;
    write_back(r, r.start, to);
    dirty_lines_ -= n;
    evictions_ += n;
    if (to == e->first) {
      erase_run(runs_.find(e->first));
    } else {
      r.start = to;
    }
  }
}

}  // namespace prdma::mem
