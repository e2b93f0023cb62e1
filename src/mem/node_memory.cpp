#include "mem/node_memory.hpp"

#include <algorithm>
#include <cassert>

namespace prdma::mem {

namespace {

/// One planned extent of a payload reconstruction.
struct Piece {
  bool shadow;
  std::uint64_t start;
  std::uint64_t len;
  std::uint64_t seed;
  std::uint64_t off;
};

}  // namespace

void NodeMemory::write_bytes_nofire(std::uint64_t addr,
                                    std::span<const std::byte> data,
                                    WritePath path, bool ddio) {
  if (data.empty()) return;
  if (mode_ == ContentMode::kShadow && !shadow_.empty()) {
    // Byte content is now authoritative over this range: drop/trim any
    // shadow extents it overlaps so digest lookups fail closed.
    trim_shadow(addr, data.size());
  }
  if (is_pm(addr)) {
    switch (path) {
      case WritePath::kCpu:
        llc_.write(addr, data);
        break;
      case WritePath::kDma:
        if (ddio) {
          llc_.write(addr, data);
        } else {
          pm_.poke(addr, data);
        }
        break;
      case WritePath::kNtStore:
        pm_.poke(addr, data);
        break;
    }
  } else {
    dram_.poke(addr - kDramBase, data);
  }
}

void NodeMemory::write_shadow_seg(std::uint64_t addr, std::uint64_t len,
                                  std::uint64_t seed, std::uint64_t off,
                                  WritePath path, bool ddio) {
  if (len == 0) return;
  if (is_pm(addr)) {
    switch (path) {
      case WritePath::kCpu:
        llc_.write_shadow(addr, len);
        break;
      case WritePath::kDma:
        if (ddio) {
          llc_.write_shadow(addr, len);
        } else {
          pm_.poke_shadow(addr, len);
        }
        break;
      case WritePath::kNtStore:
        pm_.poke_shadow(addr, len);
        break;
    }
  } else {
    dram_.poke_shadow(addr - kDramBase, len);
  }
  const auto it = shadow_.find(addr);
  if (it != shadow_.end() && it->second.len == len) {
    // Same extent rewritten (the common repeat write to an object):
    // nothing else can overlap it, so replace it in place.
    it->second = ShadowRange{len, seed, off};
    return;
  }
  trim_shadow(addr, len);
  shadow_.insert_or_assign(addr, ShadowRange{len, seed, off});
}

void NodeMemory::trim_shadow(std::uint64_t addr, std::uint64_t len) {
  const std::uint64_t end = addr + len;
  auto it = shadow_.upper_bound(addr);
  if (it != shadow_.begin()) {
    auto prev = std::prev(it);
    if (prev->first + prev->second.len > addr) it = prev;
  }
  while (it != shadow_.end() && it->first < end) {
    const std::uint64_t r_start = it->first;
    const ShadowRange r = it->second;
    const std::uint64_t r_end = r_start + r.len;
    it = shadow_.erase(it);
    if (r_start < addr) {
      // Keep the untouched head of the range.
      shadow_.insert_or_assign(r_start,
                               ShadowRange{addr - r_start, r.seed, r.off});
    }
    if (r_end > end) {
      // Keep the untouched tail (stream offset advances accordingly).
      it = shadow_
               .insert_or_assign(end, ShadowRange{r_end - end, r.seed,
                                                  r.off + (end - r_start)})
               .first;
      ++it;
    }
  }
}

std::uint64_t NodeMemory::write_payload_nofire(std::uint64_t addr,
                                               const PayloadRef& p,
                                               std::uint64_t limit,
                                               WritePath path, bool ddio) {
  const PayloadBuf* b = p.buf();
  if (b == nullptr) return 0;
  const std::uint64_t total = std::min<std::uint64_t>(b->total_len, limit);
  std::uint64_t pos = 0;
  for (const PayloadSeg& seg : p.segs()) {
    if (pos >= total) break;
    const std::uint64_t n = std::min<std::uint64_t>(seg.len, total - pos);
    if (seg.kind == PayloadSeg::Kind::kBytes) {
      write_bytes_nofire(addr + pos, b->seg_bytes(seg).first(n), path, ddio);
    } else {
      write_shadow_seg(addr + pos, n, seg.seed, seg.off, path, ddio);
    }
    pos += n;
  }
  return pos;
}

PayloadRef NodeMemory::read_payload(std::uint64_t addr, std::uint64_t len) {
  if (len == 0) return {};
  if (mode_ == ContentMode::kFull || shadow_.empty()) {
    PayloadRef r = pool_.acquire(len);
    std::byte* dst =
        r.buf()->append_bytes_uninit(static_cast<std::uint32_t>(len));
    cpu_read(addr, {dst, static_cast<std::size_t>(len)});
    return r;
  }

  // Plan the extents: shadow ranges pass through by reference, the
  // gaps between them are byte-copied from the coherent view.
  Piece pieces[PayloadBuf::kMaxSegs];
  std::uint32_t np = 0;
  bool overflow = false;
  std::uint64_t gap_bytes = 0;
  const std::uint64_t end = addr + len;
  std::uint64_t cur = addr;
  auto it = shadow_.upper_bound(cur);
  if (it != shadow_.begin()) {
    auto prev = std::prev(it);
    if (prev->first + prev->second.len > cur) it = prev;
  }
  while (cur < end) {
    if (np == PayloadBuf::kMaxSegs) {
      overflow = true;
      break;
    }
    if (it != shadow_.end() && it->first <= cur &&
        cur < it->first + it->second.len) {
      const std::uint64_t n =
          std::min(end, it->first + it->second.len) - cur;
      pieces[np++] = Piece{true, cur, n, it->second.seed,
                           it->second.off + (cur - it->first)};
      cur += n;
      ++it;
    } else {
      const std::uint64_t next =
          (it == shadow_.end()) ? end : std::min(end, it->first);
      pieces[np++] = Piece{false, cur, next - cur, 0, 0};
      gap_bytes += next - cur;
      cur = next;
    }
  }
  if (overflow) {
    // Too fragmented for one block's descriptor array: fall back to a
    // plain byte image (shadow interiors read as garbage, which only a
    // digest lookup could notice — and those fail closed).
    PayloadRef r = pool_.acquire(len);
    std::byte* dst =
        r.buf()->append_bytes_uninit(static_cast<std::uint32_t>(len));
    cpu_read(addr, {dst, static_cast<std::size_t>(len)});
    return r;
  }

  PayloadRef r = pool_.acquire(gap_bytes);
  PayloadBuf* b = r.buf();
  for (std::uint32_t i = 0; i < np; ++i) {
    const Piece& pc = pieces[i];
    if (pc.shadow) {
      b->append_shadow(static_cast<std::uint32_t>(pc.len), pc.seed, pc.off);
    } else {
      std::byte* dst =
          b->append_bytes_uninit(static_cast<std::uint32_t>(pc.len));
      cpu_read(pc.start, {dst, static_cast<std::size_t>(pc.len)});
    }
  }
  return r;
}

void NodeMemory::dma_torn_write(std::uint64_t addr, const PayloadRef& p,
                                std::uint64_t len,
                                std::uint64_t persisted_bytes) {
  assert(is_pm(addr));
  const PayloadBuf* b = p.buf();
  const std::uint64_t total =
      std::min<std::uint64_t>(b != nullptr ? b->total_len : 0, len);
  const std::uint64_t landed =
      line_down(std::min<std::uint64_t>(persisted_bytes, total));
  if (landed < total) pm_.count_torn_write();
  if (landed == 0 || b == nullptr) return;
  std::uint64_t pos = 0;
  for (const PayloadSeg& seg : p.segs()) {
    if (pos >= landed) break;
    const std::uint64_t n = std::min<std::uint64_t>(seg.len, landed - pos);
    if (seg.kind == PayloadSeg::Kind::kBytes) {
      pm_.poke(addr + pos, b->seg_bytes(seg).first(n));
    } else {
      write_shadow_seg(addr + pos, n, seg.seed, seg.off, WritePath::kNtStore,
                       false);
    }
    pos += n;
  }
}

std::optional<std::uint64_t> NodeMemory::shadow_digest_at(
    std::uint64_t addr, std::uint64_t len) const {
  if (mode_ != ContentMode::kShadow || len == 0) return std::nullopt;
  const auto it = shadow_.find(addr);
  if (it == shadow_.end() || it->second.len < len) return std::nullopt;
  return shadow_digest(it->second.seed, it->second.off, len);
}

}  // namespace prdma::mem
