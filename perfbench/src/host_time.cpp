#include "host_time.hpp"

#include <sys/mman.h>
#include <time.h>

#include <cstdint>
#include <cstring>
#include <functional>
#include <queue>
#include <vector>

namespace perfbench {

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

namespace {

constexpr std::uint32_t kProbeBits = 20;  // 4 MiB probe table
constexpr std::uint32_t kChaseBits = 23;  // 32 MiB pointer-chase table
constexpr std::size_t kCopyBytes = std::size_t{16} << 20;
constexpr std::size_t kCopyBlock = 64 * 1024;
constexpr std::uint32_t kPending = 4096;  // events in the heap
constexpr std::uint32_t kEvents = 35000;
constexpr std::uint32_t kChases = 30000;
constexpr int kCopyPasses = 3;
constexpr std::size_t kFaultBytes = std::size_t{8} << 20;
constexpr std::size_t kPageBytes = 4096;

struct Buffers {
  std::vector<std::uint32_t> probe;
  std::vector<std::uint32_t> chase;
  std::vector<char> src;
  std::vector<char> dst;
};

std::vector<std::uint32_t> random_words(std::uint32_t bits,
                                        std::uint64_t seed) {
  std::vector<std::uint32_t> v(std::size_t{1} << bits);
  std::uint64_t x = seed;
  for (std::uint32_t& e : v) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    e = static_cast<std::uint32_t>(x >> 11);
  }
  return v;
}

Buffers& buffers() {
  static Buffers b{random_words(kProbeBits, 0x9e3779b97f4a7c15ull),
                         random_words(kChaseBits, 0x2545f4914f6cdd1dull),
                         std::vector<char>(kCopyBytes, 1),
                         std::vector<char>(kCopyBytes, 2)};
  return b;
}

volatile std::uint64_t g_sink = 0;

/// Engine-shaped work: pop the earliest timestamp, probe a table,
/// allocate and free a small object, push a later timestamp.
std::uint64_t event_loop(const std::vector<std::uint32_t>& probe) {
  constexpr std::uint32_t mask = (1u << kProbeBits) - 1;
  std::priority_queue<std::uint64_t, std::vector<std::uint64_t>,
                      std::greater<>>
      heap;
  for (std::uint32_t i = 0; i < kPending; ++i) heap.push(probe[i] & 0xffff);
  std::uint64_t acc = 0;
  for (std::uint32_t k = 0; k < kEvents; ++k) {
    const std::uint64_t now = heap.top();
    heap.pop();
    const std::uint32_t r =
        probe[(static_cast<std::uint32_t>(now) ^ k * 40503u) & mask];
    auto* obj = new std::uint64_t[4]{now, r, k, acc};
    acc += obj[r & 3] * 0x9e3779b1u;
    delete[] obj;
    heap.push(now + 1 + (r & 1023));
  }
  return acc;
}

/// Dependent loads across a table larger than L2 and the TLB's reach.
std::uint64_t chase(const std::vector<std::uint32_t>& table) {
  constexpr std::uint32_t mask = (1u << kChaseBits) - 1;
  std::uint32_t i = 0;
  std::uint64_t acc = 0;
  for (std::uint32_t k = 0; k < kChases; ++k) {
    i = table[(i ^ k) & mask];
    acc += i;
  }
  return acc;
}

/// 64 KiB block copies, the size of p2p_large's objects.
std::uint64_t copy_blocks(const std::vector<char>& src,
                          std::vector<char>& dst) {
  for (int pass = 0; pass < kCopyPasses; ++pass) {
    for (std::size_t off = 0; off < kCopyBytes; off += kCopyBlock) {
      const std::size_t from = (off * 7 + pass * kCopyBlock) % kCopyBytes;
      std::memcpy(dst.data() + off, src.data() + from, kCopyBlock);
    }
  }
  return static_cast<unsigned char>(dst[kCopyBytes / 3]);
}

/// First-touch page faults on fresh anonymous memory, which the crash
/// explorers' per-schedule clusters spend most of their time in.
std::uint64_t fault_pages() {
  void* p = mmap(nullptr, kFaultBytes, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) return 0;
  auto* bytes = static_cast<volatile char*>(p);
  for (std::size_t off = 0; off < kFaultBytes; off += kPageBytes) {
    bytes[off] = static_cast<char>(off >> 12);
  }
  const std::uint64_t acc = static_cast<unsigned char>(bytes[kPageBytes]);
  munmap(p, kFaultBytes);
  return acc;
}

}  // namespace

std::size_t reference_kernel_bytes() {
  const Buffers& b = buffers();
  return (b.probe.size() + b.chase.size()) * sizeof(std::uint32_t) +
         b.src.size() + b.dst.size();
}

double reference_kernel_seconds() {
  Buffers& b = buffers();
  const double t0 = process_cpu_seconds();
  std::uint64_t acc = event_loop(b.probe);
  acc += chase(b.chase);
  acc += copy_blocks(b.src, b.dst);
  acc += fault_pages();
  g_sink = g_sink + acc;
  return process_cpu_seconds() - t0;
}

}  // namespace perfbench
