#pragma once

#include <cstdint>

namespace perfbench {

/// Counts every global operator new (all threads) while enabled. The
/// replacement operators live in alloc_counter.cpp and are linked into
/// the benchmark binary only.
void set_alloc_counting(bool on);
[[nodiscard]] std::uint64_t allocations();

}  // namespace perfbench
