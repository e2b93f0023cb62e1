#pragma once

#include <cstddef>

namespace perfbench {

/// CPU time consumed by all threads of this process, in seconds. Time a
/// thread spends preempted or blocked, or that the hypervisor steals
/// from its vCPU, does not count. The benchmark's threads other than the
/// one doing the work only block (the watchdog, a one-thread engine's
/// caller), so with one engine thread this is the work's own CPU time.
[[nodiscard]] double process_cpu_seconds();

/// Runs the reference kernel once and returns its CPU time.
///
/// The kernel is fixed work in four parts, each shaped like one kind of
/// work the simulator does: an event loop (binary heap of timestamps,
/// random probes into a 4 MiB table, a small heap allocation per event),
/// dependent loads across a 32 MiB table, 64 KiB block copies, and
/// first-touch page faults on 8 MiB of fresh memory. It uses nothing
/// from src/, so its cost depends only on how fast the host
/// runs at the moment, including how much its caches and memory are
/// shared with other tenants. The benchmark times it between its own
/// units and divides its host-time metrics by the host's speed relative
/// to kReferenceKernelSeconds.
[[nodiscard]] double reference_kernel_seconds();

/// Bytes of the kernel's buffers. They are allocated and touched by the
/// first reference_kernel_seconds() call and stay resident until exit.
[[nodiscard]] std::size_t reference_kernel_bytes();

/// The reference kernel's fastest CPU time on the machine the
/// benchmark's bounds were set on (a 4-vCPU Xeon VM at 2.1 GHz, Release
/// build, gcc 12.2). Host-time metrics are reported in seconds of that
/// machine.
inline constexpr double kReferenceKernelSeconds = 0.018;

}  // namespace perfbench
