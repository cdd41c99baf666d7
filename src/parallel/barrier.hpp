// A reusable generation barrier for SPMD-style parallel algorithms.
//
// The level-synchronised DP sweep (paper Algorithm 3) alternates compute
// phases with synchronisation points; its team of threads meets at this
// barrier between anti-diagonal levels instead of forking and joining a
// parallel region per level.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>

namespace pcmax {

/// Cyclic barrier that spins for a bounded time, then blocks.
///
/// `arrive_and_wait` returns once `participants` threads have arrived at the
/// current cycle. An early arriver first spins on the cycle's generation for
/// up to kSpinBudget (the common case on a dedicated core: the level's last
/// thread is microseconds behind, and a wake-up from a blocked wait costs
/// more than that), then blocks on a condition variable, so oversubscribed
/// threads stop burning the cores their laggards need. Generation counting
/// makes the barrier safe for back-to-back reuse (a fast thread re-entering
/// the next cycle cannot steal a slot from the current one).
class Barrier {
 public:
  /// Spin phase of an early arrival before it blocks. Measured on a 4-vCPU
  /// x86-64 host (Release, back-to-back cycles): a condition-variable
  /// wake-up costs 12-17 us, a cycle of the blocking-only barrier 6-9 us at
  /// 2 participants and 12-13 us at 4, while this barrier cycles in
  /// 0.4-0.5 us at 2 and ~1 us at 4, blocking in under 0.5% of arrivals.
  /// Spinning for about one wake-up's cost bounds the waste at 2x the
  /// blocking cost (the classic spin-then-block argument).
  static constexpr std::chrono::microseconds kSpinBudget{20};

  /// Creates a barrier for `participants` threads (must be >= 1).
  explicit Barrier(std::size_t participants);

  Barrier(const Barrier&) = delete;
  Barrier& operator=(const Barrier&) = delete;

  /// Waits until all participants have arrived at this cycle. A barrier of
  /// one participant returns at once.
  void arrive_and_wait();

  /// Number of participating threads.
  [[nodiscard]] std::size_t participants() const { return participants_; }

  /// Arrivals that outlasted the spin phase and blocked, over the barrier's
  /// lifetime.
  [[nodiscard]] std::uint64_t blocked_waits() const {
    return blocked_.load(std::memory_order_relaxed);
  }

 private:
  const std::size_t participants_;
  // Arrivals write arrived_ while early arrivers poll generation_: separate
  // cache lines keep each arrival from invalidating the spinners' line.
  alignas(64) std::atomic<std::size_t> arrived_{0};
  alignas(64) std::atomic<std::uint64_t> generation_{0};
  std::atomic<std::uint64_t> blocked_{0};
  std::mutex mutex_;
  std::condition_variable cv_;
};

}  // namespace pcmax
