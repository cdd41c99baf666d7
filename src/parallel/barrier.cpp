#include "parallel/barrier.hpp"

#include "obs/metrics.hpp"
#include "util/error.hpp"

namespace pcmax {

namespace {

/// Spin-wait hint: frees the pipeline for a sibling hyperthread.
inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

}  // namespace

Barrier::Barrier(std::size_t participants) : participants_(participants) {
  PCMAX_REQUIRE(participants >= 1, "barrier needs at least one participant");
}

void Barrier::arrive_and_wait() {
  if (participants_ == 1) return;
  // The scoped timer measures arrival-to-release, i.e. how long this thread
  // stalls at the synchronisation point (the last arriver measures ~0).
  const obs::ScopedTimer wait_timer(obs::Timer::kBarrierWait);
  if (obs::Metrics* metrics = obs::current()) {
    metrics->add(0, obs::Counter::kBarrierWaits);
  }
  // This cycle's generation cannot move before this thread arrives, so the
  // load needs no ordering against the increment below.
  const std::uint64_t my_generation = generation_.load(std::memory_order_acquire);
  if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == participants_) {
    // Reset before the release: a thread that sees the new generation and
    // re-enters the next cycle then increments the fresh count.
    arrived_.store(0, std::memory_order_relaxed);
    {
      // Published under the lock so a waiter cannot test the predicate,
      // miss the bump, and then sleep through the notify.
      const std::lock_guard lock(mutex_);
      generation_.store(my_generation + 1, std::memory_order_release);
    }
    cv_.notify_all();
    return;
  }

  const auto released = [&] {
    return generation_.load(std::memory_order_acquire) != my_generation;
  };
  // The clock is read once per 64 probes: a probe is a few nanoseconds, a
  // steady_clock read tens.
  const auto deadline = std::chrono::steady_clock::now() + kSpinBudget;
  for (unsigned probe = 1;; ++probe) {
    if (released()) return;
    cpu_relax();
    if (probe % 64 == 0 && std::chrono::steady_clock::now() >= deadline) break;
  }
  blocked_.fetch_add(1, std::memory_order_relaxed);
  std::unique_lock lock(mutex_);
  cv_.wait(lock, released);
}

}  // namespace pcmax
