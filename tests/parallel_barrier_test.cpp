#include "parallel/barrier.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "util/error.hpp"

namespace pcmax {
namespace {

TEST(Barrier, SingleParticipantNeverBlocks) {
  Barrier barrier(1);
  for (int i = 0; i < 100; ++i) barrier.arrive_and_wait();
  EXPECT_EQ(barrier.participants(), 1u);
  EXPECT_EQ(barrier.blocked_waits(), 0u);
}

TEST(Barrier, RejectsZeroParticipants) {
  EXPECT_THROW(Barrier(0), InvalidArgumentError);
}

TEST(Barrier, SynchronisesPhases) {
  // Each thread increments a phase-local counter; after the barrier every
  // thread must observe the full count of the previous phase. A violation
  // means the barrier released early.
  constexpr unsigned kThreads = 4;
  constexpr int kPhases = 200;
  Barrier barrier(kThreads);
  std::vector<std::atomic<int>> counts(kPhases);
  std::atomic<int> violations{0};

  auto body = [&] {
    for (int phase = 0; phase < kPhases; ++phase) {
      counts[static_cast<std::size_t>(phase)].fetch_add(1);
      barrier.arrive_and_wait();
      if (counts[static_cast<std::size_t>(phase)].load() !=
          static_cast<int>(kThreads)) {
        violations.fetch_add(1);
      }
      barrier.arrive_and_wait();  // keep phases aligned before the next one
    }
  };

  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) threads.emplace_back(body);
  for (auto& t : threads) t.join();
  EXPECT_EQ(violations.load(), 0);
}

TEST(Barrier, IsReusableBackToBack) {
  // Rapid reuse without any work between cycles exercises the generation
  // counter: a fast thread must not consume a slot of the previous cycle.
  constexpr unsigned kThreads = 8;
  Barrier barrier(kThreads);
  std::atomic<long> total{0};

  auto body = [&] {
    for (int i = 0; i < 500; ++i) {
      barrier.arrive_and_wait();
      total.fetch_add(1, std::memory_order_relaxed);
    }
  };
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) threads.emplace_back(body);
  for (auto& t : threads) t.join();
  EXPECT_EQ(total.load(), 500L * kThreads);
}

TEST(Barrier, SpinFallsBackToBlockingUnderOversubscription) {
  // 8 participants on a 4-vCPU host (more threads than cores), 1000 cycles.
  // Every 50th cycle one participant arrives 2 ms late, far beyond the spin
  // budget, so its peers must stop spinning and block; the cycles still all
  // complete in order, and the late arrivals alone cost ~40 ms of sleep.
  constexpr unsigned kThreads = 8;
  constexpr int kCycles = 1000;
  static_assert(std::chrono::milliseconds(2) > Barrier::kSpinBudget);
  Barrier barrier(kThreads);
  std::vector<std::atomic<int>> arrivals(kCycles);
  std::atomic<int> violations{0};

  auto body = [&](unsigned id) {
    for (int cycle = 0; cycle < kCycles; ++cycle) {
      if (cycle % 50 == 0 && static_cast<unsigned>(cycle / 50) % kThreads == id) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
      arrivals[static_cast<std::size_t>(cycle)].fetch_add(1);
      barrier.arrive_and_wait();
      if (arrivals[static_cast<std::size_t>(cycle)].load() !=
          static_cast<int>(kThreads)) {
        violations.fetch_add(1);
      }
    }
  };
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) threads.emplace_back(body, t);
  for (auto& t : threads) t.join();
  EXPECT_EQ(violations.load(), 0);
  EXPECT_GT(barrier.blocked_waits(), 0u);
}

}  // namespace
}  // namespace pcmax
