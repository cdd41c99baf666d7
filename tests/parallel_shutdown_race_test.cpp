// Regression tests for the drain-before-join shutdown discipline.
//
// The latent race this pins down: a synchronisation primitive that notifies
// its condition variable AFTER unlocking lets a peer observe the handed-over
// state, finish its protocol, and let the owner destroy the primitive while
// the notifier is still inside notify_one() on a freed condition variable.
// The fix is notify-under-lock everywhere plus destructors that take the
// mutex (BoundedQueue) or wait for quiescence before tearing down threads
// (WorkStealingPool). These tests destroy each primitive at the
// EARLIEST protocol-legal moment, thousands of times, with the destruction
// racing the tail of a peer's push/run — under TSan/ASan (`ctest -L
// sanitize`) the old notify-after-unlock ordering fails here.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "parallel/barrier.hpp"
#include "parallel/bounded_queue.hpp"
#include "parallel/executor.hpp"
#include "parallel/work_stealing.hpp"

namespace pcmax {
namespace {

TEST(ShutdownRace, QueueDestroyedRightAfterFinalPop) {
  // Owner pops the last expected item and immediately destroys the queue
  // while the producer may still be inside push()'s notify. The destructor's
  // mutex acquire is what makes this legal; notify-after-unlock makes it a
  // use-after-free.
  constexpr int kRounds = 2000;
  for (int round = 0; round < kRounds; ++round) {
    auto queue = std::make_unique<BoundedQueue<int>>(1);
    std::thread producer([&] { queue->push(round); });
    const std::optional<int> item = queue->pop();
    ASSERT_TRUE(item.has_value());
    ASSERT_EQ(*item, round);
    queue.reset();  // destroy while the producer may still be in push()
    producer.join();
  }
}

TEST(ShutdownRace, QueueDestroyedRightAfterProducerUnblocks) {
  // Mirror image: a producer blocked on a full queue is released by pop()'s
  // not_full notify; the producer then owns the queue's destruction.
  constexpr int kRounds = 1000;
  for (int round = 0; round < kRounds; ++round) {
    auto queue = std::make_unique<BoundedQueue<int>>(1);
    ASSERT_TRUE(queue->push(1));  // fill
    std::atomic<bool> pushed{false};
    std::thread producer([&] {
      ASSERT_TRUE(queue->push(2));  // blocks until the consumer pops
      pushed.store(true);
      queue.reset();  // destroy while the consumer may still be in pop()
    });
    const std::optional<int> item = queue->pop();
    ASSERT_TRUE(item.has_value());
    producer.join();
    ASSERT_TRUE(pushed.load());
  }
}

TEST(ShutdownRace, QueueCloseDrainDestroy) {
  constexpr int kRounds = 500;
  for (int round = 0; round < kRounds; ++round) {
    BoundedQueue<int> queue(4);
    std::thread consumer([&] {
      while (queue.pop().has_value()) {
      }
    });
    for (int i = 0; i < 8; ++i) queue.push(i);
    queue.close();
    consumer.join();
    EXPECT_FALSE(queue.push(99)) << "closed queue must refuse pushes";
    // Queue destroyed here, right after the consumer drained it.
  }
}

TEST(ShutdownRace, WorkStealingPoolDestroyedWithNoEpisodeEverRun) {
  for (int round = 0; round < 300; ++round) {
    WorkStealingPool pool(4);  // construct + destroy: join before any epoch bump
  }
}

TEST(ShutdownRace, WorkStealingPoolDestroyedRightAfterEpisode) {
  // An episode returns the moment its last worker checks out; the
  // destructor must drain (wait for episode_ == nullptr, notify under the
  // lock) before joining — destroy immediately to race that wind-down.
  constexpr int kRounds = 300;
  for (int round = 0; round < kRounds; ++round) {
    const unsigned threads = 2 + static_cast<unsigned>(round % 3);
    std::atomic<std::size_t> covered{0};
    std::size_t expected = 64;
    {
      WorkStealingPool pool(threads);
      if (round % 2 == 0) {
        pool.parallel_for_1d(64, [&](std::size_t begin, std::size_t end,
                                     unsigned) {
          covered.fetch_add(end - begin, std::memory_order_relaxed);
        });
      } else {
        // A team whose members meet at a barrier, so every worker is still
        // inside the episode's tail when the destructor starts draining.
        Barrier barrier(threads);
        pool.run_team([&](unsigned) {
          covered.fetch_add(1, std::memory_order_relaxed);
          barrier.arrive_and_wait();
        });
        expected = threads;
      }
    }  // destructor races the episode wind-down (incl. parking workers)
    ASSERT_EQ(covered.load(), expected);
  }
}

TEST(ShutdownRace, ExecutorsDestroyedRightAfterParallelFor) {
  for (int round = 0; round < 200; ++round) {
    std::atomic<std::size_t> covered{0};
    {
      const std::unique_ptr<Executor> executor = make_executor("workstealing", 3);
      executor->parallel_for_ranges(
          32,
          [&](std::size_t begin, std::size_t end, unsigned) {
            covered.fetch_add(end - begin, std::memory_order_relaxed);
          },
          /*chunk=*/1);
    }
    ASSERT_EQ(covered.load(), 32u);
  }
}

TEST(ShutdownRace, BackToBackTeamsThenDestroy) {
  // Team episodes back to back (each ending in a barrier cycle, so members
  // leave the episode together), then the executor destroyed right after the
  // last one — construct/destroy churn over 1..8 threads.
  for (int round = 0; round < 96; ++round) {
    const unsigned threads = 1 + static_cast<unsigned>(round % 8);
    constexpr int kTeams = 20;
    std::atomic<std::size_t> members{0};
    {
      const std::unique_ptr<Executor> executor = make_executor("workstealing", threads);
      Barrier barrier(threads);
      for (int team = 0; team < kTeams; ++team) {
        executor->run_team([&](unsigned) {
          members.fetch_add(1, std::memory_order_relaxed);
          barrier.arrive_and_wait();
        });
      }
    }  // destructor races the last episode's wind-down
    ASSERT_EQ(members.load(), std::size_t{kTeams} * threads);
  }
}

}  // namespace
}  // namespace pcmax
