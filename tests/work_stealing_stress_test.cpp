// Contention stress for the work-stealing pool, written for the sanitizer
// builds (`ctest -L sanitize` under PCMAX_SANITIZE=thread): steal-heavy
// skewed ranges, repeated short range and team episodes, concurrent external
// callers hitting one pool, cancellation racing mid-range, and
// construct/destroy churn. The assertions are deliberately coarse
// (exact-once coverage, conserved sums) — the point is to give TSan/ASan
// interleavings to chew on, not to re-test the functional contract
// (parallel_work_stealing_test does that).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "parallel/barrier.hpp"
#include "parallel/work_stealing.hpp"
#include "util/deadline.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace pcmax {
namespace {

TEST(WorkStealingStress, RepeatedShortEpisodesOnOnePool) {
  WorkStealingPool pool(4);
  for (int episode = 0; episode < 200; ++episode) {
    const std::size_t n = 1 + static_cast<std::size_t>(episode % 37);
    std::atomic<std::uint64_t> sum{0};
    pool.parallel_for_1d(
        n,
        [&](std::size_t begin, std::size_t end, unsigned) {
          std::uint64_t local = 0;
          for (std::size_t i = begin; i < end; ++i) local += i;
          sum.fetch_add(local, std::memory_order_relaxed);
        },
        /*chunk=*/1);
    ASSERT_EQ(sum.load(), static_cast<std::uint64_t>(n) * (n - 1) / 2);
    // A team episode between range episodes: every member once, with a
    // barrier only a full team can pass.
    Barrier barrier(pool.team_size());
    std::atomic<unsigned> members{0};
    pool.run_team([&](unsigned) {
      members.fetch_add(1, std::memory_order_relaxed);
      barrier.arrive_and_wait();
    });
    ASSERT_EQ(members.load(), pool.team_size());
  }
}

TEST(WorkStealingStress, SkewedRangesForceSliceStealing) {
  WorkStealingPool pool(8);
  Xoshiro256StarStar rng(0x57EA1);
  for (int episode = 0; episode < 30; ++episode) {
    const std::size_t n = 64 + static_cast<std::size_t>(uniform_int(rng, 0, 192));
    const auto heavy = static_cast<std::size_t>(uniform_int(rng, 0, 63));
    std::vector<std::atomic<int>> hits(n);
    pool.parallel_for_1d(
        n,
        [&](std::size_t begin, std::size_t end, unsigned) {
          for (std::size_t i = begin; i < end; ++i) {
            if (i == heavy) {
              volatile std::uint64_t sink = 0;
              for (std::uint64_t k = 0; k < 50000; ++k) sink = sink + k;
            }
            hits[i].fetch_add(1, std::memory_order_relaxed);
          }
        },
        /*chunk=*/1);
    for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(hits[i].load(), 1);
  }
}

TEST(WorkStealingStress, ConcurrentExternalCallersSerialise) {
  // Multiple plain threads calling into ONE pool: run_episode must serialise
  // them (the pool's workers only ever see one episode at a time).
  WorkStealingPool pool(4);
  constexpr int kCallers = 4;
  constexpr int kEpisodesPerCaller = 25;
  std::atomic<std::uint64_t> grand_total{0};
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      for (int e = 0; e < kEpisodesPerCaller; ++e) {
        const std::size_t n = 17 + static_cast<std::size_t>((c * 31 + e) % 40);
        std::atomic<std::uint64_t> local{0};
        pool.parallel_for_1d(n, [&](std::size_t begin, std::size_t end,
                                    unsigned) {
          local.fetch_add(end - begin, std::memory_order_relaxed);
        });
        ASSERT_EQ(local.load(), n);
        grand_total.fetch_add(n, std::memory_order_relaxed);
      }
    });
  }
  for (auto& t : callers) t.join();
  EXPECT_GT(grand_total.load(), 0u);
}

TEST(WorkStealingStress, CancellationRacesMidRange) {
  // One worker requests cancellation while its peers are claiming and
  // stealing slices: every episode ends in CancelledError (or completes, if
  // the cancel lands after the last claim) with the pool intact.
  WorkStealingPool pool(4);
  for (int episode = 0; episode < 50; ++episode) {
    const CancellationToken token = CancellationToken::make();
    std::atomic<int> ran{0};
    try {
      pool.parallel_for_1d(
          4096,
          [&](std::size_t begin, std::size_t end, unsigned) {
            for (std::size_t i = begin; i < end; ++i) {
              const int seen = ran.fetch_add(1, std::memory_order_relaxed);
              if (seen == 20 + episode % 13) token.request_cancel();
            }
          },
          /*chunk=*/1, token);
    } catch (const CancelledError&) {
    }
    ASSERT_GT(ran.load(), 0);
  }
  // The pool survives all of it.
  std::atomic<int> count{0};
  pool.parallel_for_1d(64, [&](std::size_t begin, std::size_t end, unsigned) {
    count.fetch_add(static_cast<int>(end - begin), std::memory_order_relaxed);
  });
  EXPECT_EQ(count.load(), 64);
}

TEST(WorkStealingStress, ErrorsRaceCleanShutdownOfEpisodes) {
  WorkStealingPool pool(4);
  for (int episode = 0; episode < 50; ++episode) {
    EXPECT_THROW(
        pool.parallel_for_1d(
            128,
            [&](std::size_t begin, std::size_t end, unsigned) {
              for (std::size_t i = begin; i < end; ++i) {
                if (i == static_cast<std::size_t>(episode % 128)) {
                  throw ResourceLimitError("stress fault");
                }
              }
            },
            /*chunk=*/1),
        ResourceLimitError);
  }
}

TEST(WorkStealingStress, ConstructRunDestroyChurn) {
  // Pool lifetime churn: build, run one episode, destroy — repeatedly,
  // across thread counts, alternating range and team episodes. Races between
  // the last episode's wind-down and the destructor's drain-before-join show
  // up here under TSan.
  for (int round = 0; round < 40; ++round) {
    const unsigned threads = 1 + static_cast<unsigned>(round % 4);
    WorkStealingPool pool(threads);
    std::atomic<int> count{0};
    if (round % 2 == 0) {
      pool.parallel_for_1d(
          64,
          [&](std::size_t begin, std::size_t end, unsigned) {
            count.fetch_add(static_cast<int>(end - begin),
                            std::memory_order_relaxed);
          },
          /*chunk=*/1);
      ASSERT_EQ(count.load(), 64);
    } else {
      pool.run_team([&](unsigned) { count.fetch_add(1, std::memory_order_relaxed); });
      ASSERT_EQ(count.load(), static_cast<int>(threads));
    }
    // Destructor runs immediately after the episode returns.
  }
}

}  // namespace
}  // namespace pcmax
