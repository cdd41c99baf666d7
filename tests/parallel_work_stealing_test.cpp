// Functional tests of the work-stealing pool: its range and team episodes
// (coverage, nesting, cancellation, error propagation, guaranteed slice
// steal, the deterministic "pool.steal" fault site), and the
// WorkStealingExecutor adapter. The sanitize-labelled
// work_stealing_stress_test hammers the same machinery under contention;
// this file pins the functional contract.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "parallel/barrier.hpp"
#include "parallel/executor.hpp"
#include "parallel/work_stealing.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"

namespace pcmax {
namespace {

TEST(WorkStealingPool, RejectsZeroThreads) {
  EXPECT_THROW(WorkStealingPool(0), InvalidArgumentError);
}

TEST(WorkStealingPool, RangeCoversEveryIndexExactlyOnce) {
  // Every claim size: 0 (automatic), single iterations, and a fixed chunk.
  // No slice is ever empty, so an empty range makes no body call at all.
  for (const unsigned threads : {1u, 2u, 4u}) {
    WorkStealingPool pool(threads);
    EXPECT_EQ(pool.size(), threads);
    for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{5},
                                std::size_t{64}, std::size_t{1000}}) {
      for (const std::size_t chunk : {std::size_t{0}, std::size_t{1},
                                      std::size_t{7}}) {
        std::vector<std::atomic<int>> hits(n);
        pool.parallel_for_1d(
            n,
            [&](std::size_t begin, std::size_t end, unsigned worker) {
              ASSERT_LT(worker, threads);
              ASSERT_LT(begin, end);
              ASSERT_LE(end, n);
              for (std::size_t i = begin; i < end; ++i) {
                hits[i].fetch_add(1, std::memory_order_relaxed);
              }
            },
            chunk);
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(hits[i].load(), 1)
              << "threads " << threads << " n " << n << " chunk " << chunk
              << " index " << i;
        }
      }
    }
  }
}

TEST(WorkStealingPool, UnbalancedRangeStillCoversEverything) {
  // The first shard gets all the heavy items: thieves must drain the rest.
  WorkStealingPool pool(4);
  constexpr std::size_t kN = 256;
  std::vector<std::atomic<int>> hits(kN);
  pool.parallel_for_1d(
      kN,
      [&](std::size_t begin, std::size_t end, unsigned) {
        for (std::size_t i = begin; i < end; ++i) {
          if (i < 8) {
            // Busy work instead of sleep: keeps the imbalance real under
            // a single hardware thread too.
            volatile std::uint64_t sink = 0;
            for (std::uint64_t k = 0; k < 20000; ++k) sink = sink + k;
          }
          hits[i].fetch_add(1, std::memory_order_relaxed);
        }
      },
      /*chunk=*/1);
  for (std::size_t i = 0; i < kN; ++i) ASSERT_EQ(hits[i].load(), 1) << i;
}

TEST(WorkStealingPool, NestedParallelForRunsInline) {
  WorkStealingPool pool(2);
  std::atomic<std::uint64_t> inner_total{0};
  pool.parallel_for_1d(4, [&](std::size_t begin, std::size_t end,
                              unsigned outer_worker) {
    for (std::size_t i = begin; i < end; ++i) {
      // A nested call from a worker body must execute inline on this worker
      // (a blocking episode would self-deadlock on the episode lock).
      pool.parallel_for_1d(10, [&](std::size_t ib, std::size_t ie,
                                   unsigned inner_worker) {
        EXPECT_EQ(inner_worker, outer_worker);
        inner_total.fetch_add(ie - ib, std::memory_order_relaxed);
      });
    }
  });
  EXPECT_EQ(inner_total.load(), 40u);

  // Nested into a *different* pool: still inline, reported as worker 0.
  WorkStealingPool other(2);
  pool.parallel_for_1d(1, [&](std::size_t, std::size_t, unsigned) {
    other.parallel_for_1d(3, [&](std::size_t ib, std::size_t ie,
                                 unsigned inner_worker) {
      EXPECT_EQ(inner_worker, 0u);
      inner_total.fetch_add(ie - ib, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(inner_total.load(), 43u);
}

TEST(WorkStealingPool, RangeBodyExceptionPropagatesAndPoolSurvives) {
  WorkStealingPool pool(3);
  EXPECT_THROW(
      pool.parallel_for_1d(
          100,
          [&](std::size_t begin, std::size_t end, unsigned) {
            for (std::size_t i = begin; i < end; ++i) {
              if (i == 57) throw ResourceLimitError("boom at 57");
            }
          },
          /*chunk=*/1),
      ResourceLimitError);
  // The pool must be reusable after an aborted episode.
  std::atomic<int> count{0};
  pool.parallel_for_1d(32, [&](std::size_t begin, std::size_t end, unsigned) {
    count.fetch_add(static_cast<int>(end - begin), std::memory_order_relaxed);
  });
  EXPECT_EQ(count.load(), 32);
}

TEST(WorkStealingPool, RangeCancellationIsAllOrNothing) {
  WorkStealingPool pool(2);
  const CancellationToken token = CancellationToken::make();
  token.request_cancel();
  EXPECT_THROW(pool.parallel_for_1d(
                   1000, [](std::size_t, std::size_t, unsigned) {},
                   /*chunk=*/1, token),
               CancelledError);
}

/// A 2-worker range of four single-item slices whose slice 0 spins until
/// `released` holds: shard 0 is {0, 1} and shard 1 is {2, 3}. Whichever
/// worker claims slice 0 spins, so slice 1 (or slice 0 itself, if worker 1
/// took it first) can only run on the other worker by a steal from shard 0.
void run_spinning_range(WorkStealingPool& pool,
                        const std::function<bool()>& released,
                        const std::function<void(std::size_t, unsigned)>& ran) {
  pool.parallel_for_1d(
      4,
      [&](std::size_t begin, std::size_t end, unsigned worker) {
        for (std::size_t i = begin; i < end; ++i) {
          if (i == 0) {
            const auto deadline =
                std::chrono::steady_clock::now() + std::chrono::seconds(30);
            while (!released() && std::chrono::steady_clock::now() < deadline) {
              std::this_thread::yield();
            }
          }
          ran(i, worker);
        }
      },
      /*chunk=*/1);
}

TEST(WorkStealingPool, StealHandsOffTaskWhileOwnerIsBusy) {
  // Slice 0 spins until slice 1 has run: the episode can only finish
  // promptly through a steal hand-off.
  WorkStealingPool pool(2);
  obs::Metrics metrics(2);
  std::vector<std::atomic<unsigned>> worker_of(4);
  for (auto& w : worker_of) w.store(99);
  {
    const obs::MetricsScope scope(metrics);
    run_spinning_range(
        pool, [&] { return worker_of[1].load(std::memory_order_acquire) != 99; },
        [&](std::size_t i, unsigned worker) {
          worker_of[i].store(worker, std::memory_order_release);
        });
  }
  for (std::size_t i = 0; i < 4; ++i) ASSERT_NE(worker_of[i].load(), 99u) << i;
  EXPECT_NE(worker_of[0].load(), worker_of[1].load())
      << "slices 0 and 1 must have run on different workers";
  if constexpr (obs::kMetricsEnabled) {
    EXPECT_GE(metrics.counter_total(obs::Counter::kPoolSteals), 1u);
  }
}

TEST(WorkStealingPool, StealFaultSiteAbortsEpisodeDeterministically) {
  // Same guaranteed-steal construction with the "pool.steal" site armed to
  // throw on its first hit: the first steal (which MUST happen for the
  // episode to finish while slice 0 spins) injects the fault, and the
  // episode aborts all-or-nothing with the typed error.
  WorkStealingPool pool(2);
  FaultInjector injector("pool.steal", 1, FaultInjector::Action::kThrow);
  std::atomic<int> ran{0};
  {
    const FaultScope scope(injector);
    EXPECT_THROW(run_spinning_range(
                     pool, [&] { return injector.fired(); },
                     [&](std::size_t, unsigned) { ran.fetch_add(1); }),
                 ResourceLimitError);
  }
  EXPECT_TRUE(injector.fired());
  EXPECT_LT(ran.load(), 4) << "the faulted steal must drop its slice";
  // The pool survives the aborted episode.
  std::atomic<int> count{0};
  pool.parallel_for_1d(8, [&](std::size_t begin, std::size_t end, unsigned) {
    count.fetch_add(static_cast<int>(end - begin));
  });
  EXPECT_EQ(count.load(), 8);
}

TEST(WorkStealingPool, TeamRunsEveryMemberOnceAllAtOnce) {
  // A team is its own episode kind: members never claim range slices, so a
  // Barrier of the pool's size inside the body completes, and each id runs
  // exactly once on its own thread — back to back, with range episodes in
  // between.
  constexpr unsigned kThreads = 4;
  WorkStealingPool pool(kThreads);
  EXPECT_EQ(pool.team_size(), kThreads);
  for (int round = 0; round < 20; ++round) {
    Barrier barrier(kThreads);
    std::vector<std::atomic<int>> runs(kThreads);
    std::vector<std::thread::id> ids(kThreads);
    pool.run_team([&](unsigned worker) {
      runs[worker].fetch_add(1, std::memory_order_relaxed);
      ids[worker] = std::this_thread::get_id();
      barrier.arrive_and_wait();
    });
    for (unsigned w = 0; w < kThreads; ++w) ASSERT_EQ(runs[w].load(), 1) << w;
    for (unsigned w = 1; w < kThreads; ++w) {
      for (unsigned v = 0; v < w; ++v) ASSERT_NE(ids[w], ids[v]);
    }
    std::atomic<int> covered{0};
    pool.parallel_for_1d(64, [&](std::size_t begin, std::size_t end, unsigned) {
      covered.fetch_add(static_cast<int>(end - begin), std::memory_order_relaxed);
    });
    ASSERT_EQ(covered.load(), 64);
  }
}

TEST(WorkStealingPool, TeamExceptionWaitsForPeersAndPoolSurvives) {
  WorkStealingPool pool(3);
  std::atomic<int> finished{0};
  EXPECT_THROW(pool.run_team([&](unsigned worker) {
    if (worker == 1) throw ResourceLimitError("member 1 failed");
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    finished.fetch_add(1, std::memory_order_relaxed);
  }),
               ResourceLimitError);
  EXPECT_EQ(finished.load(), 2);  // both peers returned before the rethrow
  std::atomic<int> ran{0};
  pool.run_team([&](unsigned) { ran.fetch_add(1, std::memory_order_relaxed); });
  EXPECT_EQ(ran.load(), 3);
}

TEST(WorkStealingPool, NestedTeamRunsInlineAsATeamOfOne) {
  WorkStealingPool pool(2);
  WorkStealingPool other(2);
  std::atomic<int> inner{0};
  std::atomic<int> bad{0};
  // From a range body and from a team member, into the same pool and into
  // another one: always body(0) on the calling thread.
  pool.parallel_for_1d(2, [&](std::size_t, std::size_t, unsigned) {
    if (pool.team_size() != 1 || other.team_size() != 1) bad.fetch_add(1);
    pool.run_team([&](unsigned w) { inner.fetch_add(w == 0 ? 1 : 100); });
  }, /*chunk=*/1);
  pool.run_team([&](unsigned) {
    const std::thread::id outer = std::this_thread::get_id();
    other.run_team([&](unsigned w) {
      if (w != 0 || std::this_thread::get_id() != outer) bad.fetch_add(1);
      inner.fetch_add(1);
    });
  });
  EXPECT_EQ(inner.load(), 4);
  EXPECT_EQ(bad.load(), 0);
}

TEST(WorkStealingExecutor, AdaptsThePoolBehindTheExecutorInterface) {
  WorkStealingExecutor executor(3);
  // The default cancel argument lives on the base declaration.
  Executor& base = executor;
  EXPECT_EQ(executor.concurrency(), 3u);
  EXPECT_EQ(executor.name(), "workstealing");
  for (const std::size_t chunk : {std::size_t{0}, std::size_t{1}, std::size_t{4}}) {
    std::vector<std::atomic<int>> hits(257);
    base.parallel_for_ranges(
        hits.size(),
        [&](std::size_t begin, std::size_t end, unsigned worker) {
          ASSERT_LT(worker, 3u);
          for (std::size_t i = begin; i < end; ++i) {
            hits[i].fetch_add(1, std::memory_order_relaxed);
          }
        },
        chunk);
    for (std::size_t i = 0; i < hits.size(); ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "chunk " << chunk << " index " << i;
    }
  }
}

}  // namespace
}  // namespace pcmax
