// Functional tests of the work-stealing substrate: the Chase-Lev deque's
// owner/thief contract, the pool's range, task and team episodes (coverage,
// nesting, cancellation, error propagation, guaranteed steal hand-off, the
// deterministic "pool.steal" fault site), and the WorkStealingExecutor
// adapter. The sanitize-labelled work_stealing_stress_test hammers the same
// machinery under contention; this file pins the functional contract.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
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

TEST(ChaseLevDeque, OwnerPopsLifoThievesStealFifo) {
  ChaseLevDeque deque(4);
  EXPECT_EQ(deque.capacity(), 4u);
  std::uint32_t out = 0;
  EXPECT_FALSE(deque.pop(&out));
  EXPECT_FALSE(deque.steal(&out));
  EXPECT_TRUE(deque.push(1));
  EXPECT_TRUE(deque.push(2));
  EXPECT_TRUE(deque.push(3));
  EXPECT_TRUE(deque.pop(&out));
  EXPECT_EQ(out, 3u);  // owner: most recent first
  EXPECT_TRUE(deque.steal(&out));
  EXPECT_EQ(out, 1u);  // thief: oldest first
  EXPECT_TRUE(deque.pop(&out));
  EXPECT_EQ(out, 2u);
  EXPECT_FALSE(deque.pop(&out));
  EXPECT_FALSE(deque.steal(&out));
}

TEST(ChaseLevDeque, CapacityRoundsUpAndPushBounds) {
  ChaseLevDeque deque(5);
  EXPECT_EQ(deque.capacity(), 8u);
  for (std::uint32_t v = 0; v < 8; ++v) EXPECT_TRUE(deque.push(v));
  EXPECT_FALSE(deque.push(99)) << "full deque must refuse the push";
  deque.reset(1);
  EXPECT_EQ(deque.capacity(), 1u);
  std::uint32_t out = 0;
  EXPECT_FALSE(deque.pop(&out)) << "reset must empty the deque";
  EXPECT_TRUE(deque.push(7));
  EXPECT_TRUE(deque.pop(&out));
  EXPECT_EQ(out, 7u);
}

TEST(WorkStealingPool, RangeCoversEveryIndexExactlyOnce) {
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
              ASSERT_LE(begin, end);
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

TEST(WorkStealingPool, TwoDTilingCoversGridWithClippedEdges) {
  WorkStealingPool pool(4);
  constexpr std::size_t kRows = 23;
  constexpr std::size_t kCols = 17;
  std::vector<std::atomic<int>> cells(kRows * kCols);
  pool.parallel_for_2d(
      kRows, kCols, 5, 4,
      [&](std::size_t rb, std::size_t re, std::size_t cb, std::size_t ce,
          unsigned worker) {
        ASSERT_LT(worker, 4u);
        ASSERT_EQ(rb % 5, 0u);
        ASSERT_EQ(cb % 4, 0u);
        ASSERT_LE(re, kRows);
        ASSERT_LE(ce, kCols);
        ASSERT_LE(re - rb, 5u);
        ASSERT_LE(ce - cb, 4u);
        for (std::size_t r = rb; r < re; ++r) {
          for (std::size_t c = cb; c < ce; ++c) {
            cells[r * kCols + c].fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
  for (std::size_t i = 0; i < cells.size(); ++i) {
    ASSERT_EQ(cells[i].load(), 1) << "cell " << i;
  }
  // Degenerate shapes.
  pool.parallel_for_2d(0, 10, 2, 2,
                       [](std::size_t, std::size_t, std::size_t, std::size_t,
                          unsigned) { FAIL() << "empty grid ran a tile"; });
  EXPECT_THROW(pool.parallel_for_2d(4, 4, 0, 2,
                                    [](std::size_t, std::size_t, std::size_t,
                                       std::size_t, unsigned) {}),
               InvalidArgumentError);
}

TEST(WorkStealingPool, TaskGraphRunsEveryTaskOnce) {
  WorkStealingPool pool(4);
  // Fan-out: root 0 spawns 1..kTasks-1.
  constexpr std::uint32_t kTasks = 200;
  std::vector<std::atomic<int>> ran(kTasks);
  const std::uint32_t roots[] = {0};
  pool.run_tasks(roots, kTasks,
                 [&](std::uint32_t task, WorkStealingPool::TaskContext& ctx) {
                   ASSERT_LT(ctx.worker(), 4u);
                   ran[task].fetch_add(1, std::memory_order_relaxed);
                   if (task == 0) {
                     for (std::uint32_t t = 1; t < kTasks; ++t) ctx.spawn(t);
                   }
                 });
  for (std::uint32_t t = 0; t < kTasks; ++t) ASSERT_EQ(ran[t].load(), 1) << t;

  // Chain: task i spawns i+1; exercises repeated push/pop hand-over-hand.
  std::vector<std::atomic<int>> chain(kTasks);
  pool.run_tasks(roots, kTasks,
                 [&](std::uint32_t task, WorkStealingPool::TaskContext& ctx) {
                   chain[task].fetch_add(1, std::memory_order_relaxed);
                   if (task + 1 < kTasks) ctx.spawn(task + 1);
                 });
  for (std::uint32_t t = 0; t < kTasks; ++t) ASSERT_EQ(chain[t].load(), 1) << t;
}

TEST(WorkStealingPool, TaskGraphDiamondRespectsDependencyCounters) {
  // A mini counter-driven DAG (the DP's protocol in miniature):
  //   0 -> {1, 2} -> 3; 3 waits on both via an atomic counter.
  WorkStealingPool pool(4);
  std::atomic<std::uint32_t> join_deps{2};
  std::atomic<bool> done1{false};
  std::atomic<bool> done2{false};
  const std::uint32_t roots[] = {0};
  pool.run_tasks(roots, 4,
                 [&](std::uint32_t task, WorkStealingPool::TaskContext& ctx) {
                   switch (task) {
                     case 0:
                       ctx.spawn(1);
                       ctx.spawn(2);
                       break;
                     case 1:
                     case 2:
                       (task == 1 ? done1 : done2).store(true);
                       if (join_deps.fetch_sub(1, std::memory_order_acq_rel) ==
                           1) {
                         ctx.spawn(3);
                       }
                       break;
                     case 3:
                       // Both sides of the diamond must be complete.
                       EXPECT_TRUE(done1.load());
                       EXPECT_TRUE(done2.load());
                       break;
                   }
                 });
  EXPECT_EQ(join_deps.load(), 0u);
}

TEST(WorkStealingPool, StealHandsOffTaskWhileOwnerIsBusy) {
  // The root (on worker 0) spawns one child into its own deque and then
  // busy-waits for it: the only way the episode can finish promptly is a
  // peer STEALING the child — a guaranteed steal hand-off.
  WorkStealingPool pool(2);
  obs::Metrics metrics(2);
  std::atomic<bool> child_done{false};
  std::atomic<unsigned> root_worker{99};
  std::atomic<unsigned> child_worker{99};
  {
    const obs::MetricsScope scope(metrics);
    const std::uint32_t roots[] = {0};
    pool.run_tasks(roots, 2,
                   [&](std::uint32_t task, WorkStealingPool::TaskContext& ctx) {
                     if (task == 1) {
                       child_worker.store(ctx.worker());
                       child_done.store(true, std::memory_order_release);
                       return;
                     }
                     root_worker.store(ctx.worker());
                     ctx.spawn(1);
                     const auto deadline = std::chrono::steady_clock::now() +
                                           std::chrono::seconds(30);
                     while (!child_done.load(std::memory_order_acquire) &&
                            std::chrono::steady_clock::now() < deadline) {
                       std::this_thread::yield();
                     }
                   });
  }
  EXPECT_TRUE(child_done.load());
  // Either worker may have claimed the root off the shared cursor; the child
  // sat in the root's own deque, so it can only have run on the OTHER worker.
  EXPECT_NE(child_worker.load(), 99u);
  EXPECT_NE(child_worker.load(), root_worker.load())
      << "the child must have been stolen";
  if constexpr (obs::kMetricsEnabled) {
    EXPECT_GE(metrics.counter_total(obs::Counter::kPoolSteals), 1u);
  }
}

TEST(WorkStealingPool, StealFaultSiteAbortsEpisodeDeterministically) {
  // Same guaranteed-steal construction with the "pool.steal" site armed to
  // throw on its first hit: the first steal (which MUST happen for the child
  // to run while the root spins) injects the fault, and the episode aborts
  // all-or-nothing with the typed error.
  WorkStealingPool pool(2);
  FaultInjector injector("pool.steal", 1, FaultInjector::Action::kThrow);
  std::atomic<bool> child_ran{false};
  {
    const FaultScope scope(injector);
    const std::uint32_t roots[] = {0};
    EXPECT_THROW(
        pool.run_tasks(roots, 2,
                       [&](std::uint32_t task,
                           WorkStealingPool::TaskContext& ctx) {
                         if (task == 1) {
                           child_ran.store(true);
                           return;
                         }
                         ctx.spawn(1);
                         const auto deadline =
                             std::chrono::steady_clock::now() +
                             std::chrono::seconds(30);
                         while (!injector.fired() &&
                                std::chrono::steady_clock::now() < deadline) {
                           std::this_thread::yield();
                         }
                       }),
        ResourceLimitError);
  }
  EXPECT_TRUE(injector.fired());
  EXPECT_FALSE(child_ran.load()) << "the faulted steal must drop the task";
  // The pool survives the aborted episode.
  std::atomic<int> count{0};
  const std::uint32_t roots[] = {0};
  pool.run_tasks(roots, 1,
                 [&](std::uint32_t, WorkStealingPool::TaskContext&) {
                   count.fetch_add(1);
                 });
  EXPECT_EQ(count.load(), 1);
}

TEST(WorkStealingPool, TaskCancellationStopsTheGraph) {
  WorkStealingPool pool(2);
  const CancellationToken token = CancellationToken::make();
  std::atomic<int> started{0};
  const std::uint32_t roots[] = {0};
  EXPECT_THROW(
      pool.run_tasks(
          roots, 1u << 20,
          [&](std::uint32_t task, WorkStealingPool::TaskContext& ctx) {
            started.fetch_add(1, std::memory_order_relaxed);
            if (task == 64) token.request_cancel();
            // Unbounded chain: only cancellation ends the episode.
            ctx.spawn(task + 1);
          },
          token),
      CancelledError);
  EXPECT_GE(started.load(), 64);
}

TEST(WorkStealingPool, TaskGraphValidation) {
  WorkStealingPool pool(2);
  const std::uint32_t roots[] = {5};
  EXPECT_THROW(pool.run_tasks(roots, 4,
                              [](std::uint32_t, WorkStealingPool::TaskContext&) {
                              }),
               InvalidArgumentError)
      << "root id must be below the task bound";
  EXPECT_THROW(
      pool.run_tasks(roots, 0,
                     [](std::uint32_t, WorkStealingPool::TaskContext&) {}),
      InvalidArgumentError);
  // Empty roots: a no-op, not an error.
  pool.run_tasks({}, 4, [](std::uint32_t, WorkStealingPool::TaskContext&) {
    FAIL() << "no roots, no tasks";
  });
  // Spawning past the bound trips the id check inside the episode.
  const std::uint32_t one_root[] = {0};
  EXPECT_THROW(pool.run_tasks(one_root, 1,
                              [](std::uint32_t,
                                 WorkStealingPool::TaskContext& ctx) {
                                ctx.spawn(1);
                              }),
               InternalError);
  // run_tasks cannot be nested inside a worker body (the episode lock is
  // held); the rejection propagates as the episode's error.
  EXPECT_THROW(
      pool.parallel_for_1d(1,
                           [&](std::size_t, std::size_t, unsigned) {
                             pool.run_tasks(
                                 one_root, 1,
                                 [](std::uint32_t,
                                    WorkStealingPool::TaskContext&) {});
                           }),
      InvalidArgumentError);
}

TEST(WorkStealingPool, TeamRunsEveryMemberOnceAllAtOnce) {
  // A team is its own episode kind: members never claim range slices, so a
  // Barrier of the pool's size inside the body completes, and each id runs
  // exactly once on its own thread — back to back, with range episodes and
  // task graphs in between.
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
  for (const LoopSchedule schedule :
       {LoopSchedule::kStatic, LoopSchedule::kRoundRobin,
        LoopSchedule::kDynamic}) {
    std::vector<std::atomic<int>> hits(257);
    base.parallel_for_ranges(
        hits.size(),
        [&](std::size_t begin, std::size_t end, unsigned worker) {
          ASSERT_LT(worker, 3u);
          for (std::size_t i = begin; i < end; ++i) {
            hits[i].fetch_add(1, std::memory_order_relaxed);
          }
        },
        schedule, /*chunk=*/4);
    for (std::size_t i = 0; i < hits.size(); ++i) {
      ASSERT_EQ(hits[i].load(), 1)
          << loop_schedule_name(schedule) << " index " << i;
    }
  }

  // The factory resolves both spellings and rejects unknown backends.
  const std::unique_ptr<Executor> made = make_executor("workstealing", 2);
  EXPECT_EQ(made->name(), "workstealing");
  const std::unique_ptr<Executor> dashed = make_executor("work-stealing", 2);
  EXPECT_EQ(dashed->name(), "workstealing");
  EXPECT_THROW(make_executor("bogus-backend", 2), InvalidArgumentError);
}

}  // namespace
}  // namespace pcmax
