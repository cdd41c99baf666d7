// Concurrency stress tests for the work-stealing pool's range episodes,
// designed to run under ThreadSanitizer (ctest -L sanitize on a
// PCMAX_SANITIZE=thread build). Each case hammers one contract hard but
// briefly (<~2s): episode serialisation across external submitter threads,
// iteration conservation at every claim size (0 = automatic, 1 = single
// iterations, and fixed chunks), exception propagation from chunked
// episodes, and metrics recording under contention.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "parallel/work_stealing.hpp"

namespace pcmax {
namespace {

/// The claim sizes a case cycles through: automatic, single iterations, and
/// the case's own fixed chunk.
std::size_t claim_size(int index, std::size_t fixed) {
  return index % 3 == 0 ? 0 : index % 3 == 1 ? 1 : fixed;
}

TEST(ParallelStress, ExternalSubmittersSerialiseOnOnePool) {
  // Concurrent calls from different external threads are serialised.
  // Hammer one pool from several submitters at once; every episode must
  // still process each of its iterations exactly once.
  WorkStealingPool pool(4);
  constexpr int kSubmitters = 6;
  constexpr int kRegionsPerSubmitter = 40;
  constexpr std::size_t kIterations = 512;

  std::atomic<std::uint64_t> grand_total{0};
  std::vector<std::thread> submitters;
  submitters.reserve(kSubmitters);
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&pool, &grand_total, s] {
      const std::size_t chunk = claim_size(s, 7);
      for (int r = 0; r < kRegionsPerSubmitter; ++r) {
        std::vector<std::uint8_t> hits(kIterations, 0);
        pool.parallel_for_1d(
            kIterations,
            [&hits](std::size_t begin, std::size_t end, unsigned) {
              for (std::size_t i = begin; i < end; ++i) hits[i] += 1;
            },
            chunk);
        std::uint64_t covered = 0;
        for (const std::uint8_t h : hits) {
          ASSERT_EQ(h, 1) << "iteration processed " << int{h} << " times";
          covered += h;
        }
        grand_total.fetch_add(covered, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& t : submitters) t.join();
  EXPECT_EQ(grand_total.load(),
            std::uint64_t{kSubmitters} * kRegionsPerSubmitter * kIterations);
}

TEST(ParallelStress, EverySchedulePartitionsWithoutOverlap) {
  // For each claim size, per-worker iteration sets must partition [0, n):
  // writing the worker id into a shared array and checking coverage makes
  // any double assignment a visible value clash (and a TSan race).
  WorkStealingPool pool(8);
  for (const std::size_t chunk : {std::size_t{0}, std::size_t{1}, std::size_t{13}}) {
    for (const std::size_t n : {std::size_t{1}, std::size_t{7},
                                std::size_t{64}, std::size_t{100000}}) {
      std::vector<std::int8_t> owner(n, -1);
      std::vector<std::uint64_t> per_worker(pool.size(), 0);
      pool.parallel_for_1d(
          n,
          [&](std::size_t begin, std::size_t end, unsigned worker) {
            for (std::size_t i = begin; i < end; ++i) {
              owner[i] = static_cast<std::int8_t>(worker);
            }
            per_worker[worker] += end - begin;
          },
          chunk);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_GE(owner[i], 0) << "iteration " << i << " never ran";
      }
      // Sum of per-worker iteration counts == n, the conservation law the
      // metrics layer also reports.
      EXPECT_EQ(std::accumulate(per_worker.begin(), per_worker.end(),
                                std::uint64_t{0}),
                n)
          << "chunk " << chunk << " n=" << n;
    }
  }
}

TEST(ParallelStress, DynamicExceptionPropagatesAndPoolSurvives) {
  WorkStealingPool pool(4);
  for (int round = 0; round < 25; ++round) {
    std::atomic<std::uint64_t> before_throw{0};
    try {
      pool.parallel_for_1d(
          10000,
          [&](std::size_t begin, std::size_t end, unsigned) {
            for (std::size_t i = begin; i < end; ++i) {
              if (i == 7777) throw std::runtime_error("boom");
              before_throw.fetch_add(1, std::memory_order_relaxed);
            }
          },
          /*chunk=*/32);
      FAIL() << "exception did not propagate (round " << round << ")";
    } catch (const std::runtime_error& error) {
      EXPECT_STREQ(error.what(), "boom");
    }
    // The pool must remain fully usable after an exceptional episode.
    std::atomic<std::uint64_t> total{0};
    pool.parallel_for_1d(1000, [&](std::size_t begin, std::size_t end, unsigned) {
      total.fetch_add(end - begin, std::memory_order_relaxed);
    });
    ASSERT_EQ(total.load(), 1000u);
  }
}

TEST(ParallelStress, ExceptionsFromMultipleWorkersPickOne) {
  WorkStealingPool pool(8);
  for (const std::size_t chunk : {std::size_t{0}, std::size_t{1}, std::size_t{64}}) {
    try {
      pool.parallel_for_1d(
          8000,
          [](std::size_t, std::size_t, unsigned worker) {
            throw std::runtime_error("worker " + std::to_string(worker));
          },
          chunk);
      FAIL() << "exception did not propagate";
    } catch (const std::runtime_error& error) {
      EXPECT_EQ(std::string(error.what()).rfind("worker ", 0), 0u);
    }
  }
}

TEST(ParallelStress, MetricsRecordingUnderContention) {
  // Counters are relaxed atomics in per-worker slots; hammering them from
  // all workers and submitters at once must be race-free (TSan-checked) and
  // conserve totals exactly.
  obs::Metrics metrics(8);
  const obs::MetricsScope scope(metrics);
  WorkStealingPool pool(8);
  constexpr int kRegions = 60;
  constexpr std::size_t kIterations = 4096;
  for (int r = 0; r < kRegions; ++r) {
    pool.parallel_for_1d(
        kIterations,
        [&metrics](std::size_t begin, std::size_t end, unsigned worker) {
          metrics.add(worker, obs::Counter::kDpEntries, end - begin);
          metrics.add_timer(obs::Timer::kDpLevel, 1);
          if (begin == 0) metrics.add_span("stress.first", worker, 1, 2);
        },
        claim_size(r, 64));
  }
  EXPECT_EQ(metrics.counter_total(obs::Counter::kDpEntries),
            std::uint64_t{kRegions} * kIterations);
  if constexpr (obs::kMetricsEnabled) {
    // The pool's own instrumentation saw every iteration too.
    EXPECT_EQ(metrics.counter_total(obs::Counter::kPoolIterations),
              std::uint64_t{kRegions} * kIterations);
    EXPECT_EQ(metrics.counter_total(obs::Counter::kPoolRegions),
              std::uint64_t{kRegions});
  }
  EXPECT_EQ(metrics.spans().size() + metrics.dropped_spans(),
            std::uint64_t{kRegions});
}

TEST(ParallelStress, PoolConstructionTeardownChurn) {
  // Races in worker startup/shutdown handshakes only show up under churn.
  for (int round = 0; round < 40; ++round) {
    WorkStealingPool pool(static_cast<unsigned>(1 + round % 8));
    std::atomic<std::uint64_t> total{0};
    pool.parallel_for_1d(256, [&](std::size_t begin, std::size_t end, unsigned) {
      total.fetch_add(end - begin, std::memory_order_relaxed);
    });
    ASSERT_EQ(total.load(), 256u);
  }
}

}  // namespace
}  // namespace pcmax
