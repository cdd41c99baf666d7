#include "parallel/executor.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "parallel/barrier.hpp"
#include "util/error.hpp"

namespace pcmax {
namespace {

void check_covers_once(Executor& executor, std::size_t n) {
  std::vector<std::atomic<int>> visits(n);
  executor.parallel_for(n, [&](std::size_t i) {
    visits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(visits[i].load(), 1);
}

TEST(SequentialExecutor, RunsInline) {
  SequentialExecutor executor;
  EXPECT_EQ(executor.concurrency(), 1u);
  EXPECT_EQ(executor.name(), "sequential");
  check_covers_once(executor, 100);
}

TEST(SequentialExecutor, PassesFullRangeToBody) {
  SequentialExecutor executor;
  int calls = 0;
  executor.parallel_for_ranges(
      10,
      [&](std::size_t begin, std::size_t end, unsigned worker) {
        EXPECT_EQ(begin, 0u);
        EXPECT_EQ(end, 10u);
        EXPECT_EQ(worker, 0u);
        ++calls;
      },
      /*chunk=*/0, CancellationToken{});
  EXPECT_EQ(calls, 1);
}

TEST(MakeExecutor, CreatesKnownBackends) {
  EXPECT_EQ(make_executor("sequential", 1)->name(), "sequential");
  const std::unique_ptr<Executor> pool = make_executor("workstealing", 3);
  EXPECT_EQ(pool->name(), "workstealing");
  EXPECT_EQ(pool->concurrency(), 3u);
}

TEST(MakeExecutor, RejectsBadArguments) {
  // Any name but the two backends is rejected, with a message that names
  // both.
  for (const char* backend : {"bogus", "threadpool", "openmp", "work-stealing"}) {
    try {
      (void)make_executor(backend, 2);
      ADD_FAILURE() << backend << " was accepted";
    } catch (const InvalidArgumentError& error) {
      const std::string message = error.what();
      EXPECT_NE(message.find(backend), std::string::npos) << message;
      EXPECT_NE(message.find("'sequential'"), std::string::npos) << message;
      EXPECT_NE(message.find("'workstealing'"), std::string::npos) << message;
    }
  }
  EXPECT_THROW((void)make_executor("workstealing", 0), InvalidArgumentError);
  EXPECT_THROW((void)make_executor("sequential", 2), InvalidArgumentError);
}

TEST(HardwareThreads, IsAtLeastOne) { EXPECT_GE(hardware_threads(), 1u); }

TEST(Executor, ParallelSumEquivalenceAcrossBackends) {
  constexpr std::size_t kN = 10'000;
  auto sum_with = [&](Executor& ex) {
    std::atomic<long> sum{0};
    ex.parallel_for(kN, [&](std::size_t i) {
      sum.fetch_add(static_cast<long>(i), std::memory_order_relaxed);
    });
    return sum.load();
  };
  SequentialExecutor seq;
  WorkStealingExecutor pool(4);
  EXPECT_EQ(sum_with(pool), sum_with(seq));
  EXPECT_EQ(sum_with(seq), static_cast<long>(kN) * (kN - 1) / 2);
}

// --- run_team contract -----------------------------------------------------

/// Both backends at `threads` workers ("sequential" only at one).
std::vector<std::unique_ptr<Executor>> team_executors(unsigned threads) {
  std::vector<std::unique_ptr<Executor>> executors;
  if (threads == 1) executors.push_back(make_executor("sequential", 1));
  executors.push_back(make_executor("workstealing", threads));
  return executors;
}

TEST(RunTeam, EveryMemberRunsOnceOnItsOwnThreadAllAtOnce) {
  // A Barrier of the team's size inside the body only completes if every
  // member runs at the same time; the thread ids prove one thread each.
  for (const unsigned threads : {1u, 2u, 3u, 4u}) {
    for (const auto& executor : team_executors(threads)) {
      const std::string what = executor->name() + "/t" + std::to_string(threads);
      const unsigned members = executor->team_size();
      ASSERT_EQ(members, threads) << what;
      for (int round = 0; round < 3; ++round) {
        Barrier barrier(members);
        std::vector<std::atomic<int>> runs(members);
        std::mutex ids_mutex;
        std::set<std::thread::id> ids;
        executor->run_team([&](unsigned worker) {
          if (worker < members) runs[worker].fetch_add(1, std::memory_order_relaxed);
          {
            const std::lock_guard lock(ids_mutex);
            ids.insert(std::this_thread::get_id());
          }
          barrier.arrive_and_wait();
          barrier.arrive_and_wait();  // a second cycle: the team stays together
        });
        for (unsigned w = 0; w < members; ++w) EXPECT_EQ(runs[w].load(), 1) << what;
        EXPECT_EQ(ids.size(), members) << what;
      }
    }
  }
}

TEST(RunTeam, MemberExceptionIsRethrownAfterEveryMemberReturned) {
  for (const unsigned threads : {1u, 3u}) {
    for (const auto& executor : team_executors(threads)) {
      const std::string what = executor->name() + "/t" + std::to_string(threads);
      const unsigned members = executor->team_size();
      std::atomic<unsigned> finished{0};
      EXPECT_THROW(executor->run_team([&](unsigned worker) {
        if (worker == members - 1) throw ResourceLimitError("member failed");
        // The peers outlive the thrower; the rethrow must wait for them.
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        finished.fetch_add(1, std::memory_order_relaxed);
      }),
                   ResourceLimitError)
          << what;
      EXPECT_EQ(finished.load(), members - 1) << what;

      // The executor is reusable afterwards, for teams and ranges alike.
      std::atomic<unsigned> ran{0};
      executor->run_team([&](unsigned) { ran.fetch_add(1); });
      EXPECT_EQ(ran.load(), members) << what;
      check_covers_once(*executor, 257);
    }
  }
}

TEST(RunTeam, NestedCallRunsInlineAsATeamOfOne) {
  for (const auto& executor : team_executors(3)) {
    const std::string what = executor->name();
    std::atomic<unsigned> inner_runs{0};
    std::atomic<unsigned> bad{0};
    executor->run_team([&](unsigned) {
      if (executor->team_size() != 1) bad.fetch_add(1);
      const std::thread::id outer = std::this_thread::get_id();
      executor->run_team([&](unsigned inner_worker) {
        if (inner_worker != 0 || std::this_thread::get_id() != outer) bad.fetch_add(1);
        inner_runs.fetch_add(1);
      });
    });
    EXPECT_EQ(inner_runs.load(), 3u) << what;
    EXPECT_EQ(bad.load(), 0u) << what;
    EXPECT_EQ(executor->team_size(), 3u) << what;  // outside a worker again
  }
}

TEST(RunTeam, CancelledTokenThrowsBeforeAnyMemberStarts) {
  for (const auto& executor : team_executors(2)) {
    CancellationToken token = CancellationToken::make();
    token.request_cancel();
    std::atomic<int> ran{0};
    EXPECT_THROW(executor->run_team([&](unsigned) { ran.fetch_add(1); }, token),
                 CancelledError)
        << executor->name();
    EXPECT_EQ(ran.load(), 0) << executor->name();
  }
}

TEST(RunTeam, EachEpisodeIsOneRegion) {
  if constexpr (!obs::kMetricsEnabled) GTEST_SKIP() << "PCMAX_METRICS is OFF";
  for (const auto& executor : team_executors(2)) {
    obs::Metrics metrics(2);
    {
      const obs::MetricsScope scope(metrics);
      for (int i = 0; i < 5; ++i) executor->run_team([](unsigned) {});
    }
    EXPECT_EQ(metrics.counter_total(obs::Counter::kPoolRegions), 5u) << executor->name();
  }
  // The sequential executor's team of one is inline: no region at all.
  obs::Metrics metrics(1);
  {
    const obs::MetricsScope scope(metrics);
    SequentialExecutor sequential;
    Executor& base = sequential;  // the default cancel argument lives here
    base.run_team([](unsigned) {});
  }
  EXPECT_EQ(metrics.counter_total(obs::Counter::kPoolRegions), 0u);
}

}  // namespace
}  // namespace pcmax
