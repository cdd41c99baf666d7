// Concurrency stress for cooperative cancellation (ctest label: sanitize).
//
// These tests race real cancellations against in-flight parallel solves and
// hammer one token from many threads. They assert the library-level
// guarantees — the solve either finishes or throws the typed error, the
// pool stays reusable, nothing hangs — and a PCMAX_SANITIZE=thread build
// (`ctest -L sanitize`) additionally proves the paths data-race-free.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <utility>
#include <vector>

#include "algo/ptas/ptas.hpp"
#include "core/instance_gen.hpp"
#include "core/resilient_solver.hpp"
#include "core/solve_context.hpp"
#include "util/deadline.hpp"
#include "util/error.hpp"

namespace pcmax {
namespace {

TEST(CancelStress, ManyThreadsHammerOneToken) {
  const CancellationToken token =
      CancellationToken::linked(CancellationToken::make(),
                                Deadline::after_seconds(3600.0));
  std::atomic<bool> go{false};
  std::atomic<int> observed_stops{0};
  std::vector<std::thread> threads;
  threads.reserve(8);
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      if (t == 0) token.request_cancel();
      CancelCheck check(token, 16);
      try {
        // The flag is sticky, so every thread observes the stop within one
        // amortisation period no matter how the threads are scheduled.
        for (;;) check.poll();
      } catch (const CancelledError&) {
        observed_stops.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  go.store(true, std::memory_order_release);
  for (auto& thread : threads) thread.join();
  EXPECT_TRUE(token.cancel_requested());
  EXPECT_EQ(observed_stops.load(), 8);
}

TEST(CancelStress, ConcurrentCancelDuringParallelDpEngines) {
  const Instance instance =
      generate_instance(InstanceFamily::kUniform1To100, 8, 60, 5, 0);
  WorkStealingExecutor executor(4);
  WorkStealingExecutor work_stealing(2);
  for (const auto& [engine, engine_executor] :
       {std::pair<DpEngine, Executor*>{DpEngine::kParallelScan, &executor},
        {DpEngine::kParallelBucketed, &executor},
        {DpEngine::kParallelBucketed, &work_stealing}}) {
    for (int round = 0; round < 4; ++round) {
      CancellationToken token = CancellationToken::make();
      PtasOptions options;
      options.engine = engine;
      options.executor = engine_executor;
      options.epsilon = 0.12;  // big enough DP that cancels land mid-flight
      std::thread canceller([token, round] {
        std::this_thread::sleep_for(std::chrono::microseconds(50 * round));
        token.request_cancel();
      });
      try {
        const SolverResult result =
            PtasSolver(options).solve(instance, SolveContext::with_token(token));
        result.schedule.validate(instance);  // raced past the cancel: fine
      } catch (const CancelledError&) {
      } catch (const DeadlineExceededError&) {
      }
      canceller.join();
    }
  }
  // The pools survived every cancelled region: a clean solve still works.
  for (Executor* pool : {static_cast<Executor*>(&executor),
                         static_cast<Executor*>(&work_stealing)}) {
    PtasOptions options;
    options.engine = DpEngine::kParallelScan;
    options.executor = pool;
    const SolverResult result = PtasSolver(options).solve(instance);
    result.schedule.validate(instance);
  }
}

TEST(CancelStress, DeadlineExpiryRacesTheSolve) {
  const Instance instance =
      generate_instance(InstanceFamily::kUniform1To100, 8, 60, 5, 0);
  WorkStealingExecutor executor(4);
  for (int round = 0; round < 6; ++round) {
    PtasOptions options;
    options.engine = DpEngine::kParallelBucketed;
    options.executor = &executor;
    options.epsilon = 0.12;
    SolveContext context;
    context.deadline = Deadline::after_ms(round);
    try {
      const SolverResult result = PtasSolver(options).solve(instance, context);
      result.schedule.validate(instance);
    } catch (const DeadlineExceededError&) {
    } catch (const CancelledError&) {
    }
  }
}

TEST(CancelStress, ResilientSolverUnderConcurrentCancelAlwaysReturns) {
  const Instance instance =
      generate_instance(InstanceFamily::kUniform1To100, 8, 60, 5, 0);
  WorkStealingExecutor executor(2);
  for (int round = 0; round < 4; ++round) {
    ResilientOptions options;
    options.ptas.engine = DpEngine::kParallelBucketed;
    options.ptas.executor = &executor;
    options.ptas.epsilon = 0.12;
    const CancellationToken token = CancellationToken::make();
    std::thread canceller([token, round] {
      std::this_thread::sleep_for(std::chrono::microseconds(100 * round));
      token.request_cancel();
    });
    const SolverResult result =
        ResilientSolver(options).solve(instance, SolveContext::with_token(token));
    canceller.join();
    result.schedule.validate(instance);  // never throws, always complete
  }
}

}  // namespace
}  // namespace pcmax
