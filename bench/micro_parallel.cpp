// google-benchmark microbenchmarks of the parallel runtime: fork-join
// overhead of the thread pool per schedule, barrier round-trips, and the
// end-to-end cost of an empty level sweep.
#include <benchmark/benchmark.h>

#include <atomic>
#include <thread>

#include "parallel/barrier.hpp"
#include "parallel/executor.hpp"

namespace {

using namespace pcmax;

void BM_PoolForkJoin(benchmark::State& state) {
  ThreadPool pool(static_cast<unsigned>(state.range(0)));
  for (auto _ : state) {
    pool.run(1, [](std::size_t, std::size_t, unsigned) {});
  }
}
BENCHMARK(BM_PoolForkJoin)->Arg(1)->Arg(2)->Arg(4);

void BM_PoolParallelForStatic(benchmark::State& state) {
  ThreadPool pool(static_cast<unsigned>(state.range(0)));
  std::atomic<long> sink{0};
  for (auto _ : state) {
    pool.run(
        4096,
        [&](std::size_t begin, std::size_t end, unsigned) {
          long local = 0;
          for (std::size_t i = begin; i < end; ++i) {
            local += static_cast<long>(i);
          }
          sink.fetch_add(local, std::memory_order_relaxed);
        },
        LoopSchedule::kStatic);
  }
  benchmark::DoNotOptimize(sink.load());
}
BENCHMARK(BM_PoolParallelForStatic)->Arg(1)->Arg(2)->Arg(4);

void BM_PoolParallelForRoundRobin(benchmark::State& state) {
  // The paper's round-robin construct delivers singleton ranges, so this
  // measures the per-iteration dispatch cost Algorithm 3 pays per entry.
  ThreadPool pool(static_cast<unsigned>(state.range(0)));
  std::atomic<long> sink{0};
  for (auto _ : state) {
    pool.run(
        4096,
        [&](std::size_t begin, std::size_t, unsigned) {
          sink.fetch_add(static_cast<long>(begin), std::memory_order_relaxed);
        },
        LoopSchedule::kRoundRobin);
  }
  benchmark::DoNotOptimize(sink.load());
}
BENCHMARK(BM_PoolParallelForRoundRobin)->Arg(1)->Arg(2)->Arg(4);

void BM_BarrierSingleParticipant(benchmark::State& state) {
  // Measures the barrier's critical-section overhead (lock + generation
  // bump). Cross-thread wake-up latency is covered end-to-end by the
  // team sweep of micro_dp's BM_DpParallelBucketed, where shutdown is safe.
  Barrier barrier(1);
  for (auto _ : state) {
    barrier.arrive_and_wait();
  }
}
BENCHMARK(BM_BarrierSingleParticipant);

void BM_SequentialExecutorBaseline(benchmark::State& state) {
  SequentialExecutor executor;
  long sink = 0;
  for (auto _ : state) {
    executor.parallel_for_ranges(
        4096,
        [&](std::size_t begin, std::size_t end, unsigned) {
          for (std::size_t i = begin; i < end; ++i) sink += static_cast<long>(i);
        },
        LoopSchedule::kStatic, 1, CancellationToken{});
  }
  benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_SequentialExecutorBaseline);

}  // namespace
