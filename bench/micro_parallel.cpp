// google-benchmark microbenchmarks of the parallel runtime: fork-join
// overhead of the work-stealing pool per claim size, barrier round-trips,
// and the inline baseline of the sequential executor.
#include <benchmark/benchmark.h>

#include <atomic>
#include <thread>

#include "parallel/barrier.hpp"
#include "parallel/executor.hpp"
#include "parallel/work_stealing.hpp"

namespace {

using namespace pcmax;

void BM_PoolForkJoin(benchmark::State& state) {
  WorkStealingPool pool(static_cast<unsigned>(state.range(0)));
  for (auto _ : state) {
    pool.parallel_for_1d(1, [](std::size_t, std::size_t, unsigned) {});
  }
}
BENCHMARK(BM_PoolForkJoin)->Arg(1)->Arg(2)->Arg(4);

void BM_PoolParallelForAutoChunk(benchmark::State& state) {
  WorkStealingPool pool(static_cast<unsigned>(state.range(0)));
  std::atomic<long> sink{0};
  for (auto _ : state) {
    pool.parallel_for_1d(
        4096,
        [&](std::size_t begin, std::size_t end, unsigned) {
          long local = 0;
          for (std::size_t i = begin; i < end; ++i) {
            local += static_cast<long>(i);
          }
          sink.fetch_add(local, std::memory_order_relaxed);
        },
        /*chunk=*/0);
  }
  benchmark::DoNotOptimize(sink.load());
}
BENCHMARK(BM_PoolParallelForAutoChunk)->Arg(1)->Arg(2)->Arg(4);

void BM_PoolParallelForSingletons(benchmark::State& state) {
  // Single-iteration claims deliver singleton ranges, as the paper's
  // round-robin construct does, so this measures the per-iteration dispatch
  // cost the scan-per-level replay of Algorithm 3 pays per entry.
  WorkStealingPool pool(static_cast<unsigned>(state.range(0)));
  std::atomic<long> sink{0};
  for (auto _ : state) {
    pool.parallel_for_1d(
        4096,
        [&](std::size_t begin, std::size_t, unsigned) {
          sink.fetch_add(static_cast<long>(begin), std::memory_order_relaxed);
        },
        /*chunk=*/1);
  }
  benchmark::DoNotOptimize(sink.load());
}
BENCHMARK(BM_PoolParallelForSingletons)->Arg(1)->Arg(2)->Arg(4);

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
        /*chunk=*/0, CancellationToken{});
  }
  benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_SequentialExecutorBaseline);

}  // namespace
