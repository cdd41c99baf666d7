#include "harness/calibration.hpp"

#include <algorithm>
#include <thread>
#include <vector>

#include "algo/ptas/config_enum.hpp"
#include "algo/ptas/dp_sequential.hpp"
#include "parallel/barrier.hpp"
#include "parallel/work_stealing.hpp"
#include "util/error.hpp"
#include "util/stats.hpp"
#include "util/stopwatch.hpp"

namespace pcmax {

namespace {

/// Medians are robust against scheduler noise on shared machines.
double median_of(std::vector<double>& samples) { return median(samples); }

double measure_forkjoin(unsigned threads, int rounds) {
  WorkStealingPool pool(threads);
  // Warm-up: first episode pays thread wake-up.
  pool.parallel_for_1d(1, [](std::size_t, std::size_t, unsigned) {});
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(rounds));
  for (int r = 0; r < rounds; ++r) {
    Stopwatch sw;
    pool.parallel_for_1d(threads, [](std::size_t, std::size_t, unsigned) {});
    samples.push_back(sw.elapsed_seconds());
  }
  return median_of(samples);
}

double measure_barrier(unsigned threads, int rounds) {
  Barrier barrier(threads);
  std::vector<double> per_thread_seconds(threads, 0.0);

  auto worker = [&](unsigned id) {
    Stopwatch sw;
    for (int r = 0; r < rounds; ++r) barrier.arrive_and_wait();
    per_thread_seconds[id] = sw.elapsed_seconds();
  };
  std::vector<std::thread> helpers;
  for (unsigned t = 1; t < threads; ++t) helpers.emplace_back(worker, t);
  worker(0);
  for (auto& helper : helpers) helper.join();

  // All threads time the same cycles; take the slowest view per cycle.
  const double slowest =
      *std::max_element(per_thread_seconds.begin(), per_thread_seconds.end());
  return slowest / static_cast<double>(rounds);
}

double measure_dp_entry(int rounds) {
  // Reference probe: 4 classes, sigma = 324, the micro_dp fixture.
  RoundedInstance rounded;
  rounded.params = RoundingParams::make(40, 4);
  rounded.class_index = {3, 4, 5, 6};
  rounded.class_size = {9, 12, 15, 18};
  rounded.class_count = {2, 2, 3, 2};
  rounded.class_jobs = {{0, 1}, {2, 3}, {4, 5, 6}, {7, 8}};
  rounded.total_long_jobs = 9;
  const StateSpace space(rounded.class_count, std::size_t{1} << 20);
  const ConfigSet configs =
      enumerate_configs(rounded, space, std::size_t{1} << 20);

  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(rounds));
  for (int r = 0; r < rounds; ++r) {
    Stopwatch sw;
    const DpRun run = dp_bottom_up(rounded, space, configs);
    samples.push_back(sw.elapsed_seconds() /
                      static_cast<double>(run.stats.table_size));
  }
  return median_of(samples);
}

}  // namespace

SimMachineModel CalibrationResult::to_model(double work_scale) const {
  SimMachineModel model;
  model.barrier_seconds = forkjoin_seconds;  // Alg. 3: a parallel-for per level
  model.work_scale = work_scale;
  return model;
}

CalibrationResult calibrate_machine(unsigned threads) {
  PCMAX_REQUIRE(threads >= 1, "need at least one thread");
  CalibrationResult result;
  result.threads = threads;
  result.forkjoin_seconds = measure_forkjoin(threads, 200);
  result.barrier_seconds = threads == 1 ? 0.0 : measure_barrier(threads, 500);
  result.dp_entry_seconds = measure_dp_entry(50);
  return result;
}

}  // namespace pcmax
