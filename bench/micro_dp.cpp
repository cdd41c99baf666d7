// google-benchmark microbenchmarks of the DP kernels: state-space encode/
// decode, level computation/iteration, configuration enumeration, and full
// sequential and parallel DP fills.
//
// Provides its own main (targets.cmake NO_MAIN): on top of the standard
// --benchmark_* flags it accepts `--json <path>` to dump the per-benchmark
// timings as a pcmax.microbench.v1 document via util/json.
#include <benchmark/benchmark.h>

#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "algo/ptas/config_enum.hpp"
#include "algo/ptas/dp_parallel.hpp"
#include "algo/ptas/dp_sequential.hpp"
#include "core/bounds.hpp"
#include "core/instance_gen.hpp"
#include "util/json.hpp"

namespace {

using namespace pcmax;

constexpr std::size_t kBig = std::size_t{1} << 32;

/// A mid-size rounded fixture: 4 classes, 10 long jobs, sigma = 324.
RoundedInstance fixture_rounded() {
  RoundedInstance rounded;
  rounded.params = RoundingParams::make(40, 4);
  rounded.class_index = {3, 4, 5, 6};
  rounded.class_size = {9, 12, 15, 18};
  rounded.class_count = {2, 2, 3, 2};
  rounded.class_jobs = {{0, 1}, {2, 3}, {4, 5, 6}, {7, 8}};
  rounded.total_long_jobs = 9;
  return rounded;
}

void BM_StateSpaceDecode(benchmark::State& state) {
  const StateSpace space({5, 5, 5, 5}, kBig);
  std::vector<int> digits(4);
  std::size_t i = 0;
  for (auto _ : state) {
    space.decode(i, digits);
    benchmark::DoNotOptimize(digits.data());
    i = (i + 97) % space.size();
  }
}
BENCHMARK(BM_StateSpaceDecode);

void BM_StateSpaceEncode(benchmark::State& state) {
  const StateSpace space({5, 5, 5, 5}, kBig);
  const std::vector<int> digits{3, 1, 4, 2};
  for (auto _ : state) {
    benchmark::DoNotOptimize(space.encode(digits));
  }
}
BENCHMARK(BM_StateSpaceEncode);

void BM_LevelHistogram(benchmark::State& state) {
  const StateSpace space({8, 8, 8, 8}, kBig);
  for (auto _ : state) {
    benchmark::DoNotOptimize(space.level_histogram());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(space.size()));
}
BENCHMARK(BM_LevelHistogram);

void BM_LevelCountsConvolution(benchmark::State& state) {
  // The O(dims * L^2) convolution vs the O(sigma) histogram sweep above.
  const StateSpace space({8, 8, 8, 8}, kBig);
  for (auto _ : state) {
    benchmark::DoNotOptimize(space.level_counts());
  }
}
BENCHMARK(BM_LevelCountsConvolution);

void BM_LevelWalkerFullSweep(benchmark::State& state) {
  // Walks every anti-diagonal of the space: the decode-free counterpart of
  // a full decode-per-entry traversal.
  const StateSpace space({8, 8, 8, 8}, kBig);
  for (auto _ : state) {
    LevelWalker walker(space);
    std::size_t checksum = 0;
    for (int level = 0; level <= space.max_level(); ++level) {
      const std::uint64_t width = walker.level_size(level);
      if (width == 0) continue;
      walker.seek(level, 0);
      for (std::uint64_t rank = 0; rank < width; ++rank) {
        checksum += walker.index();
        if (rank + 1 < width) walker.next();
      }
    }
    benchmark::DoNotOptimize(checksum);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(space.size()));
}
BENCHMARK(BM_LevelWalkerFullSweep);

void BM_ConfigEnumeration(benchmark::State& state) {
  const RoundedInstance rounded = fixture_rounded();
  const StateSpace space(rounded.class_count, kBig);
  for (auto _ : state) {
    benchmark::DoNotOptimize(enumerate_configs(rounded, space, kBig));
  }
}
BENCHMARK(BM_ConfigEnumeration);

void BM_DpBottomUp(benchmark::State& state) {
  const RoundedInstance rounded = fixture_rounded();
  const StateSpace space(rounded.class_count, kBig);
  const ConfigSet configs = enumerate_configs(rounded, space, kBig);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dp_bottom_up(rounded, space, configs));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(space.size()));
}
BENCHMARK(BM_DpBottomUp);

void BM_DpParallelBucketed(benchmark::State& state) {
  const RoundedInstance rounded = fixture_rounded();
  const StateSpace space(rounded.class_count, kBig);
  const ConfigSet configs = enumerate_configs(rounded, space, kBig);
  WorkStealingExecutor executor(static_cast<unsigned>(state.range(0)));
  ParallelDpOptions options;
  options.executor = &executor;
  options.variant = ParallelDpVariant::kBucketed;
  for (auto _ : state) {
    benchmark::DoNotOptimize(dp_parallel(rounded, space, configs, options));
  }
}
BENCHMARK(BM_DpParallelBucketed)->Arg(1)->Arg(2)->Arg(4);

void BM_DpParallelScan(benchmark::State& state) {
  const RoundedInstance rounded = fixture_rounded();
  const StateSpace space(rounded.class_count, kBig);
  const ConfigSet configs = enumerate_configs(rounded, space, kBig);
  WorkStealingExecutor executor(static_cast<unsigned>(state.range(0)));
  ParallelDpOptions options;
  options.executor = &executor;
  options.variant = ParallelDpVariant::kScanPerLevel;
  for (auto _ : state) {
    benchmark::DoNotOptimize(dp_parallel(rounded, space, configs, options));
  }
}
BENCHMARK(BM_DpParallelScan)->Arg(1)->Arg(2)->Arg(4);

/// Console reporter that additionally collects every run into a JSON array
/// (pcmax.microbench.v1) for the --json flag.
class JsonCollectingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& reports) override {
    benchmark::ConsoleReporter::ReportRuns(reports);
    for (const Run& run : reports) {
      if (run.error_occurred) continue;
      JsonValue entry = JsonValue::make_object();
      entry["name"] = run.benchmark_name();
      entry["iterations"] = static_cast<std::int64_t>(run.iterations);
      entry["real_time"] = run.GetAdjustedRealTime();
      entry["cpu_time"] = run.GetAdjustedCPUTime();
      entry["time_unit"] = benchmark::GetTimeUnitString(run.time_unit);
      for (const auto& [name, counter] : run.counters) {
        entry[name] = counter.value;
      }
      runs_.append(std::move(entry));
    }
  }

  [[nodiscard]] JsonValue document() const {
    JsonValue root = JsonValue::make_object();
    root["schema"] = "pcmax.microbench.v1";
    root["benchmarks"] = runs_;
    return root;
  }

 private:
  JsonValue runs_ = JsonValue::make_array();
};

}  // namespace

int main(int argc, char** argv) {
  // Extract --json <path> / --json=<path> before benchmark::Initialize sees
  // (and rejects) the unknown flag.
  std::string json_path;
  std::vector<char*> args;
  args.reserve(static_cast<std::size_t>(argc));
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else {
      args.push_back(argv[i]);
    }
  }
  int filtered_argc = static_cast<int>(args.size());
  benchmark::Initialize(&filtered_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(filtered_argc, args.data())) {
    return 1;
  }

  JsonCollectingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out.good()) {
      std::cerr << "cannot open --json output file '" << json_path << "'\n";
      return 1;
    }
    out << reporter.document().dump(/*pretty=*/true) << "\n";
    if (!out.good()) {
      std::cerr << "failed writing --json output file '" << json_path << "'\n";
      return 1;
    }
  }
  return 0;
}
