// Cross-checks the DP against an independent algorithm: OPT(N) — the
// minimum number of machines that fit the rounded jobs within T — must agree
// with the branch-and-bound packing decision run on the same job multiset.
// Two entirely different solvers (counting DP over configurations vs DFS
// packing with dominance pruning) agreeing across random shapes is strong
// evidence both are right.
// A second family, the DpPathCrossCheck suite, runs every DP path against
// one reference: dp_bottom_up with the paper's per-entry enumeration
// kernel, which shares no fits-test code with the packed kernels. Bottom-up
// on SWAR and on AVX2, the scan-per-level sweep and the team sweep (one
// Executor::run_team episode per fill) — the parallel paths at 1, 2, 3 and
// 8 threads on the work-stealing executor — must reproduce its values byte
// for byte and the schedule reconstructed from them, compute every entry
// once and conserve scans + pruned. PtasSolver's inline cutoff is checked
// on both sides of kTeamFillMinWork.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <span>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "algo/ptas/config_enum.hpp"
#include "algo/ptas/dp_parallel.hpp"
#include "algo/ptas/dp_sequential.hpp"
#include "algo/ptas/ptas.hpp"
#include "algo/ptas/reconstruct.hpp"
#include "core/instance.hpp"
#include "core/instance_gen.hpp"
#include "exact/bin_feasibility.hpp"
#include "obs/metrics.hpp"
#include "parallel/executor.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace pcmax {
namespace {

constexpr std::size_t kBig = std::size_t{1} << 40;

RoundedInstance make_rounded(const std::vector<Time>& sizes,
                             const std::vector<int>& counts, Time target) {
  RoundedInstance rounded;
  rounded.params = RoundingParams::make(target, 4);
  int job = 0;
  for (std::size_t d = 0; d < sizes.size(); ++d) {
    rounded.class_index.push_back(static_cast<int>(d) + 1);
    rounded.class_size.push_back(sizes[d]);
    rounded.class_count.push_back(counts[d]);
    rounded.class_jobs.emplace_back();
    for (int c = 0; c < counts[d]; ++c) rounded.class_jobs.back().push_back(job++);
    rounded.total_long_jobs += counts[d];
  }
  return rounded;
}

/// Minimum machines for the rounded jobs within `target`, via the
/// independent packing decision (binary search over machine counts).
int min_machines_by_packing(const std::vector<Time>& sizes,
                            const std::vector<int>& counts, Time target) {
  std::vector<Time> jobs;
  for (std::size_t d = 0; d < sizes.size(); ++d) {
    for (int c = 0; c < counts[d]; ++c) jobs.push_back(sizes[d]);
  }
  if (jobs.empty()) return 0;
  for (int machines = 1; machines <= static_cast<int>(jobs.size()); ++machines) {
    const Instance instance(machines, jobs);
    const Feasibility answer = pack_within(instance, target, {}, nullptr, nullptr);
    EXPECT_NE(answer, Feasibility::kUnknown);
    if (answer == Feasibility::kFeasible) return machines;
  }
  ADD_FAILURE() << "one machine per job must always fit (sizes <= target)";
  return static_cast<int>(jobs.size());
}

TEST(DpCrossCheck, AgreesWithPackingOnFixedShapes) {
  const struct {
    std::vector<Time> sizes;
    std::vector<int> counts;
    Time target;
  } cases[] = {
      {{6, 11}, {2, 3}, 30},
      {{9, 13, 17}, {3, 2, 2}, 40},
      {{20}, {5}, 30},
      {{10, 15}, {6, 4}, 30},
      {{7, 8, 9, 10}, {2, 1, 2, 1}, 31},
      {{25, 26}, {3, 3}, 52},
  };
  for (const auto& test_case : cases) {
    const RoundedInstance rounded =
        make_rounded(test_case.sizes, test_case.counts, test_case.target);
    const StateSpace space(test_case.counts, kBig);
    const ConfigSet configs = enumerate_configs(rounded, space, kBig);
    const DpRun run = dp_bottom_up(rounded, space, configs);
    EXPECT_EQ(run.machines_needed,
              min_machines_by_packing(test_case.sizes, test_case.counts,
                                      test_case.target))
        << "T=" << test_case.target;
  }
}

TEST(DpCrossCheck, AgreesWithPackingOnRandomShapes) {
  Xoshiro256StarStar rng(0xC0FFEE);
  for (int round = 0; round < 25; ++round) {
    const Time target = uniform_int(rng, 20, 60);
    const int dims = static_cast<int>(uniform_int(rng, 1, 3));
    std::vector<Time> sizes;
    std::vector<int> counts;
    for (int d = 0; d < dims; ++d) {
      // Long-ish sizes in (target/4, target]: mimics real rounded classes.
      sizes.push_back(uniform_int(rng, target / 4 + 1, target));
      counts.push_back(static_cast<int>(uniform_int(rng, 0, 4)));
    }
    const RoundedInstance rounded = make_rounded(sizes, counts, target);
    const StateSpace space(counts, kBig);
    const ConfigSet configs = enumerate_configs(rounded, space, kBig);
    const DpRun run = dp_bottom_up(rounded, space, configs);
    EXPECT_EQ(run.machines_needed,
              min_machines_by_packing(sizes, counts, target))
        << "round " << round << " T=" << target;
  }
}

TEST(DpCrossCheck, MachineCountMonotoneInTarget) {
  // Raising T can only reduce OPT(N) for a fixed rounded job set.
  const std::vector<Time> sizes{9, 14};
  const std::vector<int> counts{3, 3};
  std::int32_t previous = INT32_MAX;
  for (Time target = 14; target <= 70; target += 7) {
    const RoundedInstance rounded = make_rounded(sizes, counts, target);
    const StateSpace space(counts, kBig);
    const ConfigSet configs = enumerate_configs(rounded, space, kBig);
    const DpRun run = dp_bottom_up(rounded, space, configs);
    EXPECT_LE(run.machines_needed, previous) << "T=" << target;
    previous = run.machines_needed;
  }
}

/// Asserts `run` reproduces `reference` byte for byte: same OPT(N) and the
/// same value at every entry.
void expect_identical_tables(const DpRun& reference, const DpRun& run,
                             const std::string& what) {
  ASSERT_EQ(run.table.size(), reference.table.size()) << what;
  EXPECT_EQ(run.machines_needed, reference.machines_needed) << what;
  for (std::size_t i = 0; i < reference.table.size(); ++i) {
    ASSERT_EQ(run.table.value(i), reference.table.value(i))
        << what << " value at entry " << i;
  }
}

/// One rounded DP input of the cross-check suite.
struct Shape {
  std::vector<Time> sizes;
  std::vector<int> counts;
  Time target;
};

/// Hand-picked shapes (the paper example, a single class, the empty
/// instance, four classes) plus random ones.
std::vector<Shape> crosscheck_shapes() {
  std::vector<Shape> shapes{{{6, 11}, {2, 3}, 30},
                            {{9, 13, 17}, {3, 2, 2}, 40},
                            {{20}, {5}, 30},
                            {{}, {}, 30},
                            {{7, 8, 9, 10}, {2, 1, 2, 1}, 31}};
  Xoshiro256StarStar rng(0x7EA3);
  for (int round = 0; round < 6; ++round) {
    Shape shape;
    shape.target = uniform_int(rng, 25, 60);
    const int dims = static_cast<int>(uniform_int(rng, 1, 3));
    for (int d = 0; d < dims; ++d) {
      shape.sizes.push_back(uniform_int(rng, shape.target / 4 + 1, shape.target));
      shape.counts.push_back(static_cast<int>(uniform_int(rng, 1, 6)));
    }
    shapes.push_back(std::move(shape));
  }
  return shapes;
}

/// An instance holding the shape's jobs (the job ids of make_rounded), one
/// machine per job.
Instance long_job_instance(const Shape& shape) {
  std::vector<Time> times;
  for (std::size_t d = 0; d < shape.sizes.size(); ++d) {
    times.insert(times.end(), static_cast<std::size_t>(shape.counts[d]),
                 shape.sizes[d]);
  }
  if (times.empty()) times.push_back(1);  // an instance needs one job
  const auto machines = static_cast<int>(times.size());
  return Instance(machines, std::move(times));
}

/// The DP paths that fill tables in this library.
enum class DpPath { kBottomUp, kScanPerLevel, kTeamSweep };

using CrossCheckParam = std::tuple<DpPath, DpKernel>;

class DpPathCrossCheck : public ::testing::TestWithParam<CrossCheckParam> {};

TEST_P(DpPathCrossCheck, MatchesThePerEntryReference) {
  // A forced AVX2 kernel on a host or build without it runs the SWAR
  // kernel it degrades to, so those cases check the degradation instead.
  const auto [path, kernel] = GetParam();
  // The parallel paths run at 1, 2, 3 and 8 threads.
  std::vector<std::pair<std::string, std::unique_ptr<Executor>>> executors;
  if (path != DpPath::kBottomUp) {
    for (const unsigned threads : {1u, 2u, 3u, 8u}) {
      executors.emplace_back(std::to_string(threads) + " threads",
                             std::make_unique<WorkStealingExecutor>(threads));
    }
  }
  DpOptions reference_options;
  reference_options.kernel = DpKernel::kPerEntryEnum;

  const std::vector<Shape> shapes = crosscheck_shapes();
  for (std::size_t s = 0; s < shapes.size(); ++s) {
    const Shape& shape = shapes[s];
    const RoundedInstance rounded =
        make_rounded(shape.sizes, shape.counts, shape.target);
    const StateSpace space(shape.counts, kBig);
    const ConfigSet configs = enumerate_configs(rounded, space, kBig);
    const Instance instance = long_job_instance(shape);
    const DpAtTarget reference{rounded, space, configs,
                               dp_bottom_up(rounded, space, configs, reference_options)};
    const Schedule reference_schedule = reconstruct_long_schedule(instance, reference);

    const auto check = [&](DpRun run, const std::string& what) {
      expect_identical_tables(reference.run, run, what);
      EXPECT_EQ(run.stats.entries_computed, space.size()) << what;
      EXPECT_EQ(run.stats.kernel, resolve_dp_kernel(kernel)) << what;
      // Scan conservation: each non-origin entry scans or prunes every config.
      EXPECT_EQ(run.stats.config_scans + run.stats.configs_pruned,
                (space.size() - 1) * configs.count())
          << what;
      const DpAtTarget at{rounded, space, configs, std::move(run)};
      EXPECT_EQ(reconstruct_long_schedule(instance, at), reference_schedule)
          << what << " reconstruction";
    };
    const std::string tag = " shape " + std::to_string(s);
    if (path == DpPath::kBottomUp) {
      DpOptions options;
      options.kernel = kernel;
      check(dp_bottom_up(rounded, space, configs, options), "bottom-up" + tag);
      continue;
    }
    for (const auto& [name, executor] : executors) {
      ParallelDpOptions options;
      options.executor = executor.get();
      options.variant = path == DpPath::kTeamSweep ? ParallelDpVariant::kBucketed
                                                   : ParallelDpVariant::kScanPerLevel;
      options.kernel = kernel;
      obs::Metrics metrics(executor->concurrency());
      DpRun run = [&] {
        const obs::MetricsScope scope(metrics);
        return dp_parallel(rounded, space, configs, options);
      }();
      const std::string what = name + tag;
      check(std::move(run), what);
      if constexpr (obs::kMetricsEnabled) {
        if (path == DpPath::kTeamSweep) {
          // The whole fill is one team episode.
          EXPECT_EQ(metrics.counter_total(obs::Counter::kPoolRegions), 1u) << what;
        }
      }
    }
  }
}

std::string crosscheck_name(const ::testing::TestParamInfo<CrossCheckParam>& info) {
  const auto [path, kernel] = info.param;
  const char* path_name = path == DpPath::kBottomUp       ? "BottomUp"
                          : path == DpPath::kScanPerLevel ? "ScanPerLevel"
                                                          : "TeamSweep";
  return std::string(path_name) + "_" + dp_kernel_name(kernel);
}

INSTANTIATE_TEST_SUITE_P(
    AllPaths, DpPathCrossCheck,
    ::testing::Combine(::testing::Values(DpPath::kBottomUp, DpPath::kScanPerLevel,
                                         DpPath::kTeamSweep),
                       ::testing::Values(DpKernel::kSwar, DpKernel::kAvx2)),
    crosscheck_name);

/// One PtasSolver solve seen through the metrics layer: its pool.regions,
/// its DP-run records, and the solve with its probe trace.
struct ObservedSolve {
  std::uint64_t regions = 0;
  std::vector<obs::DpRunRecord> runs;
  PtasResult result;
};

ObservedSolve solve_observed(const Instance& instance, const PtasOptions& options) {
  obs::Metrics metrics(4);
  ObservedSolve observed;
  {
    const obs::MetricsScope scope(metrics);
    observed.result = PtasSolver(options).solve_with_trace(instance);
  }
  observed.regions = metrics.counter_total(obs::Counter::kPoolRegions);
  observed.runs = metrics.dp_runs();
  return observed;
}

TEST(DpCrossCheck, PtasSolverFillsInlineBelowTheCutoffAndInOneTeamAbove) {
  if constexpr (!obs::kMetricsEnabled) GTEST_SKIP() << "PCMAX_METRICS is OFF";
  // On a team of two, a parallel-bucketed fill below kTeamFillMinWork runs
  // inline (no region), and at or above it the fill is exactly one team
  // episode. A team of one runs every fill inline as dp_bottom_up. Either
  // way the makespan is the sequential engine's.
  const auto work = [](const BisectionIteration& probe) {
    return static_cast<std::uint64_t>(probe.table_size) * probe.config_count;
  };
  const Instance small = generate_instance(InstanceFamily::kUniform1To100, 5, 30, 3, 0);
  const Instance large = generate_instance(InstanceFamily::kUniform1To100, 10, 50, 3, 0);
  WorkStealingExecutor team_of_two(2);
  WorkStealingExecutor team_of_one(1);
  for (const auto& [instance, epsilon] :
       {std::pair{&small, 0.3}, std::pair{&large, 0.2}}) {
    PtasOptions options;
    options.epsilon = epsilon;
    options.keep_trace = true;
    const Time expected = PtasSolver(options).solve(*instance).makespan;
    options.engine = DpEngine::kParallelBucketed;
    options.executor = &team_of_two;
    const ObservedSolve observed = solve_observed(*instance, options);
    // Every row but the last is a fill the search ran. The last copies the
    // last feasible probe's row, and no fill runs for it.
    const std::vector<BisectionIteration>& trace = observed.result.bisection.trace;
    const std::span<const BisectionIteration> probes = std::span(trace).first(trace.size() - 1);
    const std::string what = "eps " + std::to_string(epsilon);
    ASSERT_TRUE(std::any_of(probes.begin(), probes.end(),
                            [](const BisectionIteration& it) { return it.feasible; }))
        << what;
    std::uint64_t above = 0;
    for (const BisectionIteration& probe : probes) {
      if (work(probe) >= kTeamFillMinWork) ++above;
    }
    if (instance == &small) {
      EXPECT_EQ(above, 0u) << what;
    } else {
      EXPECT_GT(above, 0u) << what;
    }
    EXPECT_EQ(observed.regions, above) << what;
    EXPECT_EQ(observed.result.makespan, expected) << what;

    options.executor = &team_of_one;
    const ObservedSolve solo = solve_observed(*instance, options);
    EXPECT_EQ(solo.regions, 0u) << what;
    EXPECT_EQ(solo.runs.size(), probes.size()) << what;
    for (const obs::DpRunRecord& run : solo.runs) {
      EXPECT_EQ(run.variant, "bottom-up") << what;
    }
    EXPECT_EQ(solo.result.makespan, expected) << what;
  }
}

TEST(DpCrossCheck, MetricsEntryTotalsAgreeAcrossVariantsAndSchedules) {
  if constexpr (!obs::kMetricsEnabled) GTEST_SKIP() << "PCMAX_METRICS is OFF";
  // The parallel paths observed through the metrics layer: each run's
  // per-worker entry totals must sum to sigma whether
  // the entries were dealt round-robin (scan-per-level) or in blocks (team
  // sweep), the schedule each run records.
  const RoundedInstance rounded = make_rounded({8, 12, 19}, {3, 3, 2}, 38);
  const StateSpace space(std::vector<int>{3, 3, 2}, kBig);
  const ConfigSet configs = enumerate_configs(rounded, space, kBig);
  obs::Metrics metrics(4);
  const obs::MetricsScope scope(metrics);
  std::size_t expected_runs = 0;
  WorkStealingExecutor executor(4);
  for (const ParallelDpVariant variant :
       {ParallelDpVariant::kScanPerLevel, ParallelDpVariant::kBucketed}) {
    ParallelDpOptions options;
    options.executor = &executor;
    options.variant = variant;
    dp_parallel(rounded, space, configs, options);
    ++expected_runs;
  }
  const std::vector<obs::DpRunRecord> runs = metrics.dp_runs();
  ASSERT_EQ(runs.size(), expected_runs);
  for (const obs::DpRunRecord& run : runs) {
    std::uint64_t total = 0;
    for (const std::uint64_t entries : run.per_worker_entries) total += entries;
    EXPECT_EQ(total, space.size()) << run.variant << "/" << run.schedule;
  }
  EXPECT_EQ(metrics.counter_total(obs::Counter::kDpEntries),
            expected_runs * space.size());
}

}  // namespace
}  // namespace pcmax
