// Cross-checks the DP against an independent algorithm: OPT(N) — the
// minimum number of machines that fit the rounded jobs within T — must agree
// with the branch-and-bound packing decision run on the same job multiset.
// Two entirely different solvers (counting DP over configurations vs DFS
// packing with dominance pruning) agreeing across random shapes is strong
// evidence both are right.
// A second family of cross-checks covers the parallel realisations: every
// ParallelDpVariant under every LoopSchedule must reproduce the sequential
// bottom-up table byte for byte (values AND argmin choices) and perform the
// identical number of entry computations, across randomized shapes. The
// team sweep (one Executor::run_team episode per fill) is checked against
// the sequential reference at 1, 2, 3 and 8 threads on every executor
// backend, in both table modes, and PtasSolver's inline cutoff on both
// sides of kTeamFillMinWork.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "algo/ptas/config_enum.hpp"
#include "algo/ptas/dp_parallel.hpp"
#include "algo/ptas/dp_sequential.hpp"
#include "algo/ptas/ptas.hpp"
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
  for (std::size_t d = 0; d < sizes.size(); ++d) {
    rounded.class_index.push_back(static_cast<int>(d) + 1);
    rounded.class_size.push_back(sizes[d]);
    rounded.class_count.push_back(counts[d]);
    rounded.class_jobs.emplace_back();
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

/// Asserts `run` reproduces `reference` byte for byte: same OPT(N), same
/// value and same argmin choice at every entry.
void expect_identical_tables(const DpRun& reference, const DpRun& run,
                             const std::string& what) {
  ASSERT_EQ(run.table.size(), reference.table.size()) << what;
  EXPECT_EQ(run.machines_needed, reference.machines_needed) << what;
  for (std::size_t i = 0; i < reference.table.size(); ++i) {
    ASSERT_EQ(run.table.value(i), reference.table.value(i))
        << what << " value at entry " << i;
    ASSERT_EQ(run.table.choice(i), reference.table.choice(i))
        << what << " choice at entry " << i;
  }
}

TEST(DpCrossCheck, AllVariantsAndSchedulesMatchSequentialOnRandomShapes) {
  constexpr ParallelDpVariant kVariants[] = {ParallelDpVariant::kScanPerLevel,
                                             ParallelDpVariant::kBucketed};
  constexpr LoopSchedule kSchedules[] = {
      LoopSchedule::kStatic, LoopSchedule::kRoundRobin, LoopSchedule::kDynamic};
  Xoshiro256StarStar rng(0xDECADE);
  ThreadPoolExecutor executor(4);
  for (int round = 0; round < 8; ++round) {
    const Time target = uniform_int(rng, 25, 60);
    const int dims = static_cast<int>(uniform_int(rng, 1, 3));
    std::vector<Time> sizes;
    std::vector<int> counts;
    for (int d = 0; d < dims; ++d) {
      sizes.push_back(uniform_int(rng, target / 4 + 1, target));
      counts.push_back(static_cast<int>(uniform_int(rng, 1, 5)));
    }
    const RoundedInstance rounded = make_rounded(sizes, counts, target);
    const StateSpace space(counts, kBig);
    const ConfigSet configs = enumerate_configs(rounded, space, kBig);
    const DpRun reference = dp_bottom_up(rounded, space, configs);
    ASSERT_EQ(reference.stats.entries_computed, space.size());

    for (const ParallelDpVariant variant : kVariants) {
      for (const LoopSchedule schedule : kSchedules) {
        for (const LevelIteration iteration :
             {LevelIteration::kWalker, LevelIteration::kIndexed}) {
          ParallelDpOptions options;
          options.executor = &executor;
          options.variant = variant;
          options.schedule = schedule;
          options.iteration = iteration;
          const DpRun run = dp_parallel(rounded, space, configs, options);
          const std::string what = parallel_dp_variant_name(variant) + "/" +
                                   loop_schedule_name(schedule) + "/" +
                                   level_iteration_name(iteration) + " round " +
                                   std::to_string(round);
          expect_identical_tables(reference, run, what);
          // Entries-processed totals are identical too: every realisation
          // computes each of the sigma entries exactly once, independent of
          // how iterations were assigned to workers.
          EXPECT_EQ(run.stats.entries_computed, reference.stats.entries_computed)
              << what;
        }
      }
    }
  }
}

/// Executor backends of the team-sweep matrix: every backend this build has.
std::vector<std::string> team_backends() {
  std::vector<std::string> backends{"threadpool", "workstealing"};
#if defined(PCMAX_HAVE_OPENMP)
  backends.emplace_back("openmp");
#endif
  return backends;
}

TEST(DpCrossCheck, TeamSweepMatchesBottomUpAtEveryThreadCount) {
  // The serial reference first, then the team sweep at 1, 2, 3 and 8
  // threads on every executor backend, walker and indexed. Each must
  // reproduce dp_bottom_up byte for byte (values and argmin choices),
  // compute each entry once, conserve scans + pruned against the unpruned
  // scan total, and fill as one region; its values-only probe must match
  // the reference value for value.
  Xoshiro256StarStar rng(0x7EA3);
  for (int round = 0; round < 3; ++round) {
    const Time target = uniform_int(rng, 25, 60);
    const int dims = static_cast<int>(uniform_int(rng, 2, 3));
    std::vector<Time> sizes;
    std::vector<int> counts;
    for (int d = 0; d < dims; ++d) {
      sizes.push_back(uniform_int(rng, target / 4 + 1, target));
      counts.push_back(static_cast<int>(uniform_int(rng, 1, 5)));
    }
    const RoundedInstance rounded = make_rounded(sizes, counts, target);
    const StateSpace space(counts, kBig);
    const ConfigSet configs = enumerate_configs(rounded, space, kBig);
    const DpRun reference = dp_bottom_up(rounded, space, configs);
    const DpRun unpruned =
        dp_bottom_up(rounded, space, configs, DpKernel::kGlobalConfigs, {},
                     DpTableMode::kValuesAndChoices, LevelPruning::kOff);

    for (const unsigned threads : {1u, 2u, 3u, 8u}) {
      for (const LevelIteration iteration :
           {LevelIteration::kWalker, LevelIteration::kIndexed}) {
        const std::string tail = "/" + level_iteration_name(iteration) + "/t" +
                                 std::to_string(threads) + " round " +
                                 std::to_string(round);
        for (const std::string& backend : team_backends()) {
          const std::unique_ptr<Executor> executor = make_executor(backend, threads);
          ParallelDpOptions options;
          options.executor = executor.get();
          options.variant = ParallelDpVariant::kBucketed;
          options.iteration = iteration;
          obs::Metrics metrics(threads);
          const DpRun run = [&] {
            const obs::MetricsScope scope(metrics);
            return dp_parallel(rounded, space, configs, options);
          }();
          const std::string what = "bucketed/" + backend + tail;
          expect_identical_tables(reference, run, what);
          EXPECT_EQ(run.stats.entries_computed, space.size()) << what;
          EXPECT_EQ(run.stats.config_scans + run.stats.configs_pruned,
                    unpruned.stats.config_scans)
              << what;
          if constexpr (obs::kMetricsEnabled) {
            EXPECT_EQ(metrics.counter_total(obs::Counter::kPoolRegions), 1u) << what;
          }

          options.table_mode = DpTableMode::kValuesOnly;
          const DpRun probe = dp_parallel(rounded, space, configs, options);
          EXPECT_FALSE(probe.table.has_choices()) << what;
          EXPECT_EQ(probe.machines_needed, reference.machines_needed) << what;
          for (std::size_t i = 0; i < space.size(); ++i) {
            ASSERT_EQ(probe.table.value(i), reference.table.value(i))
                << what << " values-only entry " << i;
          }
        }
      }
    }
  }
}

/// pool.regions of one PtasSolver solve, and the solve's probe trace.
std::pair<std::uint64_t, PtasResult> solve_counting_regions(
    const Instance& instance, const PtasOptions& options) {
  obs::Metrics metrics(4);
  PtasResult result;
  {
    const obs::MetricsScope scope(metrics);
    result = PtasSolver(options).solve_with_trace(instance);
  }
  return {metrics.counter_total(obs::Counter::kPoolRegions), std::move(result)};
}

TEST(DpCrossCheck, PtasSolverFillsInlineBelowTheCutoffAndInOneTeamAbove) {
  if constexpr (!obs::kMetricsEnabled) GTEST_SKIP() << "PCMAX_METRICS is OFF";
  // Below kTeamFillMinWork a parallel-bucketed fill runs inline (no region);
  // at or above it the fill is exactly one team episode. Either way the
  // makespan is the sequential engine's.
  const auto work = [](const BisectionIteration& probe) {
    return static_cast<std::uint64_t>(probe.table_size) * probe.config_count;
  };
  const Instance small = generate_instance(InstanceFamily::kUniform1To100, 5, 30, 3, 0);
  const Instance large = generate_instance(InstanceFamily::kUniform1To100, 10, 50, 3, 0);
  for (const char* backend : {"threadpool", "workstealing"}) {
    const std::unique_ptr<Executor> executor = make_executor(backend, 2);
    for (const auto& [instance, epsilon] :
         {std::pair{&small, 0.3}, std::pair{&large, 0.2}}) {
      PtasOptions options;
      options.epsilon = epsilon;
      options.keep_trace = true;
      const Time expected = PtasSolver(options).solve(*instance).makespan;
      options.engine = DpEngine::kParallelBucketed;
      options.executor = executor.get();
      const auto [regions, result] = solve_counting_regions(*instance, options);
      std::uint64_t above = 0;
      for (const BisectionIteration& probe : result.bisection.trace) {
        if (work(probe) >= kTeamFillMinWork) ++above;
      }
      const std::string what = std::string(backend) + " eps " + std::to_string(epsilon);
      if (instance == &small) {
        EXPECT_EQ(above, 0u) << what;
      } else {
        EXPECT_GT(above, 0u) << what;
      }
      EXPECT_EQ(regions, above) << what;
      EXPECT_EQ(result.makespan, expected) << what;
    }
  }
}

TEST(DpCrossCheck, PruningAndTableModesAgreeAcrossKernelsAndVariants) {
  // The level-prefix bound, the values-only probe mode, and the walker
  // iteration are pure optimisations: every combination must reproduce the
  // unpruned full-table reference — byte for byte where choices exist, value
  // for value everywhere — while only the scan accounting changes.
  Xoshiro256StarStar rng(0xFACADE);
  ThreadPoolExecutor executor(4);
  for (int round = 0; round < 6; ++round) {
    const Time target = uniform_int(rng, 25, 60);
    const int dims = static_cast<int>(uniform_int(rng, 1, 3));
    std::vector<Time> sizes;
    std::vector<int> counts;
    for (int d = 0; d < dims; ++d) {
      sizes.push_back(uniform_int(rng, target / 4 + 1, target));
      counts.push_back(static_cast<int>(uniform_int(rng, 1, 5)));
    }
    const RoundedInstance rounded = make_rounded(sizes, counts, target);
    const StateSpace space(counts, kBig);
    const ConfigSet configs = enumerate_configs(rounded, space, kBig);
    const std::string tag = " round " + std::to_string(round);

    // Unpruned reference: the pre-optimisation kernel's exact behaviour.
    const DpRun unpruned =
        dp_bottom_up(rounded, space, configs, DpKernel::kGlobalConfigs, {},
                     DpTableMode::kValuesAndChoices, LevelPruning::kOff);
    EXPECT_EQ(unpruned.stats.configs_pruned, 0u);
    EXPECT_EQ(unpruned.stats.config_scans,
              (space.size() - 1) * configs.count());

    // Level-pruned vs unpruned: byte-identical, strictly fewer-or-equal
    // scans, and exact scan/prune conservation.
    const DpRun pruned = dp_bottom_up(rounded, space, configs);
    expect_identical_tables(unpruned, pruned, "pruned" + tag);
    EXPECT_LE(pruned.stats.config_scans, unpruned.stats.config_scans);
    EXPECT_EQ(pruned.stats.config_scans + pruned.stats.configs_pruned,
              unpruned.stats.config_scans);

    // The paper-faithful per-entry enumeration kernel agrees too (its
    // canonical argmin falls out of the lexicographic enumeration order).
    const DpRun enumerated = dp_bottom_up(rounded, space, configs,
                                          DpKernel::kPerEntryEnum);
    expect_identical_tables(unpruned, enumerated, "per-entry-enum" + tag);

    // Values-only mode: same values and OPT(N), no choice array.
    const DpRun values_only =
        dp_bottom_up(rounded, space, configs, DpKernel::kGlobalConfigs, {},
                     DpTableMode::kValuesOnly);
    EXPECT_FALSE(values_only.table.has_choices());
    EXPECT_EQ(values_only.machines_needed, unpruned.machines_needed);
    for (std::size_t i = 0; i < space.size(); ++i) {
      ASSERT_EQ(values_only.table.value(i), unpruned.table.value(i))
          << "values-only entry " << i << tag;
    }

    // Parallel values-only probes (the bisection fast path) across both
    // iteration modes: value-identical, conservation holds per run.
    for (const LevelIteration iteration :
         {LevelIteration::kWalker, LevelIteration::kIndexed}) {
      ParallelDpOptions options;
      options.executor = &executor;
      options.variant = ParallelDpVariant::kBucketed;
      options.iteration = iteration;
      options.table_mode = DpTableMode::kValuesOnly;
      const DpRun run = dp_parallel(rounded, space, configs, options);
      const std::string what =
          "bucketed/" + level_iteration_name(iteration) + " values-only" + tag;
      EXPECT_FALSE(run.table.has_choices()) << what;
      EXPECT_EQ(run.machines_needed, unpruned.machines_needed) << what;
      for (std::size_t i = 0; i < space.size(); ++i) {
        ASSERT_EQ(run.table.value(i), unpruned.table.value(i))
            << what << " entry " << i;
      }
      EXPECT_EQ(run.stats.config_scans + run.stats.configs_pruned,
                unpruned.stats.config_scans)
          << what;
      EXPECT_LE(run.stats.config_scans, unpruned.stats.config_scans) << what;
    }
  }
}

TEST(DpCrossCheck, AllKernelsMatchAcrossEnginesIterationAndTableModes) {
  // The kernel axis of the determinism matrix: forcing every fits-test
  // kernel (auto, scalar, SWAR, AVX2, AVX-512 — unsupported vector kernels
  // degrade down the chain, which is itself part of the contract) under
  // every engine x iteration x table-mode combination must reproduce the
  // sequential bottom-up reference byte for byte.
  constexpr DpKernel kKernels[] = {DpKernel::kGlobalConfigs, DpKernel::kScalar,
                                   DpKernel::kSwar, DpKernel::kAvx2,
                                   DpKernel::kAvx512};
  Xoshiro256StarStar rng(0x51D3);
  WorkStealingExecutor executor(4);
  for (int round = 0; round < 2; ++round) {
    const Time target = uniform_int(rng, 25, 60);
    const int dims = static_cast<int>(uniform_int(rng, 2, 3));
    std::vector<Time> sizes;
    std::vector<int> counts;
    for (int d = 0; d < dims; ++d) {
      sizes.push_back(uniform_int(rng, target / 4 + 1, target));
      counts.push_back(static_cast<int>(uniform_int(rng, 2, 6)));
    }
    const RoundedInstance rounded = make_rounded(sizes, counts, target);
    const StateSpace space(counts, kBig);
    const ConfigSet configs = enumerate_configs(rounded, space, kBig);
    const DpRun reference = dp_bottom_up(rounded, space, configs);

    for (const DpKernel kernel : kKernels) {
      const std::string kname = dp_kernel_name(kernel);

      // Sequential engines.
      DpOptions seq;
      seq.kernel = kernel;
      const DpRun bottom_up = dp_bottom_up(rounded, space, configs, seq);
      expect_identical_tables(reference, bottom_up,
                              "bottom-up/" + kname + " round " +
                                  std::to_string(round));
      const DpRun top_down = dp_top_down(rounded, space, configs, seq);
      EXPECT_EQ(top_down.machines_needed, reference.machines_needed)
          << "top-down/" << kname;
      for (std::size_t i = 0; i < space.size(); ++i) {
        if (top_down.table.value(i) == DpTable::kUnset) continue;
        ASSERT_EQ(top_down.table.value(i), reference.table.value(i))
            << "top-down/" << kname << " entry " << i;
      }

      // Parallel engines: variant x iteration x table mode.
      for (const ParallelDpVariant variant :
           {ParallelDpVariant::kScanPerLevel, ParallelDpVariant::kBucketed}) {
        for (const LevelIteration iteration :
             {LevelIteration::kWalker, LevelIteration::kIndexed}) {
          for (const DpTableMode mode :
               {DpTableMode::kValuesAndChoices, DpTableMode::kValuesOnly}) {
            ParallelDpOptions options;
            options.executor = &executor;
            options.variant = variant;
            options.kernel = kernel;
            options.iteration = iteration;
            options.table_mode = mode;
            const DpRun run = dp_parallel(rounded, space, configs, options);
            const std::string what =
                parallel_dp_variant_name(variant) + "/" +
                level_iteration_name(iteration) + "/" + kname +
                (mode == DpTableMode::kValuesOnly ? "/values-only" : "") +
                " round " + std::to_string(round);
            if (mode == DpTableMode::kValuesAndChoices) {
              expect_identical_tables(reference, run, what);
            } else {
              EXPECT_FALSE(run.table.has_choices()) << what;
              EXPECT_EQ(run.machines_needed, reference.machines_needed)
                  << what;
              for (std::size_t i = 0; i < space.size(); ++i) {
                ASSERT_EQ(run.table.value(i), reference.table.value(i))
                    << what << " entry " << i;
              }
            }
            EXPECT_EQ(run.stats.entries_computed, space.size()) << what;
            EXPECT_EQ(run.stats.kernel, resolve_dp_kernel(kernel)) << what;
          }
        }
      }
    }
  }
}

TEST(DpCrossCheck, MetricsEntryTotalsAgreeAcrossVariantsAndSchedules) {
  if constexpr (!obs::kMetricsEnabled) GTEST_SKIP() << "PCMAX_METRICS is OFF";
  // Same matrix, observed through the metrics layer: each run's per-worker
  // entry totals must sum to sigma no matter how the work was split.
  const RoundedInstance rounded = make_rounded({8, 12, 19}, {3, 3, 2}, 38);
  const StateSpace space(std::vector<int>{3, 3, 2}, kBig);
  const ConfigSet configs = enumerate_configs(rounded, space, kBig);
  ThreadPoolExecutor executor(4);
  obs::Metrics metrics(4);
  const obs::MetricsScope scope(metrics);
  std::size_t expected_runs = 0;
  for (const ParallelDpVariant variant :
       {ParallelDpVariant::kScanPerLevel, ParallelDpVariant::kBucketed}) {
    for (const LoopSchedule schedule :
         {LoopSchedule::kStatic, LoopSchedule::kRoundRobin,
          LoopSchedule::kDynamic}) {
      ParallelDpOptions options;
      options.executor = &executor;
      options.variant = variant;
      options.schedule = schedule;
      dp_parallel(rounded, space, configs, options);
      ++expected_runs;
    }
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
