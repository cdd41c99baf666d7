// Correctness tests of the DP: bottom-up on hand-checked shapes, both
// parallel variants against it on executors shared with other loops, the
// level array and executor requirement of the parallel variants, the
// per-entry enumeration kernel and the scan accounting. The byte-equality
// matrix of every parallel path against the per-entry reference lives in
// ptas_dp_crosscheck_test.cpp.
#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "algo/ptas/config_enum.hpp"
#include "algo/ptas/dp_parallel.hpp"
#include "algo/ptas/dp_sequential.hpp"
#include "util/error.hpp"

namespace pcmax {
namespace {

constexpr std::size_t kBig = std::size_t{1} << 40;

struct DpFixture {
  RoundedInstance rounded;
  StateSpace space;
  ConfigSet configs;

  DpFixture(std::vector<Time> sizes, std::vector<int> counts, Time target)
      : rounded(make(sizes, counts, target)),
        space(counts, kBig),
        configs(enumerate_configs(rounded, space, kBig)) {}

  static RoundedInstance make(const std::vector<Time>& sizes,
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
};

TEST(DpBottomUp, SolvesThePaperExample) {
  // Two jobs of rounded size 6 and three of size 11, T = 30.
  // Two machines suffice: {6,11,11} = 28 and {6,11} = 17.
  DpFixture f({6, 11}, {2, 3}, 30);
  const DpRun run = dp_bottom_up(f.rounded, f.space, f.configs);
  EXPECT_EQ(run.machines_needed, 2);
  EXPECT_EQ(run.table.value(0), 0);  // OPT(0,0) = 0
  EXPECT_EQ(run.stats.entries_computed, 12u);
  EXPECT_EQ(run.stats.table_size, 12u);
  EXPECT_EQ(run.stats.levels, 6);
}

TEST(DpBottomUp, SingleJobNeedsOneMachine) {
  DpFixture f({10}, {1}, 30);
  EXPECT_EQ(dp_bottom_up(f.rounded, f.space, f.configs).machines_needed, 1);
}

TEST(DpBottomUp, TightCapacityForcesOneMachinePerJob) {
  // Each job has rounded size 20 and T = 30: no two jobs share a machine.
  DpFixture f({20}, {5}, 30);
  EXPECT_EQ(dp_bottom_up(f.rounded, f.space, f.configs).machines_needed, 5);
}

TEST(DpBottomUp, PerfectPackingIsFound) {
  // Sizes 10 and 15; T = 30: machines (3,0) and (0,2) pack 6 jobs of size
  // 10 into 2 machines and 4 jobs of 15 into 2 machines.
  DpFixture f({10, 15}, {6, 4}, 30);
  EXPECT_EQ(dp_bottom_up(f.rounded, f.space, f.configs).machines_needed, 4);
}

TEST(DpBottomUp, EmptyInstanceNeedsZeroMachines) {
  DpFixture f({}, {}, 30);
  const DpRun run = dp_bottom_up(f.rounded, f.space, f.configs);
  EXPECT_EQ(run.machines_needed, 0);
  EXPECT_EQ(run.stats.table_size, 1u);
}

TEST(DpBottomUp, MatchesFirstFitReasoningOnMixedSizes) {
  // Sizes 9, 13, 17 with counts 2, 2, 1 and T = 30.
  // Total = 61 -> at least 3 machines; {17,13},{13,9},{9} wait that's 3:
  // 17+13=30 <= 30, 13+9=22, 9 alone -> 3 machines.
  DpFixture f({9, 13, 17}, {2, 2, 1}, 30);
  EXPECT_EQ(dp_bottom_up(f.rounded, f.space, f.configs).machines_needed, 3);
}

// The fills share their executor with the solver's other loops (the
// parallel sort claims single iterations, the level array the automatic
// chunk), so each case runs a loop of the given claim size on the same
// executor between two fills: the pool's episodes of another claim size
// must leave the next fill's table exactly the bottom-up one.
class ParallelDpEquivalence
    : public ::testing::TestWithParam<std::tuple<ParallelDpVariant, unsigned,
                                                 std::size_t>> {};

TEST_P(ParallelDpEquivalence, ProducesTheExactBottomUpTable) {
  const auto [variant, threads, chunk] = GetParam();

  const DpFixture fixtures[] = {
      DpFixture({6, 11}, {2, 3}, 30),
      DpFixture({9, 13, 17}, {3, 2, 2}, 40),
      DpFixture({20}, {5}, 30),
      DpFixture({}, {}, 30),
      DpFixture({7, 8, 9, 10}, {2, 1, 2, 1}, 31),
  };
  WorkStealingExecutor executor(threads);
  ParallelDpOptions options;
  options.variant = variant;
  options.executor = &executor;

  for (const DpFixture& f : fixtures) {
    const DpRun expected = dp_bottom_up(f.rounded, f.space, f.configs);
    for (int round = 0; round < 2; ++round) {
      const DpRun run = dp_parallel(f.rounded, f.space, f.configs, options);
      EXPECT_EQ(run.machines_needed, expected.machines_needed);
      EXPECT_EQ(run.stats.entries_computed, expected.stats.entries_computed);
      for (std::size_t i = 0; i < f.space.size(); ++i) {
        ASSERT_EQ(run.table.value(i), expected.table.value(i))
            << parallel_dp_variant_name(variant) << " threads=" << threads
            << " round " << round << " entry " << i;
      }

      std::vector<int> hits(f.space.size() + 7, 0);
      Executor& base = executor;  // the default cancel argument lives here
      base.parallel_for_ranges(
          hits.size(),
          [&](std::size_t begin, std::size_t end, unsigned) {
            for (std::size_t i = begin; i < end; ++i) ++hits[i];
          },
          chunk);
      for (std::size_t i = 0; i < hits.size(); ++i) {
        ASSERT_EQ(hits[i], 1) << "chunk " << chunk << " index " << i;
      }
    }
  }
}

std::string equivalence_name(
    const ::testing::TestParamInfo<
        std::tuple<ParallelDpVariant, unsigned, std::size_t>>& info) {
  const auto [variant, threads, chunk] = info.param;
  std::string name = parallel_dp_variant_name(variant);
  for (auto& ch : name) {
    if (ch == '-') ch = '_';
  }
  name += "_t" + std::to_string(threads);
  // The labels name the claim sizes: automatic contiguous blocks, single
  // iterations dealt out one at a time, and a fixed chunk.
  name += chunk == 0 ? "_static" : chunk == 1 ? "_rr" : "_dyn";
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, ParallelDpEquivalence,
    ::testing::Combine(::testing::Values(ParallelDpVariant::kScanPerLevel,
                                         ParallelDpVariant::kBucketed),
                       ::testing::Values(1u, 2u, 4u),
                       ::testing::Values(std::size_t{0}, std::size_t{1},
                                         std::size_t{5})),
    equivalence_name);

TEST(ComputeLevels, MatchesLevelOf) {
  const StateSpace space({3, 2, 2}, kBig);
  for (unsigned threads : {1u, 3u}) {
    WorkStealingExecutor executor(threads);
    const std::vector<std::int32_t> levels = compute_levels(space, executor);
    ASSERT_EQ(levels.size(), space.size());
    for (std::size_t i = 0; i < space.size(); ++i) {
      EXPECT_EQ(levels[i], space.level_of(i));
    }
  }
}

TEST(DpParallel, ScanAndBucketedRequireAnExecutor) {
  DpFixture f({6}, {1}, 30);
  ParallelDpOptions options;
  options.variant = ParallelDpVariant::kBucketed;
  options.executor = nullptr;
  EXPECT_THROW((void)dp_parallel(f.rounded, f.space, f.configs, options),
               InvalidArgumentError);
}

TEST(DpKernels, PerEntryEnumerationMatchesGlobalConfigsExactly) {
  // The paper-faithful kernel (re-enumerating C_v per entry, Alg. 3 Line 17)
  // must reproduce the optimised kernel's values.
  const DpFixture fixtures[] = {
      DpFixture({6, 11}, {2, 3}, 30),
      DpFixture({9, 13, 17}, {3, 2, 2}, 40),
      DpFixture({20}, {5}, 30),
      DpFixture({7, 8, 9, 10}, {2, 1, 2, 1}, 31),
  };
  DpOptions per_entry;
  per_entry.kernel = DpKernel::kPerEntryEnum;
  for (const DpFixture& f : fixtures) {
    const DpRun global = dp_bottom_up(f.rounded, f.space, f.configs);
    const DpRun enumerated = dp_bottom_up(f.rounded, f.space, f.configs, per_entry);
    EXPECT_EQ(enumerated.machines_needed, global.machines_needed);
    for (std::size_t i = 0; i < f.space.size(); ++i) {
      ASSERT_EQ(enumerated.table.value(i), global.table.value(i)) << i;
    }
    // Per-entry enumeration only ever touches fitting configs, so it scans
    // no more candidates than the global scan does.
    EXPECT_LE(enumerated.stats.config_scans, global.stats.config_scans);
  }
}

TEST(DpKernels, ParallelVariantsSupportPerEntryEnumeration) {
  DpFixture f({9, 13, 17}, {3, 2, 2}, 40);
  DpOptions per_entry;
  per_entry.kernel = DpKernel::kPerEntryEnum;
  const DpRun expected = dp_bottom_up(f.rounded, f.space, f.configs, per_entry);
  for (const ParallelDpVariant variant :
       {ParallelDpVariant::kScanPerLevel, ParallelDpVariant::kBucketed}) {
    WorkStealingExecutor executor(2);
    ParallelDpOptions options;
    options.variant = variant;
    options.executor = &executor;
    options.kernel = DpKernel::kPerEntryEnum;
    const DpRun run = dp_parallel(f.rounded, f.space, f.configs, options);
    EXPECT_EQ(run.machines_needed, expected.machines_needed);
    for (std::size_t i = 0; i < f.space.size(); ++i) {
      ASSERT_EQ(run.table.value(i), expected.table.value(i))
          << parallel_dp_variant_name(variant) << " " << i;
    }
  }
}

TEST(DpStats, ConfigScansAreConsistentAcrossVariants) {
  DpFixture f({9, 13, 17}, {3, 2, 2}, 40);
  const DpRun bottom = dp_bottom_up(f.rounded, f.space, f.configs);
  WorkStealingExecutor executor(2);
  ParallelDpOptions options;
  options.variant = ParallelDpVariant::kBucketed;
  options.executor = &executor;
  const DpRun par = dp_parallel(f.rounded, f.space, f.configs, options);
  // Conservation: for every non-origin entry each of the |C| configs is
  // either scanned or pruned by the level bound, identically across
  // variants (the pruning decision depends only on the entry's level).
  EXPECT_EQ(par.stats.config_scans, bottom.stats.config_scans);
  EXPECT_EQ(par.stats.configs_pruned, bottom.stats.configs_pruned);
  EXPECT_EQ(bottom.stats.config_scans + bottom.stats.configs_pruned,
            (f.space.size() - 1) * f.configs.count());
  // The level bound actually bites on this instance.
  EXPECT_GT(bottom.stats.configs_pruned, 0u);
  EXPECT_LE(bottom.stats.config_scans,
            (f.space.size() - 1) * f.configs.count());
}

}  // namespace
}  // namespace pcmax
