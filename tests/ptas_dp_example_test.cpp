// Locks down the paper's worked example (§III, Table I and Figure 1):
// N = (2,3) with rounded sizes 6 and 11, target T = 30, and the DP-table
// contents, level structure and processor assignment it implies.
#include <gtest/gtest.h>

#include <set>
#include <utility>
#include <vector>

#include "algo/ptas/config_enum.hpp"
#include "algo/ptas/dp_parallel.hpp"
#include "algo/ptas/dp_sequential.hpp"
#include "algo/ptas/reconstruct.hpp"

namespace pcmax {
namespace {

constexpr std::size_t kBig = std::size_t{1} << 40;

RoundedInstance paper_rounded() {
  RoundedInstance rounded;
  rounded.params = RoundingParams::make(30, 4);
  rounded.class_index = {6, 11};  // the paper labels classes by their size
  rounded.class_size = {6, 11};
  rounded.class_count = {2, 3};
  rounded.class_jobs = {{0, 1}, {2, 3, 4}};
  rounded.total_long_jobs = 5;
  return rounded;
}

TEST(PaperExample, TableHasTwelveEntries) {
  const StateSpace space({2, 3}, kBig);
  EXPECT_EQ(space.size(), 12u);  // (2+1)*(3+1), paper §III
}

TEST(PaperExample, FullDpTableContents) {
  // Hand-derived Table I. OPT(v1, v2) = minimum machines for v1 jobs of
  // size 6 and v2 jobs of size 11 within T = 30:
  //   (0,0)=0 (0,1)=1 (0,2)=1 (0,3)=2
  //   (1,0)=1 (1,1)=1 (1,2)=1 (1,3)=2
  //   (2,0)=1 (2,1)=1 (2,2)=2 (2,3)=2
  // e.g. (1,2): 6+11+11 = 28 <= 30 -> one machine; (0,3): 33 > 30 -> two.
  const RoundedInstance rounded = paper_rounded();
  const StateSpace space({2, 3}, kBig);
  const ConfigSet configs = enumerate_configs(rounded, space, kBig);
  const DpRun run = dp_bottom_up(rounded, space, configs);

  const std::int32_t expected[12] = {0, 1, 1, 2, 1, 1, 1, 2, 1, 1, 2, 2};
  for (std::size_t i = 0; i < 12; ++i) {
    EXPECT_EQ(run.table.value(i), expected[i]) << "entry " << i;
  }
  EXPECT_EQ(run.machines_needed, 2);
}

TEST(PaperExample, DependenciesOfEquation11) {
  // Eq. (11): OPT(2,0) <- {OPT(1,0), OPT(0,0)},
  //           OPT(1,1) <- {OPT(1,0), OPT(0,1), OPT(0,0)},
  //           OPT(0,2) <- {OPT(0,1), OPT(0,0)}.
  // Predecessors of v are v - s over configs s <= v.
  const RoundedInstance rounded = paper_rounded();
  const StateSpace space({2, 3}, kBig);
  const ConfigSet configs = enumerate_configs(rounded, space, kBig);

  auto predecessors = [&](std::vector<int> v) {
    std::set<std::vector<int>> result;
    for (std::size_t c = 0; c < configs.count(); ++c) {
      const auto s = configs.config(c);
      if (!config_fits(s, v)) continue;
      result.insert({v[0] - s[0], v[1] - s[1]});
    }
    return result;
  };

  EXPECT_EQ(predecessors({2, 0}),
            (std::set<std::vector<int>>{{1, 0}, {0, 0}}));
  EXPECT_EQ(predecessors({1, 1}),
            (std::set<std::vector<int>>{{1, 0}, {0, 1}, {0, 0}}));
  EXPECT_EQ(predecessors({0, 2}),
            (std::set<std::vector<int>>{{0, 1}, {0, 0}}));
}

TEST(PaperExample, AntiDiagonalLevelsMatchFigure1) {
  // Figure 1: six levels of widths 1,2,3,3,2,1; entries on one level are
  // independent (equal digit sums).
  const StateSpace space({2, 3}, kBig);
  EXPECT_EQ(space.max_level(), 5);
  EXPECT_EQ(space.level_histogram(),
            (std::vector<std::size_t>{1, 2, 3, 3, 2, 1}));
}

TEST(PaperExample, FourProcessorSweepNeverIdlesMoreThanNecessary) {
  // With P = 4 processors (the paper's illustration) every level fits in a
  // single parallel round: ceil(q_l / 4) = 1 for all levels.
  const StateSpace space({2, 3}, kBig);
  for (std::size_t q : space.level_histogram()) {
    EXPECT_EQ((q + 3) / 4, 1u);
  }
}

TEST(PaperExample, ParallelSweepReproducesTableOnFourProcessors) {
  const RoundedInstance rounded = paper_rounded();
  const StateSpace space({2, 3}, kBig);
  const ConfigSet configs = enumerate_configs(rounded, space, kBig);

  WorkStealingExecutor executor(4);
  ParallelDpOptions options;
  options.executor = &executor;
  options.variant = ParallelDpVariant::kScanPerLevel;  // Algorithm 3 verbatim
  const DpRun run = dp_parallel(rounded, space, configs, options);

  const std::int32_t expected[12] = {0, 1, 1, 2, 1, 1, 1, 2, 1, 1, 2, 2};
  for (std::size_t i = 0; i < 12; ++i) {
    EXPECT_EQ(run.table.value(i), expected[i]);
  }
}

TEST(PaperExample, ReconstructionWalkUsesTwoMachines) {
  const RoundedInstance rounded = paper_rounded();
  StateSpace space({2, 3}, kBig);
  ConfigSet configs = enumerate_configs(rounded, space, kBig);
  DpRun run = dp_bottom_up(rounded, space, configs);
  ASSERT_EQ(run.machines_needed, 2);
  const DpAtTarget at{rounded, std::move(space), std::move(configs), std::move(run)};

  // Walk back from OPT(2,3) = 2 through the values: the first machine takes
  // s = (0,2), the fitting config of smallest offset whose predecessor
  // OPT(2,1) is 1, and the second takes the rest, s = (2,1).
  const Instance instance(2, {6, 6, 11, 11, 11});
  const Schedule schedule = reconstruct_long_schedule(instance, at);
  EXPECT_EQ(schedule.jobs_on(0), (std::vector<int>{2, 3}));
  EXPECT_EQ(schedule.jobs_on(1), (std::vector<int>{0, 1, 4}));
}

}  // namespace
}  // namespace pcmax
