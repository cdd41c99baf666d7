#include "exact/exact.hpp"

#include <gtest/gtest.h>

#include <string>

#include "core/bounds.hpp"
#include "core/instance_gen.hpp"
#include "exact/bin_feasibility.hpp"
#include "exact/brute_force.hpp"
#include "util/error.hpp"

namespace pcmax {
namespace {

// ------------------------------------------------------------ BruteForce --

TEST(BruteForce, SolvesHandVerifiedInstances) {
  EXPECT_EQ(brute_force_optimum(Instance(2, {3, 3, 2, 2, 2})), 6);
  EXPECT_EQ(brute_force_optimum(Instance(3, {1, 1, 1, 1, 1, 3})), 3);
  EXPECT_EQ(brute_force_optimum(Instance(2, {10})), 10);
  EXPECT_EQ(brute_force_optimum(Instance(1, {2, 3, 4})), 9);
  EXPECT_EQ(brute_force_optimum(Instance(4, {5, 5, 5, 5})), 5);
}

TEST(BruteForce, ProducesValidOptimalSchedules) {
  const Instance instance(3, {7, 5, 4, 4, 3, 2});
  const SolverResult result = BruteForceSolver().solve(instance);
  result.schedule.validate(instance);
  EXPECT_TRUE(result.proven_optimal);
  EXPECT_EQ(result.makespan, result.schedule.makespan(instance));
  EXPECT_GE(result.makespan, makespan_lower_bound(instance));
}

TEST(BruteForce, GuardsAgainstLargeInstances) {
  const Instance instance(2, std::vector<Time>(20, 1));
  EXPECT_THROW((void)BruteForceSolver().solve(instance), InvalidArgumentError);
  EXPECT_NO_THROW((void)BruteForceSolver(20).solve(instance));
}

// ------------------------------------------------------------ pack_within -

TEST(PackWithin, FeasibleExactFit) {
  const Instance instance(2, {3, 3, 2, 2, 2});
  Schedule witness(2);
  FeasibilityStats stats;
  EXPECT_EQ(pack_within(instance, 6, {}, &witness, &stats), Feasibility::kFeasible);
  witness.validate(instance);
  EXPECT_LE(witness.makespan(instance), 6);
  EXPECT_GE(stats.nodes, 1u);
}

TEST(PackWithin, InfeasibleBelowOptimum) {
  const Instance instance(2, {3, 3, 2, 2, 2});  // OPT = 6
  EXPECT_EQ(pack_within(instance, 5, {}, nullptr, nullptr),
            Feasibility::kInfeasible);
}

TEST(PackWithin, InfeasibleWhenLongestJobExceedsCapacity) {
  const Instance instance(3, {10, 1});
  FeasibilityStats stats;
  EXPECT_EQ(pack_within(instance, 9, {}, nullptr, &stats),
            Feasibility::kInfeasible);
  EXPECT_EQ(stats.nodes, 0u);  // rejected before any search
}

TEST(PackWithin, UnknownWhenNodeBudgetIsExhausted) {
  // A packing-hard instance with a 1-node budget cannot be decided.
  const Instance instance =
      generate_instance(InstanceFamily::kUniform1To10N, 4, 24, 1, 0);
  FeasibilitySearchLimits limits;
  limits.max_nodes = 1;
  const Time tight = makespan_lower_bound(instance);
  const Feasibility answer = pack_within(instance, tight, limits, nullptr, nullptr);
  EXPECT_NE(answer, Feasibility::kInfeasible);  // cannot *prove* anything
}

TEST(PackWithin, AgreesWithBruteForceAroundTheOptimum) {
  for (std::uint64_t index = 0; index < 6; ++index) {
    const Instance instance =
        generate_instance(InstanceFamily::kUniform1To100, 3, 10, 7, index);
    const Time opt = brute_force_optimum(instance);
    EXPECT_EQ(pack_within(instance, opt, {}, nullptr, nullptr),
              Feasibility::kFeasible)
        << "#" << index;
    if (opt > makespan_lower_bound(instance)) {
      // opt-1 can still be >= LB; it must then be proven infeasible.
      EXPECT_EQ(pack_within(instance, opt - 1, {}, nullptr, nullptr),
                Feasibility::kInfeasible)
          << "#" << index;
    }
  }
}

// ------------------------------------------------------------ ExactSolver -

TEST(ExactSolver, MatchesBruteForceAcrossFamilies) {
  for (const InstanceFamily family : all_families()) {
    for (std::uint64_t index = 0; index < 3; ++index) {
      const Instance instance = generate_instance(family, 3, 11, 9, index);
      const SolverResult exact = ExactSolver().solve(instance);
      exact.schedule.validate(instance);
      EXPECT_TRUE(exact.proven_optimal) << family_name(family);
      EXPECT_EQ(exact.makespan, brute_force_optimum(instance))
          << family_name(family) << " #" << index;
    }
  }
}

TEST(ExactSolver, SolvesPaperSizedInstancesOnEasyFamilies) {
  const Instance instance =
      generate_instance(InstanceFamily::kUniform1To10, 10, 50, 2, 0);
  const SolverResult result = ExactSolver().solve(instance);
  result.schedule.validate(instance);
  EXPECT_TRUE(result.proven_optimal);
  EXPECT_GE(result.makespan, makespan_lower_bound(instance));
}

TEST(ExactSolver, DegradesGracefullyUnderBudget) {
  ExactSolverOptions options;
  options.probe_limits.max_nodes = 10;
  options.max_total_seconds = 0.001;
  const Instance instance =
      generate_instance(InstanceFamily::kUniform1To10N, 5, 30, 3, 0);
  const SolverResult result = ExactSolver(options).solve(instance);
  result.schedule.validate(instance);  // incumbent is still a full schedule
  EXPECT_GE(result.makespan, makespan_lower_bound(instance));
}

TEST(ExactSolver, ReportsSearchStats) {
  const Instance instance =
      generate_instance(InstanceFamily::kUniform1To100, 3, 12, 4, 0);
  const SolverResult result = ExactSolver().solve(instance);
  EXPECT_GE(result.stats.at("probes"), 0.0);
  EXPECT_GE(result.stats.at("lower_bound"), 1.0);
  EXPECT_EQ(result.stats.at("lower_bound"), static_cast<double>(result.makespan));
}

TEST(ExactSolver, RejectsACallerSetProbeToken) {
  ExactSolverOptions options;
  options.probe_limits.cancel = CancellationToken::make();
  try {
    (void)ExactSolver(options);
    FAIL() << "expected InvalidArgumentError";
  } catch (const InvalidArgumentError& e) {
    EXPECT_NE(std::string(e.what()).find("SolveContext.cancel"),
              std::string::npos)
        << e.what();
  }
}

TEST(ExactSolver, NameIsIP) {
  EXPECT_EQ(ExactSolver().name(), "IP");
}

TEST(ExactSolver, OptimalEqualsLowerBoundWhenJobsDivideEvenly) {
  const Instance instance(3, {4, 4, 4, 4, 4, 4});  // 2 per machine
  const SolverResult result = ExactSolver().solve(instance);
  EXPECT_TRUE(result.proven_optimal);
  EXPECT_EQ(result.makespan, 8);
}

}  // namespace
}  // namespace pcmax
