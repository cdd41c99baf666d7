#include "core/bounds.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "algo/lpt.hpp"
#include "core/instance_gen.hpp"
#include "exact/brute_force.hpp"
#include "exact/exact.hpp"
#include "util/error.hpp"

namespace pcmax {
namespace {

TEST(PigeonholeBound, PairBoundOnKnownInstance) {
  // m = 2, jobs {9,8,7}: among the 3 longest, two share a machine, so
  // OPT >= 8 + 7 = 15 — far above the Eq. 1 bound max(12, 9).
  const Instance instance(2, {9, 8, 7});
  EXPECT_EQ(makespan_lower_bound(instance), 12);
  EXPECT_EQ(pigeonhole_lower_bound(instance, 2), 15);
  EXPECT_EQ(brute_force_optimum(instance), 15);
}

TEST(PigeonholeBound, TripleBound) {
  // m = 2, 5 equal jobs of 10: three share a machine -> OPT >= 30.
  const Instance instance(2, std::vector<Time>(5, 10));
  EXPECT_EQ(pigeonhole_lower_bound(instance, 3), 30);
  EXPECT_EQ(brute_force_optimum(instance), 30);
}

TEST(PigeonholeBound, ZeroWhenTooFewJobs) {
  const Instance instance(4, {5, 5});
  EXPECT_EQ(pigeonhole_lower_bound(instance, 2), 0);
}

TEST(PigeonholeBound, RejectsGroupBelowTwo) {
  const Instance instance(2, {1, 2, 3});
  EXPECT_THROW((void)pigeonhole_lower_bound(instance, 1), InvalidArgumentError);
}

TEST(PigeonholeBound, UsesTheShortestOfThePrefix) {
  // m = 2, jobs {100, 1, 1}: the pair bound must use the two SHORTEST of
  // the three longest: 1 + 1 = 2, not 100 + 1.
  const Instance instance(2, {100, 1, 1});
  EXPECT_EQ(pigeonhole_lower_bound(instance, 2), 2);
}

TEST(PigeonholeBound, UsesTheEffectiveMachineCount) {
  // Capacity B = 2 on 4 machines bounds like the classic twin on 2: among
  // the 3 longest jobs two share one of the 2 usable machines.
  const Instance capped = Instance::capacity_restricted(4, {9, 8, 7}, 2);
  EXPECT_EQ(pigeonhole_lower_bound(capped, 2), 15);
  EXPECT_EQ(improved_lower_bound(capped), 15);
  EXPECT_EQ(improved_lower_bound(Instance(4, {9, 8, 7})), 9);
}

TEST(ImprovedLowerBound, LongestFirstOrderGivesTheSameBound) {
  for (const InstanceFamily family : all_families()) {
    for (std::uint64_t index = 0; index < 4; ++index) {
      const Instance instance = generate_instance(family, 4, 23, 67, index);
      std::vector<int> jobs(static_cast<std::size_t>(instance.jobs()));
      std::iota(jobs.begin(), jobs.end(), 0);
      EXPECT_EQ(improved_lower_bound(instance, sort_jobs_lpt(instance, jobs)),
                improved_lower_bound(instance))
          << family_name(family) << " #" << index;
    }
  }
  const Instance instance(2, {9, 8, 7});
  EXPECT_THROW((void)improved_lower_bound(instance, std::vector<int>{0, 1}),
               InvalidArgumentError);
}

TEST(ImprovedLowerBound, DominatesTheBasicBound) {
  for (const InstanceFamily family : all_families()) {
    for (std::uint64_t index = 0; index < 4; ++index) {
      const Instance instance = generate_instance(family, 3, 13, 61, index);
      EXPECT_GE(improved_lower_bound(instance), makespan_lower_bound(instance))
          << family_name(family);
    }
  }
}

TEST(ImprovedLowerBound, NeverExceedsTheOptimum) {
  for (const InstanceFamily family : all_families()) {
    for (std::uint64_t index = 0; index < 4; ++index) {
      const Instance instance = generate_instance(family, 3, 12, 71, index);
      EXPECT_LE(improved_lower_bound(instance), brute_force_optimum(instance))
          << family_name(family) << " #" << index;
    }
  }
}

TEST(ImprovedLowerBound, IsTightOnNarrowRangeInstances) {
  // U(95,105)-style: nearly equal jobs are exactly where the pigeonhole
  // bounds shine (ceil(total/m) underestimates by almost a full job).
  const Instance instance(2, {100, 99, 101});
  EXPECT_EQ(improved_lower_bound(instance), 199);
  EXPECT_EQ(brute_force_optimum(instance), 199);
}

TEST(ImprovedLowerBound, SpeedsUpTheExactSolver) {
  // On the adversarial family the interval often closes without probes.
  const Instance instance =
      generate_instance(InstanceFamily::kUniformMTo2M1, 5, 11, 5, 0);
  const SolverResult result = ExactSolver().solve(instance);
  EXPECT_TRUE(result.proven_optimal);
  EXPECT_EQ(result.makespan, brute_force_optimum(instance));
}

}  // namespace
}  // namespace pcmax
