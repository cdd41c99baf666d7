#include "algo/ptas/bisection.hpp"

#include <gtest/gtest.h>

#include <optional>

#include "algo/lpt.hpp"
#include "algo/ptas/dp_sequential.hpp"
#include "algo/ptas/reconstruct.hpp"
#include "core/bounds.hpp"
#include "core/instance_gen.hpp"
#include "exact/brute_force.hpp"
#include "util/error.hpp"

namespace pcmax {
namespace {

DpBackendFn bottom_up_backend() {
  return [](const RoundedInstance& rounded, const StateSpace& space,
            const ConfigSet& configs) {
    return dp_bottom_up(rounded, space, configs);
  };
}

TEST(RunDpAt, ProducesAFeasibleProbeAtTheUpperBound) {
  const Instance instance(3, {9, 8, 7, 6, 5, 4});
  const Time ub = makespan_upper_bound(instance);
  const DpAtTarget at = run_dp_at(instance, ub, 4, bottom_up_backend(), {});
  EXPECT_NE(at.run.machines_needed, DpTable::kInfeasible);
  EXPECT_LE(at.run.machines_needed, instance.machines());
}

TEST(RunDpAt, RejectsTargetsBelowTheLongestJob) {
  const Instance instance(2, {40, 5});
  EXPECT_THROW((void)run_dp_at(instance, 30, 4, bottom_up_backend(), {}),
               InternalError);
}

TEST(RunDpAt, HonoursTableBudget) {
  const Instance instance =
      generate_instance(InstanceFamily::kUniform1To100, 4, 30, 3, 0);
  DpLimits limits;
  limits.max_table_entries = 2;  // absurdly small: must trip
  EXPECT_THROW((void)run_dp_at(instance, makespan_lower_bound(instance), 4,
                               bottom_up_backend(), limits),
               ResourceLimitError);
}

TEST(Bisection, ConvergesWithConsistentTrace) {
  const Instance instance =
      generate_instance(InstanceFamily::kUniform1To100, 3, 12, 5, 0);
  const BisectionResult result =
      bisect_target_makespan(instance, 4, bottom_up_backend(), {},
                             paper_search_bracket(instance));

  EXPECT_EQ(result.lb0, makespan_lower_bound(instance));
  EXPECT_EQ(result.ub0, makespan_upper_bound(instance));
  EXPECT_GE(result.t_star, result.lb0);
  EXPECT_LE(result.t_star, result.ub0);
  EXPECT_FALSE(result.trace.empty());

  // The trace replays a correct bisection: feasible probes lower UB,
  // infeasible probes raise LB, targets always the midpoint.
  Time lb = result.lb0;
  Time ub = result.ub0;
  for (const BisectionIteration& it : result.trace) {
    EXPECT_EQ(it.target, lb + (ub - lb) / 2);
    if (it.feasible) {
      ub = it.target;
    } else {
      lb = it.target + 1;
    }
  }
  EXPECT_EQ(lb, ub);
  EXPECT_EQ(result.t_star, lb);
}

TEST(Bisection, StartsFromTheGivenBracket) {
  const Instance instance =
      generate_instance(InstanceFamily::kUniform1To100, 3, 12, 5, 0);
  const Time lb = makespan_lower_bound(instance);
  const Time ub = LptSolver().solve(instance).makespan;  // a schedule's makespan
  ASSERT_LT(lb, ub);
  const BisectionResult result =
      bisect_target_makespan(instance, 4, bottom_up_backend(), {}, {lb, ub});
  EXPECT_EQ(result.lb0, lb);
  EXPECT_EQ(result.ub0, makespan_upper_bound(instance));
  EXPECT_EQ(result.lb_start, lb);
  EXPECT_EQ(result.ub_start, ub);
  ASSERT_FALSE(result.trace.empty());
  EXPECT_EQ(result.trace.front().target, lb + (ub - lb) / 2);
  EXPECT_GE(result.t_star, lb);
  EXPECT_LE(result.t_star, ub);
}

TEST(Bisection, RejectsAnInvertedBracket) {
  const Instance instance(2, {5, 4, 3});
  EXPECT_THROW((void)bisect_target_makespan(instance, 4, bottom_up_backend(), {},
                                            {10, 9}),
               InvalidArgumentError);
}

TEST(Bisection, IterationCountIsLogarithmic) {
  const Instance instance =
      generate_instance(InstanceFamily::kUniform1To10N, 3, 15, 6, 0);
  const BisectionResult result =
      bisect_target_makespan(instance, 4, bottom_up_backend(), {},
                             paper_search_bracket(instance));
  // ceil(log2(UB-LB)) + 1 iterations at most.
  int bound = 1;
  for (Time range = result.ub0 - result.lb0; range > 0; range /= 2) ++bound;
  EXPECT_LE(static_cast<int>(result.trace.size()), bound);
}

TEST(Bisection, TStarIsNeverAboveTheOptimum) {
  // T* is the smallest target whose *rounded* relaxation fits on m machines;
  // since rounding only shrinks jobs, T* <= OPT.
  for (std::uint64_t index = 0; index < 5; ++index) {
    const Instance instance =
        generate_instance(InstanceFamily::kUniform1To100, 3, 10, 11, index);
    const BisectionResult result =
        bisect_target_makespan(instance, 4, bottom_up_backend(), {},
                               paper_search_bracket(instance));
    EXPECT_LE(result.t_star, brute_force_optimum(instance)) << "#" << index;
  }
}

TEST(Bisection, FinalTargetIsFeasibleWhenReprobed) {
  const Instance instance =
      generate_instance(InstanceFamily::kUniform1To10, 4, 20, 13, 0);
  const BisectionResult result =
      bisect_target_makespan(instance, 4, bottom_up_backend(), {},
                             paper_search_bracket(instance));
  const DpAtTarget at =
      run_dp_at(instance, result.t_star, 4, bottom_up_backend(), {});
  EXPECT_LE(at.run.machines_needed, instance.machines());
}

TEST(Bisection, HandsBackTheLastFeasibleProbe) {
  const Instance instance =
      generate_instance(InstanceFamily::kUniform1To10, 4, 20, 13, 0);
  std::optional<DpAtTarget> kept;
  const BisectionResult result =
      bisect_target_makespan(instance, 4, bottom_up_backend(), {},
                             paper_search_bracket(instance), &kept);
  ASSERT_TRUE(kept.has_value());
  EXPECT_EQ(kept->rounded.params.target, result.t_star);
  // The kept table is the one a fresh probe at T* fills, and so is the
  // schedule reconstructed from it.
  const DpAtTarget reprobed =
      run_dp_at(instance, result.t_star, 4, bottom_up_backend(), {});
  ASSERT_EQ(kept->run.table.size(), reprobed.run.table.size());
  for (std::size_t i = 0; i < reprobed.run.table.size(); ++i) {
    ASSERT_EQ(kept->run.table.value(i), reprobed.run.table.value(i)) << i;
  }
  EXPECT_EQ(reconstruct_full_schedule(instance, *kept),
            reconstruct_full_schedule(instance, reprobed));

  // A closed bracket runs no probe, so none is handed back.
  bisect_target_makespan(instance, 4, bottom_up_backend(), {},
                         {result.t_star, result.t_star}, &kept);
  EXPECT_FALSE(kept.has_value());
}

TEST(Bisection, TraceRecordsDpShape) {
  const Instance instance =
      generate_instance(InstanceFamily::kUniform1To100, 3, 12, 5, 1);
  const BisectionResult result =
      bisect_target_makespan(instance, 4, bottom_up_backend(), {},
                             paper_search_bracket(instance));
  for (const BisectionIteration& it : result.trace) {
    std::size_t expected_size = 1;
    for (int c : it.counts) expected_size *= static_cast<std::size_t>(c) + 1;
    EXPECT_EQ(it.table_size, expected_size);
    EXPECT_EQ(it.entries_computed, it.table_size);  // bottom-up fills all
    EXPECT_GE(it.dp_seconds, 0.0);
  }
}

TEST(Reconstruct, FullScheduleIsValidAndWithinTheGuarantee) {
  for (std::uint64_t index = 0; index < 5; ++index) {
    const Instance instance =
        generate_instance(InstanceFamily::kUniform1To100, 3, 10, 17, index);
    const int k = 4;
    const BisectionResult result =
        bisect_target_makespan(instance, k, bottom_up_backend(), {},
                               paper_search_bracket(instance));
    const DpAtTarget at =
        run_dp_at(instance, result.t_star, k, bottom_up_backend(), {});
    const Schedule schedule = reconstruct_full_schedule(instance, at);
    schedule.validate(instance);
    // Makespan <= (1 + 1/k) * T* (paper's guarantee chain).
    EXPECT_LE(schedule.makespan(instance) * k, (k + 1) * result.t_star)
        << "#" << index;
  }
}

TEST(Reconstruct, LongOnlyScheduleCoversExactlyTheLongJobs) {
  const Instance instance(3, {25, 24, 23, 3, 2, 1});
  const BisectionResult result =
      bisect_target_makespan(instance, 4, bottom_up_backend(), {},
                             paper_search_bracket(instance));
  const DpAtTarget at =
      run_dp_at(instance, result.t_star, 4, bottom_up_backend(), {});
  const Schedule long_schedule = reconstruct_long_schedule(instance, at);
  EXPECT_EQ(long_schedule.assigned_jobs(), at.rounded.total_long_jobs);
}

}  // namespace
}  // namespace pcmax
