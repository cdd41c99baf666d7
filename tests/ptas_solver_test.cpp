#include "algo/ptas/ptas.hpp"

#include <gtest/gtest.h>

#include <utility>

#include "algo/lpt.hpp"
#include "core/instance_gen.hpp"
#include "exact/brute_force.hpp"
#include "util/error.hpp"

namespace pcmax {
namespace {

TEST(AccuracyK, MatchesCeilOfInverseEpsilon) {
  EXPECT_EQ(accuracy_k(0.3), 4);   // the paper's setting
  EXPECT_EQ(accuracy_k(0.5), 2);
  EXPECT_EQ(accuracy_k(1.0), 1);
  EXPECT_EQ(accuracy_k(2.0), 1);   // k never drops below 1
  EXPECT_EQ(accuracy_k(0.25), 4);
  EXPECT_EQ(accuracy_k(0.2), 5);
  EXPECT_EQ(accuracy_k(0.34), 3);
}

TEST(AccuracyK, RejectsNonPositiveOrTinyEpsilon) {
  EXPECT_THROW((void)accuracy_k(0.0), InvalidArgumentError);
  EXPECT_THROW((void)accuracy_k(-0.3), InvalidArgumentError);
  EXPECT_THROW((void)accuracy_k(0.001), InvalidArgumentError);
}

TEST(PtasSolver, NameDependsOnEngine) {
  EXPECT_EQ(PtasSolver(PtasOptions{}).name(), "PTAS");
  WorkStealingExecutor executor(2);
  PtasOptions options;
  options.engine = DpEngine::kParallelBucketed;
  options.executor = &executor;
  EXPECT_EQ(PtasSolver(options).name(), "ParallelPTAS");
}

TEST(PtasSolver, ParallelEnginesRequireAnExecutor) {
  PtasOptions options;
  options.engine = DpEngine::kParallelBucketed;
  options.executor = nullptr;
  EXPECT_THROW(PtasSolver{options}, InvalidArgumentError);
}

TEST(PtasSolver, SolvesTheQuickstartInstanceWithinTheGuarantee) {
  const Instance instance(4, {27, 19, 30, 11, 8, 21, 17, 5, 13, 9, 24, 16});
  PtasSolver solver(PtasOptions{});
  const SolverResult result = solver.solve(instance);
  result.schedule.validate(instance);
  const Time opt = brute_force_optimum(instance);
  EXPECT_LE(static_cast<double>(result.makespan), 1.3 * static_cast<double>(opt));
}

TEST(PtasSolver, AllEnginesProduceTheSameMakespan) {
  ThreadPoolExecutor executor(3);
  WorkStealingExecutor work_stealing(3);
  for (std::uint64_t index = 0; index < 4; ++index) {
    const Instance instance =
        generate_instance(InstanceFamily::kUniform1To100, 4, 14, 21, index);

    Time reference = -1;
    for (const auto& [engine, engine_executor] :
         {std::pair<DpEngine, Executor*>{DpEngine::kBottomUp, &executor},
          {DpEngine::kParallelScan, &executor},
          {DpEngine::kParallelBucketed, &executor},
          {DpEngine::kParallelBucketed, &work_stealing}}) {
      PtasOptions options;
      options.engine = engine;
      options.executor = engine_executor;
      PtasSolver solver(options);
      const SolverResult result = solver.solve(instance);
      result.schedule.validate(instance);
      if (reference < 0) {
        reference = result.makespan;
      } else {
        EXPECT_EQ(result.makespan, reference)
            << dp_engine_name(engine) << " on " << engine_executor->name()
            << ", instance " << index;
      }
    }
  }
}

TEST(PtasSolver, RespectsTheApproximationGuaranteeAcrossEpsilons) {
  for (const double epsilon : {1.0, 0.5, 0.34, 0.3}) {
    for (std::uint64_t index = 0; index < 4; ++index) {
      const Instance instance =
          generate_instance(InstanceFamily::kUniform1To10, 3, 10, 33, index);
      PtasOptions options;
      options.epsilon = epsilon;
      PtasSolver solver(options);
      const SolverResult result = solver.solve(instance);
      result.schedule.validate(instance);
      const Time opt = brute_force_optimum(instance);
      EXPECT_LE(static_cast<double>(result.makespan),
                (1.0 + epsilon) * static_cast<double>(opt) + 1e-9)
          << "eps=" << epsilon << " #" << index;
    }
  }
}

TEST(PtasSolver, SmallerEpsilonNeverGivesWorseGuarantee) {
  // Not a theorem per-instance, but (1+eps)*OPT is monotone; check the
  // guarantee holds at the tighter epsilon as well.
  const Instance instance =
      generate_instance(InstanceFamily::kUniform1To100, 3, 12, 44, 0);
  const Time opt = brute_force_optimum(instance);
  PtasOptions tight;
  tight.epsilon = 0.2;  // k = 5
  const SolverResult result = PtasSolver(tight).solve(instance);
  EXPECT_LE(static_cast<double>(result.makespan),
            1.2 * static_cast<double>(opt) + 1e-9);
}

TEST(PtasSolver, HandlesAllShortJobInstances) {
  // Many equal tiny jobs: at any probed T, everything is short and the PTAS
  // reduces to LPT.
  const Instance instance(4, std::vector<Time>(40, 2));
  const SolverResult result = PtasSolver(PtasOptions{}).solve(instance);
  result.schedule.validate(instance);
  EXPECT_EQ(result.makespan, 20);  // 40*2/4: perfectly balanced
  EXPECT_EQ(result.makespan, LptSolver().solve(instance).makespan);
}

TEST(PtasSolver, HandlesSingleJob) {
  const Instance instance(3, {7});
  const SolverResult result = PtasSolver(PtasOptions{}).solve(instance);
  result.schedule.validate(instance);
  EXPECT_EQ(result.makespan, 7);
}

TEST(PtasSolver, HandlesOneMachine) {
  const Instance instance(1, {3, 5, 8});
  const SolverResult result = PtasSolver(PtasOptions{}).solve(instance);
  EXPECT_EQ(result.makespan, 16);
}

TEST(PtasSolver, HandlesIdenticalLongJobs) {
  // 7 identical long jobs on 3 machines: OPT = 3 jobs on one machine.
  const Instance instance(3, std::vector<Time>(7, 10));
  const SolverResult result = PtasSolver(PtasOptions{}).solve(instance);
  result.schedule.validate(instance);
  EXPECT_EQ(result.makespan, 30);
}

TEST(PtasSolver, ReportsDetailedStats) {
  const Instance instance =
      generate_instance(InstanceFamily::kUniform1To100, 4, 20, 55, 0);
  PtasOptions options;
  PtasSolver solver(options);
  const SolverResult result = solver.solve(instance);
  EXPECT_DOUBLE_EQ(result.stats.at("k"), 4.0);
  EXPECT_GE(result.stats.at("iterations"), 1.0);
  EXPECT_GE(result.stats.at("t_star"), result.stats.at("lb0"));
  EXPECT_LE(result.stats.at("t_star"), result.stats.at("ub0"));
  EXPECT_GT(result.stats.at("max_table_size"), 0.0);
  EXPECT_GE(result.stats.at("dp_seconds"), 0.0);
}

TEST(PtasSolver, KeepTraceControlsTraceRetention) {
  const Instance instance =
      generate_instance(InstanceFamily::kUniform1To100, 3, 12, 66, 0);
  PtasOptions with_trace;
  with_trace.keep_trace = true;
  const PtasResult traced = PtasSolver(with_trace).solve_with_trace(instance);
  EXPECT_FALSE(traced.bisection.trace.empty());

  PtasOptions without_trace;
  const PtasResult untraced = PtasSolver(without_trace).solve_with_trace(instance);
  EXPECT_TRUE(untraced.bisection.trace.empty());
  EXPECT_EQ(untraced.bisection.t_star, traced.bisection.t_star);
}

TEST(PtasSolver, MakespanNeverBelowTStar) {
  // T* <= OPT <= makespan, so t_star is a certified lower bound the solver
  // exposes for free.
  for (std::uint64_t index = 0; index < 5; ++index) {
    const Instance instance =
        generate_instance(InstanceFamily::kUniform1To10N, 3, 12, 77, index);
    const PtasResult result =
        PtasSolver(PtasOptions{}).solve_with_trace(instance);
    EXPECT_GE(result.makespan, result.bisection.t_star);
  }
}

TEST(PtasSolver, ParallelEngineMatchesSequentialOnEveryFamily) {
  ThreadPoolExecutor executor(2);
  for (const InstanceFamily family : all_families()) {
    const Instance instance = generate_instance(family, 5, 25, 88, 0);

    const SolverResult sequential = PtasSolver(PtasOptions{}).solve(instance);
    PtasOptions options;
    options.engine = DpEngine::kParallelBucketed;
    options.executor = &executor;
    const SolverResult parallel = PtasSolver(options).solve(instance);
    parallel.schedule.validate(instance);
    EXPECT_EQ(parallel.makespan, sequential.makespan) << family_name(family);
  }
}

}  // namespace
}  // namespace pcmax
