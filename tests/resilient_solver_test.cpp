// Tests of the graceful-degradation driver: whatever trips — budgets,
// deadlines, external cancels, injected faults — solve() must return a
// complete valid schedule with honest provenance, and never throw for
// resource reasons.
#include "core/resilient_solver.hpp"

#include <gtest/gtest.h>

#include <string>
#include <thread>

#include "algo/lpt.hpp"
#include "core/instance_gen.hpp"
#include "core/solve_context.hpp"
#include "obs/metrics.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"

namespace pcmax {
namespace {

Instance small_instance() {
  return generate_instance(InstanceFamily::kUniform1To100, 5, 30, 3, 0);
}

TEST(ResilientSolver, HealthySolveUsesThePtas) {
  const Instance instance = small_instance();
  ResilientOptions options;
  const SolverResult result = ResilientSolver(options).solve(instance);
  result.schedule.validate(instance);
  ASSERT_TRUE(result.notes.count("algorithm_used"));
  EXPECT_NE(result.notes.at("algorithm_used").find("PTAS"), std::string::npos);
  EXPECT_EQ(result.notes.at("degradation_reason"), "none");
  EXPECT_GE(result.stats.count("stage_ptas_seconds"), 1u);
}

TEST(ResilientSolver, ResourceLimitDegradesToAValidFallback) {
  const Instance instance = small_instance();
  ResilientOptions options;
  options.ptas.limits.max_table_entries = 4;  // PTAS trips at some probe
  const SolverResult result = ResilientSolver(options).solve(instance);
  result.schedule.validate(instance);
  const std::string& algorithm = result.notes.at("algorithm_used");
  EXPECT_TRUE(algorithm.find("MULTIFIT") == 0 || algorithm.find("LPT") == 0)
      << algorithm;
  EXPECT_EQ(result.notes.at("degradation_reason").find("resource-limit"), 0u)
      << result.notes.at("degradation_reason");
  EXPECT_FALSE(result.proven_optimal);
  // Guarantee: LPT-or-better.
  const SolverResult lpt = LptSolver().solve(instance);
  EXPECT_LE(result.makespan, lpt.makespan);
}

TEST(ResilientSolver, ExpiredDeadlineStillReturnsAValidSchedule) {
  const Instance instance = small_instance();
  // The context carries no own deadline, but the external token's deadline
  // is already expired: the PTAS must abort promptly and the fallback must
  // still produce a schedule.
  const SolveContext context = SolveContext::with_token(
      CancellationToken::with_deadline(Deadline::after_ms(0)));
  const SolverResult result =
      ResilientSolver(ResilientOptions{}).solve(instance, context);
  result.schedule.validate(instance);
  EXPECT_EQ(result.notes.at("degradation_reason"), "deadline");
  const SolverResult lpt = LptSolver().solve(instance);
  EXPECT_LE(result.makespan, lpt.makespan);
}

TEST(ResilientSolver, ExternalCancelBeforeSolveFallsBack) {
  const Instance instance = small_instance();
  CancellationToken token = CancellationToken::make();
  token.request_cancel();
  const SolverResult result = ResilientSolver(ResilientOptions{})
                                  .solve(instance, SolveContext::with_token(token));
  result.schedule.validate(instance);
  EXPECT_EQ(result.notes.at("degradation_reason"), "cancelled");
  const SolverResult lpt = LptSolver().solve(instance);
  EXPECT_LE(result.makespan, lpt.makespan);
}

TEST(ResilientSolver, FaultMidDpDegradesWithCorrectReason) {
  // The acceptance scenario: a FaultInjector cancel mid-DP must yield a
  // valid LPT-or-better schedule and degradation_reason == "cancelled".
  // At eps = 0.2 this shape's later probes are above kTeamFillMinWork, so
  // the bucketed engine sweeps their levels (smaller fills run inline as
  // dp_bottom_up and never reach the "dp.level" site).
  const Instance instance =
      generate_instance(InstanceFamily::kUniform1To100, 10, 50, 3, 0);
  CancellationToken token = CancellationToken::make();
  FaultInjector injector("dp.level", /*fire_at=*/2,
                         FaultInjector::Action::kCancel, token);
  FaultScope scope(injector);
  WorkStealingExecutor executor(2);
  ResilientOptions options;
  options.ptas.epsilon = 0.2;
  options.ptas.engine = DpEngine::kParallelBucketed;
  options.ptas.executor = &executor;
  const SolverResult result =
      ResilientSolver(options).solve(instance, SolveContext::with_token(token));
  EXPECT_TRUE(injector.fired());
  result.schedule.validate(instance);
  EXPECT_EQ(result.notes.at("degradation_reason"), "cancelled");
  EXPECT_GE(result.stats.count("stage_fallback_seconds"), 1u);
  EXPECT_GE(result.stats.count("stage_polish_seconds"), 1u);
  const SolverResult lpt = LptSolver().solve(instance);
  EXPECT_LE(result.makespan, lpt.makespan);
}

TEST(ResilientSolver, FaultMidBisectionDegradesGracefully) {
  const Instance instance = small_instance();
  CancellationToken token = CancellationToken::make();
  FaultInjector injector("bisection.probe", /*fire_at=*/3,
                         FaultInjector::Action::kCancel, token);
  FaultScope scope(injector);
  const SolverResult result = ResilientSolver(ResilientOptions{})
                                  .solve(instance, SolveContext::with_token(token));
  EXPECT_TRUE(injector.fired());
  result.schedule.validate(instance);
  EXPECT_EQ(result.notes.at("degradation_reason"), "cancelled");
}

TEST(ResilientSolver, InjectedResourceThrowDegradesGracefully) {
  const Instance instance = small_instance();
  FaultInjector injector("bisection.probe", /*fire_at=*/2,
                         FaultInjector::Action::kThrow);
  FaultScope scope(injector);
  const SolverResult result = ResilientSolver(ResilientOptions{}).solve(instance);
  EXPECT_TRUE(injector.fired());
  result.schedule.validate(instance);
  EXPECT_EQ(result.notes.at("degradation_reason").find("resource-limit"), 0u);
}

TEST(ResilientSolver, NonResourceErrorsPropagate) {
  // Degradation must not mask contract violations.
  ResilientOptions options;
  options.ptas.epsilon = -1.0;
  EXPECT_THROW((void)ResilientSolver(options).solve(small_instance()),
               InvalidArgumentError);
}

TEST(ResilientSolver, RecordsMetricsCountersAndNotes) {
  if (!obs::kMetricsEnabled) GTEST_SKIP() << "metrics compiled out";
  const Instance instance = small_instance();
  obs::Metrics metrics(1);
  {
    obs::MetricsScope scope(metrics);
    ResilientOptions degraded;
    degraded.ptas.limits.max_table_entries = 4;
    (void)ResilientSolver(degraded).solve(instance);
    (void)ResilientSolver(ResilientOptions{}).solve(instance);
  }
  EXPECT_EQ(metrics.counter_total(obs::Counter::kResilientSolves), 2u);
  EXPECT_EQ(metrics.counter_total(obs::Counter::kResilientFallbacks), 1u);
  bool saw_last_solve = false;
  for (const auto& [key, value] : metrics.notes()) {
    if (key == "resilient.last_solve") {
      saw_last_solve = true;
      // The value is one consistent "<algorithm>;<reason>" pair.
      EXPECT_NE(value.find(';'), std::string::npos) << value;
    }
  }
  EXPECT_TRUE(saw_last_solve);
}

TEST(ResilientSolver, CheapPathSkipsThePtas) {
  // ptas_enabled=false is the service's saturated-queue path: straight to
  // the constructive rungs, honest "ptas-skipped" provenance.
  const Instance instance = small_instance();
  ResilientOptions options;
  options.ptas_enabled = false;
  const SolverResult result = ResilientSolver(options).solve(instance);
  result.schedule.validate(instance);
  EXPECT_EQ(result.notes.at("degradation_reason"), "ptas-skipped");
  const std::string& algorithm = result.notes.at("algorithm_used");
  EXPECT_TRUE(algorithm.find("MULTIFIT") == 0 || algorithm.find("LPT") == 0)
      << algorithm;
  EXPECT_EQ(result.stats.at("stage_ptas_seconds"), 0.0);
  const SolverResult lpt = LptSolver().solve(instance);
  EXPECT_LE(result.makespan, lpt.makespan);
}

TEST(ResilientSolver, ConcurrentSolvesKeepProvenanceConsistent) {
  // Satellite bugfix check: two solves racing on the same ambient collector
  // must keep per-result notes correct, count resilient.* exactly, and never
  // publish a metrics note that mixes one solve's algorithm with the other's
  // reason. (The old two-key scheme could interleave pair-wise.)
  if (!obs::kMetricsEnabled) GTEST_SKIP() << "metrics compiled out";
  const Instance instance = small_instance();
  constexpr int kRounds = 4;
  obs::Metrics metrics(2);
  {
    obs::MetricsScope scope(metrics);
    std::thread degrading([&] {
      for (int i = 0; i < kRounds; ++i) {
        ResilientOptions options;
        options.ptas.limits.max_table_entries = 4;  // always trips
        const SolverResult result = ResilientSolver(options).solve(instance);
        EXPECT_EQ(result.notes.at("degradation_reason").find("resource-limit"),
                  0u);
      }
    });
    std::thread healthy([&] {
      for (int i = 0; i < kRounds; ++i) {
        const SolverResult result =
            ResilientSolver(ResilientOptions{}).solve(instance);
        EXPECT_EQ(result.notes.at("degradation_reason"), "none");
        EXPECT_NE(result.notes.at("algorithm_used").find("PTAS"),
                  std::string::npos);
      }
    });
    degrading.join();
    healthy.join();
  }
  EXPECT_EQ(metrics.counter_total(obs::Counter::kResilientSolves),
            2u * kRounds);
  EXPECT_EQ(metrics.counter_total(obs::Counter::kResilientFallbacks),
            static_cast<std::uint64_t>(kRounds));
  for (const auto& [key, value] : metrics.notes()) {
    if (key != "resilient.last_solve") continue;
    // Whole-pair writes: the surviving note is one of the two valid pairs,
    // never a cross-solve mixture.
    const bool healthy_pair = value.find("PTAS;none") == 0;
    const bool degraded_pair =
        value.find(";resource-limit") != std::string::npos &&
        (value.find("MULTIFIT") == 0 || value.find("LPT") == 0);
    EXPECT_TRUE(healthy_pair || degraded_pair) << value;
  }
}

TEST(ResilientSolver, RejectsBadOptions) {
  ResilientOptions zero_multifit;
  zero_multifit.multifit_iterations = 0;
  EXPECT_THROW((void)ResilientSolver(zero_multifit), InvalidArgumentError);
}

}  // namespace
}  // namespace pcmax
