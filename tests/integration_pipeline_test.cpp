// End-to-end integration: generate -> serialise -> reload -> solve with
// every solver -> export the schedule -> reparse it -> replay it on the
// discrete-event simulator. Every hop must preserve consistency. This is
// the workflow a downstream user of the library (or of the pcmax CLI)
// actually runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>

#include "pcmax.hpp"

namespace pcmax {
namespace {

TEST(IntegrationPipeline, FullRoundTripAcrossAllSolvers) {
  // 1. Generate a batch of instances and round-trip them through the
  //    instance-set text format.
  const std::vector<Instance> generated =
      generate_instances(InstanceFamily::kUniform1To100, 4, 18, 4242, 3);
  std::stringstream file;
  write_instances(file, generated);
  const std::vector<Instance> loaded = read_instances(file);
  ASSERT_EQ(loaded, generated);

  // 2. Solve each instance with every solver in the library.
  WorkStealingExecutor executor(2);
  PtasOptions parallel_options;
  parallel_options.engine = DpEngine::kParallelBucketed;
  parallel_options.executor = &executor;

  LptSolver lpt;
  std::vector<std::unique_ptr<Solver>> solvers;
  solvers.push_back(std::make_unique<ListSchedulingSolver>());
  solvers.push_back(std::make_unique<LptSolver>());
  solvers.push_back(std::make_unique<MultifitSolver>());
  solvers.push_back(std::make_unique<LdmSolver>());
  solvers.push_back(std::make_unique<AnnealingSolver>());
  solvers.push_back(std::make_unique<LocalSearchSolver>(lpt));
  solvers.push_back(std::make_unique<PtasSolver>(PtasOptions{}));
  solvers.push_back(std::make_unique<PtasSolver>(parallel_options));
  solvers.push_back(std::make_unique<ExactSolver>());
  solvers.push_back(std::make_unique<PcmaxIpSolver>());

  for (const Instance& instance : loaded) {
    const Time opt = ExactSolver().solve(instance).makespan;
    for (const auto& solver : solvers) {
      const SolverResult result = solver->solve(instance);

      // 3. Schedules are valid, at least the optimum, and consistent with
      //    their reported makespan.
      result.schedule.validate(instance);
      EXPECT_GE(result.makespan, opt) << solver->name();
      EXPECT_EQ(result.makespan, result.schedule.makespan(instance))
          << solver->name();

      // 4. Text round-trip of the schedule preserves the assignment.
      const std::string text = schedule_to_text(instance, result.schedule);
      const Schedule reparsed = schedule_from_text(instance, text);
      EXPECT_EQ(reparsed.assignment(instance),
                result.schedule.assignment(instance))
          << solver->name();

      // 5. The discrete-event simulator reproduces the makespan, and the
      //    Gantt renderer accepts the schedule.
      const SimResult sim = simulate_schedule(instance, result.schedule);
      EXPECT_EQ(sim.makespan, result.makespan) << solver->name();
      EXPECT_FALSE(render_gantt(instance, result.schedule).empty());
    }
  }
}

TEST(IntegrationPipeline, GuaranteeChainHoldsThroughTheFullStack) {
  // The documented inequality LB <= T* <= OPT <= PTAS <= (1+eps) * T*,
  // checked with every quantity produced by a different module.
  for (std::uint64_t index = 0; index < 4; ++index) {
    const Instance instance =
        generate_instance(InstanceFamily::kUniform1To10N, 3, 12, 77, index);
    PtasOptions options;
    options.keep_trace = true;
    PtasSolver solver(options);
    const PtasResult ptas = solver.solve_with_trace(instance);
    const SolverResult exact = ExactSolver().solve(instance);
    ASSERT_TRUE(exact.proven_optimal);

    EXPECT_LE(makespan_lower_bound(instance), ptas.bisection.t_star);
    EXPECT_LE(ptas.bisection.t_star, exact.makespan);
    EXPECT_LE(exact.makespan, ptas.makespan);
    EXPECT_LE(ptas.makespan * solver.k(),
              (solver.k() + 1) * ptas.bisection.t_star);
  }
}

TEST(IntegrationPipeline, ImprovedBoundsAgreeWithEverySolverStack) {
  // improved LB <= SubsetDP == ExactSolver == MILP on 2-machine instances.
  for (std::uint64_t index = 0; index < 3; ++index) {
    const Instance instance =
        generate_instance(InstanceFamily::kUniform1To100, 2, 10, 88, index);
    const Time subset = SubsetDpSolver().solve(instance).makespan;
    const Time exact = ExactSolver().solve(instance).makespan;
    const Time milp = PcmaxIpSolver().solve(instance).makespan;
    EXPECT_EQ(subset, exact);
    EXPECT_EQ(exact, milp);
    EXPECT_LE(improved_lower_bound(instance), subset);
  }
}

TEST(IntegrationPipeline, PortfolioRaceBeatsEveryRacerAndReplaysOnEveryFamily) {
  // The auto-selected sequential race against each racer run standalone,
  // on every family at m=3, n=12. Not in a sanitizer tree: the wall-clock
  // bound would measure the sanitizer.
  PortfolioOptions options;
  options.build.epsilon = 0.3;
  options.build.exact_seconds = 1.0;
  options.max_concurrent = 1;  // deterministic sequential race
  for (const InstanceFamily family : all_families()) {
    SCOPED_TRACE(family_name(family));
    const Instance instance = generate_instance(family, 3, 12, 42, 0);

    // Each racer standalone: fresh unlimited context, no board. A racer
    // that cannot handle the shape loses inside the race too, so it only
    // adds its time.
    Time best_racer = IncumbentBoard::kNone;
    double standalone_seconds = 0.0;
    for (const std::string& name : select_racers(instance, options)) {
      Stopwatch sw;
      try {
        const SolverResult result =
            SolverRegistry::global().create(name, options.build)->solve(
                instance, SolveContext::unlimited());
        result.schedule.validate(instance);
        best_racer = std::min(best_racer, result.makespan);
      } catch (const Error&) {
      }
      standalone_seconds += sw.elapsed_seconds();
    }

    Stopwatch race_sw;
    const PortfolioResult raced =
        PortfolioSolver(options).race(instance, SolveContext::unlimited());
    const double race_seconds = race_sw.elapsed_seconds();
    raced.schedule.validate(instance);

    // Racing with a shared incumbent never loses to any single racer.
    EXPECT_LE(raced.makespan, best_racer);

    // The winner, re-run alone on a fresh board seeded with its recorded
    // start bound, reproduces the raced schedule byte for byte.
    const auto winner =
        std::find_if(raced.racers.begin(), raced.racers.end(),
                     [&](const RacerReport& r) { return r.name == raced.winner; });
    ASSERT_NE(winner, raced.racers.end());
    SolveContext replay_context;
    replay_context.incumbent = std::make_shared<IncumbentBoard>();
    if (winner->start_bound != IncumbentBoard::kNone) {
      replay_context.incumbent->publish(winner->start_bound);
    }
    const SolverResult replay =
        SolverRegistry::global().create(raced.winner, options.build)->solve(
            instance, replay_context);
    EXPECT_EQ(replay.makespan, raced.makespan);
    EXPECT_EQ(replay.schedule, raced.schedule);

    // Racing costs at most 1.15x of running every racer yourself, plus
    // 5 ms for thread and board bookkeeping.
    EXPECT_LE(race_seconds, 1.15 * standalone_seconds + 0.005);
  }
}

}  // namespace
}  // namespace pcmax
