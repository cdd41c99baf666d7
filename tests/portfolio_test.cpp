// Portfolio racing engine (core/portfolio) tests: deterministic sequential
// races, standalone reproduction of the winning racer from its recorded
// start bound, certification-driven cancellation, degradation provenance,
// and a cancellation-storm stress (label `sanitize`).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/bounds.hpp"
#include "core/instance_gen.hpp"
#include "core/portfolio.hpp"
#include "core/solver_registry.hpp"
#include "parallel/executor.hpp"
#include "util/deadline.hpp"
#include "util/error.hpp"

namespace pcmax {
namespace {

Instance paper_instance(int machines = 10, int jobs = 50,
                        std::uint64_t seed = 42) {
  return generate_instance(InstanceFamily::kUniform1To100, machines, jobs,
                           seed, 0);
}

const RacerReport& report_of(const PortfolioResult& result,
                             const std::string& name) {
  for (const RacerReport& report : result.racers) {
    if (report.name == name) return report;
  }
  throw std::logic_error("no report for racer " + name);
}

TEST(SolverRegistry, GlobalKnowsEveryBuiltin) {
  const SolverRegistry& registry = SolverRegistry::global();
  for (const char* name : {"lpt", "ls", "ldm", "multifit", "ptas",
                           "parallel-ptas", "subset-dp", "ip", "milp",
                           "resilient"}) {
    EXPECT_TRUE(registry.contains(name)) << name;
  }
  SolverBuild build;
  const auto solver = registry.create("lpt", build);
  ASSERT_NE(solver, nullptr);
  EXPECT_EQ(solver->solve(paper_instance()).schedule.machines(), 10);
}

TEST(SolverRegistry, UnknownNameListsWhatIsRegistered) {
  try {
    (void)SolverRegistry::global().create("bogus", SolverBuild{});
    FAIL() << "expected InvalidArgumentError";
  } catch (const InvalidArgumentError& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("bogus"), std::string::npos) << message;
    EXPECT_NE(message.find("multifit"), std::string::npos) << message;
  }
}

TEST(SolverRegistry, PrivateRegistriesExtendWithoutTouchingTheGlobal) {
  SolverRegistry registry;
  registry.register_solver("lpt-twin", [](const SolverBuild& build) {
    return SolverRegistry::global().create("lpt", build);
  });
  EXPECT_TRUE(registry.contains("lpt-twin"));
  EXPECT_FALSE(SolverRegistry::global().contains("lpt-twin"));
  EXPECT_THROW(registry.register_solver("lpt-twin", nullptr),
               InvalidArgumentError);
}

TEST(Portfolio, SelectRacersAdaptsToInstanceShape) {
  PortfolioOptions options;
  // Large instance, no executor: the always-on trio only.
  const std::vector<std::string> large =
      select_racers(paper_instance(10, 50), options);
  EXPECT_EQ(large, (std::vector<std::string>{"lpt", "multifit", "ptas"}));

  // An executor adds the parallel PTAS lane.
  SequentialExecutor executor;
  options.build.executor = &executor;
  const std::vector<std::string> with_executor =
      select_racers(paper_instance(10, 50), options);
  EXPECT_NE(std::find(with_executor.begin(), with_executor.end(),
                      "parallel-ptas"),
            with_executor.end());

  // Small instances enlist the certifying exact racers.
  options.build.executor = nullptr;
  const std::vector<std::string> small =
      select_racers(paper_instance(2, 8), options);
  EXPECT_NE(std::find(small.begin(), small.end(), "milp"), small.end());
  EXPECT_NE(std::find(small.begin(), small.end(), "subset-dp"), small.end());
}

TEST(Portfolio, SequentialRaceIsDeterministic) {
  const Instance instance = paper_instance();
  PortfolioOptions options;
  options.racers = {"lpt", "multifit", "ptas"};
  options.max_concurrent = 1;  // deterministic mode
  PortfolioSolver solver(options);

  const PortfolioResult first = solver.race(instance, SolveContext::unlimited());
  const PortfolioResult second = solver.race(instance, SolveContext::unlimited());
  first.schedule.validate(instance);
  EXPECT_EQ(first.winner, second.winner);
  EXPECT_EQ(first.makespan, second.makespan);
  // Byte-identical winner schedule: same assignment vector, job for job.
  EXPECT_EQ(first.schedule, second.schedule);
  ASSERT_EQ(first.racers.size(), second.racers.size());
  for (std::size_t i = 0; i < first.racers.size(); ++i) {
    EXPECT_EQ(first.racers[i].status, second.racers[i].status);
    EXPECT_EQ(first.racers[i].makespan, second.racers[i].makespan);
    // The read-once board snapshot each racer started from is part of the
    // deterministic contract: it is what makes standalone replay possible.
    EXPECT_EQ(first.racers[i].start_bound, second.racers[i].start_bound);
  }
}

TEST(Portfolio, WinnerReproducesStandaloneFromItsStartBound) {
  const Instance instance = paper_instance();
  PortfolioOptions options;
  options.racers = {"lpt", "multifit", "ptas"};
  options.max_concurrent = 1;
  const PortfolioResult raced =
      PortfolioSolver(options).race(instance, SolveContext::unlimited());

  // Re-run the winning racer alone, under a fresh board seeded with the
  // bound the portfolio recorded for it: the standalone solve must produce
  // the identical schedule (the racer is a pure function of instance,
  // build, and start bound).
  const RacerReport& winner = report_of(raced, raced.winner);
  EXPECT_EQ(winner.status, "won");
  SolveContext context;
  context.incumbent = std::make_shared<IncumbentBoard>();
  if (winner.start_bound != IncumbentBoard::kNone) {
    context.incumbent->publish(winner.start_bound);
  }
  const auto solo =
      SolverRegistry::global().create(raced.winner, options.build);
  const SolverResult replay = solo->solve(instance, context);
  EXPECT_EQ(replay.makespan, raced.makespan);
  EXPECT_EQ(replay.schedule, raced.schedule);
}

TEST(Portfolio, MakespanIsTheMinimumOverTheFinishers) {
  const Instance instance = paper_instance(8, 40, 7);
  PortfolioOptions options;
  options.racers = {"lpt", "ls", "ldm", "multifit", "ptas"};
  options.max_concurrent = 1;
  const PortfolioResult result =
      PortfolioSolver(options).race(instance, SolveContext::unlimited());
  result.schedule.validate(instance);
  int finishers = 0;
  for (const RacerReport& report : result.racers) {
    if (report.status == "ok" || report.status == "won") {
      ++finishers;
      EXPECT_LE(result.makespan, report.makespan) << report.name;
    }
  }
  EXPECT_GE(finishers, 5);
  EXPECT_EQ(result.notes.at("winner"), result.winner);
  EXPECT_EQ(result.notes.at("algorithm_used"), result.winner);
}

TEST(Portfolio, CertifiedOptimumSkipsOrCancelsTheRemainingRacers) {
  // Small enough for subset-dp to certify the optimum; once a proof lands,
  // racers listed after it must not run.
  const Instance instance = paper_instance(2, 10, 5);
  PortfolioOptions options;
  options.racers = {"lpt", "subset-dp", "ptas"};
  options.max_concurrent = 1;
  const PortfolioResult result =
      PortfolioSolver(options).race(instance, SolveContext::unlimited());
  result.schedule.validate(instance);
  EXPECT_TRUE(result.proven_optimal);
  // Either LPT was already optimal (tier 0 certifies, both heavies skipped)
  // or subset-dp certified and the PTAS was skipped.
  EXPECT_EQ(report_of(result, "ptas").status, "cancelled");
  EXPECT_GE(result.stats.at("racers_cancelled"), 1.0);
}

TEST(Portfolio, CancelledCallerDegradesToTierZeroWithBudgetReason) {
  const Instance instance = paper_instance();
  CancellationToken token = CancellationToken::make();
  token.request_cancel();
  PortfolioOptions options;
  options.racers = {"lpt", "ptas"};
  options.max_concurrent = 1;
  const PortfolioResult result =
      PortfolioSolver(options).race(instance, SolveContext::with_token(token));
  result.schedule.validate(instance);
  // LPT does not poll the token (it is effectively instantaneous), so the
  // tier-0 rung still answers; the PTAS dies to the caller's token.
  EXPECT_EQ(result.winner, "lpt");
  EXPECT_EQ(report_of(result, "ptas").status, "failed: cancelled");
  EXPECT_EQ(result.notes.at("degradation_reason"), "portfolio-budget");
}

TEST(Portfolio, AllRacersFailedFallsBackToLpt) {
  const Instance instance = paper_instance();
  CancellationToken token = CancellationToken::make();
  token.request_cancel();
  PortfolioOptions options;
  options.racers = {"ptas"};  // every racer dies to the cancelled caller
  const PortfolioResult result =
      PortfolioSolver(options).race(instance, SolveContext::with_token(token));
  result.schedule.validate(instance);
  EXPECT_EQ(result.winner, "lpt-fallback");
  EXPECT_EQ(result.notes.at("degradation_reason"), "portfolio-all-failed");
}

TEST(Portfolio, SolveOverloadMatchesRace) {
  const Instance instance = paper_instance(6, 30, 9);
  PortfolioOptions options;
  options.racers = {"lpt", "multifit", "ptas"};
  options.max_concurrent = 1;
  PortfolioSolver solver(options);
  const SolverResult via_solve =
      solver.solve(instance, SolveContext::unlimited());
  const PortfolioResult via_race =
      solver.race(instance, SolveContext::unlimited());
  EXPECT_EQ(via_solve.makespan, via_race.makespan);
  EXPECT_EQ(via_solve.schedule, via_race.schedule);
  EXPECT_EQ(via_solve.notes.at("winner"), via_race.winner);
}

TEST(Portfolio, ConcurrentRaceStaysWithinTheFinishersBound) {
  // Concurrent heavy tier: the winner is whichever racer produced the best
  // makespan, and the result must still be a valid schedule with makespan
  // <= every finisher's (the board only ever improves).
  const Instance instance = paper_instance(8, 40, 11);
  const std::unique_ptr<Executor> executor = make_executor("workstealing", 2);
  PortfolioOptions options;
  options.build.executor = executor.get();
  options.racers = {"lpt", "multifit", "ptas", "parallel-ptas"};
  options.max_concurrent = 0;  // all heavies at once
  const PortfolioResult result =
      PortfolioSolver(options).race(instance, SolveContext::unlimited());
  result.schedule.validate(instance);
  for (const RacerReport& report : result.racers) {
    if (report.status == "ok" || report.status == "won") {
      EXPECT_LE(result.makespan, report.makespan) << report.name;
    }
  }
  EXPECT_GE(result.makespan, improved_lower_bound(instance));
}

TEST(Portfolio, CancellationStormLeavesEveryRaceAnswered) {
  // Storm: concurrent races while an external canceller yanks each race's
  // token at a staggered point. Every race must still return a valid
  // schedule (won, degraded, or lpt-fallback) and never hang or throw.
  const Instance instance = paper_instance(6, 30, 13);
  constexpr int kRaces = 8;
  std::vector<CancellationToken> tokens;
  tokens.reserve(kRaces);
  for (int i = 0; i < kRaces; ++i) tokens.push_back(CancellationToken::make());

  std::atomic<int> answered{0};
  std::vector<std::thread> threads;
  threads.reserve(kRaces + 1);
  for (int i = 0; i < kRaces; ++i) {
    threads.emplace_back([&, i] {
      const std::unique_ptr<Executor> executor = make_executor("workstealing", 2);
      PortfolioOptions options;
      options.build.executor = executor.get();
      options.racers = {"lpt", "multifit", "ptas", "parallel-ptas"};
      options.max_concurrent = 2;
      const PortfolioResult result = PortfolioSolver(options).race(
          instance, SolveContext::with_token(tokens[static_cast<std::size_t>(i)]));
      result.schedule.validate(instance);
      answered.fetch_add(1, std::memory_order_relaxed);
    });
  }
  threads.emplace_back([&] {
    for (int i = 0; i < kRaces; ++i) {
      if (i % 2 == 0) std::this_thread::yield();
      tokens[static_cast<std::size_t>(i)].request_cancel();
    }
  });
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(answered.load(), kRaces);
}

TEST(Portfolio, SharedBoardAccumulatesAcrossRaces) {
  // A caller-provided board survives the race and carries the incumbent to
  // the next one: the second race starts from the first race's best bound.
  const Instance instance = paper_instance();
  SolveContext context;
  context.incumbent = std::make_shared<IncumbentBoard>();
  PortfolioOptions options;
  options.racers = {"lpt", "multifit"};
  options.max_concurrent = 1;
  PortfolioSolver solver(options);
  const PortfolioResult first = solver.race(instance, context);
  EXPECT_EQ(context.incumbent->best(), first.makespan);
  const PortfolioResult second = solver.race(instance, context);
  EXPECT_EQ(report_of(second, "lpt").start_bound, first.makespan);
}

}  // namespace
}  // namespace pcmax
