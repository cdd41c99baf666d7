#include "algo/ptas/ptas.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "algo/lpt.hpp"
#include "core/instance_gen.hpp"
#include "core/io.hpp"
#include "core/solve_context.hpp"
#include "exact/brute_force.hpp"
#include "exact/exact.hpp"
#include "obs/metrics.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

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

TEST(PtasSolver, RejectsACallerSetProbeToken) {
  // The solve overwrites limits.cancel with the context's token, so a
  // caller's token there would be ignored; the constructor says where it
  // belongs instead.
  PtasOptions options;
  options.limits.cancel = CancellationToken::make();
  try {
    (void)PtasSolver(options);
    FAIL() << "expected InvalidArgumentError";
  } catch (const InvalidArgumentError& e) {
    EXPECT_NE(std::string(e.what()).find("SolveContext.cancel"),
              std::string::npos)
        << e.what();
  }
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
  WorkStealingExecutor executor(3);
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
  WorkStealingExecutor executor(2);
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

// --- the seeded search: [pigeonhole bound, LPT makespan] ---

struct KnownInstance {
  Instance instance;
  Time opt;
};

/// A planted instance: each of `machines` machines gets `per_machine` jobs
/// from U(1, hi) summing to the same C, so OPT = C (the Eq. 1 bound).
KnownInstance planted_instance(int machines, int per_machine, Time hi,
                               std::uint64_t seed) {
  Xoshiro256StarStar rng(seed);
  std::vector<Time> times;
  std::vector<Time> partial(static_cast<std::size_t>(machines), 0);
  for (Time& sum : partial) {
    for (int j = 0; j + 1 < per_machine; ++j) {
      times.push_back(uniform_int(rng, 1, hi));
      sum += times.back();
    }
  }
  const Time c = *std::max_element(partial.begin(), partial.end()) +
                 uniform_int(rng, 1, hi);
  for (const Time sum : partial) times.push_back(c - sum);
  std::shuffle(times.begin(), times.end(), rng);
  return {Instance(machines, std::move(times)), c};
}

TEST(PtasSolver, SeededBracketIsSoundOnPaperFamilies) {
  // Small random shapes take OPT from the exact solver; planted shapes, up
  // to the paper's m = 10, n = 30, know it by construction.
  std::vector<KnownInstance> cases;
  for (const InstanceFamily family : all_families()) {
    for (std::uint64_t index = 0; index < 3; ++index) {
      Instance instance = generate_instance(family, 3, 10, 19, index);
      const SolverResult exact = ExactSolver().solve(instance);
      EXPECT_TRUE(exact.proven_optimal) << family_name(family) << " #" << index;
      cases.push_back({std::move(instance), exact.makespan});
    }
  }
  for (const Time hi : {10, 30, 100}) {
    for (std::uint64_t seed = 0; seed < 3; ++seed) {
      cases.push_back(planted_instance(3, 3, hi, seed));
      cases.push_back(planted_instance(10, 3, hi, seed));
    }
  }

  WorkStealingExecutor executor(2);
  int certified = 0;
  int searched = 0;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const auto& [instance, opt] = cases[i];
    PtasOptions options;
    options.keep_trace = true;
    PtasSolver solver(options);
    const PtasResult seq = solver.solve_with_trace(instance);
    seq.schedule.validate(instance);
    const BisectionResult& search = seq.bisection;
    const Time lpt = LptSolver().solve(instance).makespan;
    EXPECT_GE(search.lb_start, search.lb0) << "case " << i;
    EXPECT_LE(search.lb_start, opt) << "case " << i;
    EXPECT_LE(search.t_star, search.ub_start) << "case " << i;
    EXPECT_LE(search.ub_start, lpt) << "case " << i;
    EXPECT_LE(seq.makespan * solver.k(), (solver.k() + 1) * opt) << "case " << i;
    if (seq.proven_optimal) {
      ++certified;
      EXPECT_EQ(seq.makespan, opt) << "case " << i;
      EXPECT_TRUE(search.trace.empty()) << "case " << i;
    } else {
      ++searched;
      EXPECT_FALSE(search.trace.empty()) << "case " << i;
    }

    options.engine = DpEngine::kParallelBucketed;
    options.executor = &executor;
    const SolverResult par = PtasSolver(options).solve(instance);
    par.schedule.validate(instance);
    EXPECT_EQ(par.makespan, seq.makespan) << "case " << i;
    EXPECT_EQ(par.proven_optimal, seq.proven_optimal) << "case " << i;
  }
  // Both paths are exercised: LPT-certified solves and DP searches.
  EXPECT_GT(certified, 0);
  EXPECT_GT(searched, 0);
}

TEST(PtasSolver, CertifiesLptWithoutAnyDpProbe) {
  // 7 jobs of 10 on 3 machines: the pigeonhole bound (three of the 7
  // longest share a machine) is 30, which is LPT's makespan.
  const Instance instance(3, std::vector<Time>(7, 10));
  PtasOptions options;
  options.limits.max_table_entries = 4;  // any DP table would throw
  obs::Metrics metrics(1);
  SolveContext context;
  context.metrics = &metrics;
  const PtasResult result = PtasSolver(options).solve_with_trace(instance, context);
  result.schedule.validate(instance);
  EXPECT_EQ(result.makespan, 30);
  EXPECT_TRUE(result.proven_optimal);
  EXPECT_EQ(metrics.counter_total(obs::Counter::kBisectionProbes), 0U);
  EXPECT_DOUBLE_EQ(result.stats.at("iterations"), 0.0);
  EXPECT_DOUBLE_EQ(result.stats.at("max_table_size"), 0.0);
  EXPECT_EQ(result.bisection.lb_start, 30);
  EXPECT_EQ(result.bisection.ub_start, 30);
}

TEST(PtasSolver, PaperBracketKeepsThePaperProbeSequence) {
  // The paper's bisection over [Eq. 1, Eq. 2] = [252, 356], then the
  // reconstruction probe at T* = 272: the sequence the search ran before it
  // was seeded from LPT and the pigeonhole bound.
  const Instance instance =
      generate_instance(InstanceFamily::kUniform95To105, 4, 10, 55, 0);
  PtasOptions options;
  options.paper_bracket = true;
  options.keep_trace = true;
  const PtasResult paper = PtasSolver(options).solve_with_trace(instance);
  EXPECT_EQ(paper.bisection.lb0, 252);
  EXPECT_EQ(paper.bisection.ub0, 356);
  EXPECT_EQ(paper.bisection.lb_start, paper.bisection.lb0);
  EXPECT_EQ(paper.bisection.ub_start, paper.bisection.ub0);
  std::vector<Time> targets;
  std::vector<bool> feasible;
  for (const BisectionIteration& it : paper.bisection.trace) {
    targets.push_back(it.target);
    feasible.push_back(it.feasible);
  }
  EXPECT_EQ(targets, (std::vector<Time>{304, 278, 265, 272, 269, 271, 272}));
  EXPECT_EQ(feasible,
            (std::vector<bool>{true, true, false, true, false, false, true}));
  EXPECT_EQ(paper.bisection.t_star, 272);
  EXPECT_EQ(paper.makespan, 297);

  // The seeded search starts inside the paper's bracket, [pigeonhole bound
  // 296, LPT 300], and needs fewer probes. Its T* is that bound, not 272:
  // the rounded DP is feasible below OPT too, but the search never probes
  // below a sound lower bound.
  options.paper_bracket = false;
  const PtasResult seeded = PtasSolver(options).solve_with_trace(instance);
  EXPECT_EQ(seeded.bisection.lb_start, 296);
  EXPECT_EQ(seeded.bisection.ub_start, 300);
  EXPECT_EQ(seeded.bisection.t_star, 296);
  EXPECT_LT(seeded.bisection.trace.size(), paper.bisection.trace.size());
}

TEST(PtasSolver, FillsTheDpOncePerProbe) {
  if constexpr (!obs::kMetricsEnabled) GTEST_SKIP() << "PCMAX_METRICS is OFF";
  // A searched solve reconstructs from its last feasible probe, so it fills
  // no table beyond its probes.
  const Instance searched = generate_instance(InstanceFamily::kUniform1To100, 10, 30, 42, 0);
  obs::Metrics metrics(1);
  SolveContext context;
  context.metrics = &metrics;
  const PtasResult result = PtasSolver(PtasOptions{}).solve_with_trace(searched, context);
  ASSERT_FALSE(result.proven_optimal);
  ASSERT_GE(result.stats.at("iterations"), 1.0);
  EXPECT_EQ(static_cast<double>(metrics.counter_total(obs::Counter::kBisectionProbes)),
            result.stats.at("iterations"));

  // Three jobs of 3 on two machines: OPT = 6. On the paper's bracket with
  // the upper end clamped to 6, the one probe (T = 5) is infeasible, so the
  // solve fills the table once more, at T* = 6.
  const Instance clamped(2, {3, 3, 3});
  obs::Metrics clamped_metrics(1);
  SolveContext clamped_context;
  clamped_context.metrics = &clamped_metrics;
  clamped_context.incumbent = std::make_shared<IncumbentBoard>();
  clamped_context.incumbent->publish(6);
  PtasOptions paper;
  paper.paper_bracket = true;
  paper.keep_trace = true;
  const PtasResult fallback =
      PtasSolver(paper).solve_with_trace(clamped, clamped_context);
  const std::vector<BisectionIteration>& trace = fallback.bisection.trace;
  ASSERT_EQ(trace.size(), 2u);
  EXPECT_FALSE(trace.front().feasible);
  EXPECT_EQ(fallback.bisection.t_star, 6);
  EXPECT_EQ(fallback.makespan, 6);
  EXPECT_DOUBLE_EQ(fallback.stats.at("iterations"), 1.0);
  EXPECT_EQ(clamped_metrics.counter_total(obs::Counter::kBisectionProbes), 2U);
}

// The schedules `ptas` returned while it still re-ran the DP at T* for a
// choice table, pinned byte for byte: eps 0.3 and 0.2, the speed-up
// families at m = 10, n = 30 and m = 20, n = 100, seed 42, indices 0 and 1.
// Each block is a header line and `pcmax solve --schedules` output of that
// version for `pcmax generate --family F --m M --n N --count 2 --seed 42`.
TEST(PtasSolver, ReproducesThePinnedSchedules) {
  std::ifstream in(PCMAX_SOURCE_DIR "/tests/golden/ptas_schedules.txt");
  ASSERT_TRUE(in.good()) << "missing tests/golden/ptas_schedules.txt";
  std::ostringstream expected;
  expected << in.rdbuf();

  WorkStealingExecutor executor(2);
  std::string sequential;
  std::string parallel;
  for (const double epsilon : {0.3, 0.2}) {
    for (const InstanceFamily family : speedup_families()) {
      for (const auto& [machines, jobs] : {std::pair{10, 30}, std::pair{20, 100}}) {
        for (std::uint64_t index = 0; index < 2; ++index) {
          const Instance instance = generate_instance(family, machines, jobs, 42, index);
          std::ostringstream header;
          header << "eps " << epsilon << " family " << family_name(family) << " m "
                 << machines << " n " << jobs << " index " << index << "\n";
          PtasOptions options;
          options.epsilon = epsilon;
          sequential += header.str() +
                        schedule_to_text(instance, PtasSolver(options).solve(instance).schedule);
          options.engine = DpEngine::kParallelBucketed;
          options.executor = &executor;
          parallel += header.str() +
                      schedule_to_text(instance, PtasSolver(options).solve(instance).schedule);
        }
      }
    }
  }
  EXPECT_EQ(sequential, expected.str());
  EXPECT_EQ(parallel, expected.str());
}

}  // namespace
}  // namespace pcmax
