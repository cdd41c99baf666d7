// Parameterized property sweep: for every (machines, jobs, family, seed)
// combination, the certified optimum from the exact solver must sandwich and
// bound every approximation algorithm exactly as theory promises:
//
//   LB <= OPT <= UB                       (paper Eq. 1-2)
//   LS   <= (2 - 1/m) * OPT               (Graham 1966)
//   LPT  <= (4/3 - 1/(3m)) * OPT          (Graham 1969)
//   PTAS <= (1 + eps) * OPT               (Hochbaum-Shmoys; the paper)
//   PTAS(parallel) == PTAS(sequential)    (paper §III/IV)
#include <gtest/gtest.h>

#include <tuple>

#include "algo/annealing.hpp"
#include "algo/ldm.hpp"
#include "algo/list_scheduling.hpp"
#include "algo/local_search.hpp"
#include "algo/lpt.hpp"
#include "algo/multifit.hpp"
#include "algo/ptas/ptas.hpp"
#include "core/bounds.hpp"
#include "core/instance_gen.hpp"
#include "exact/exact.hpp"
#include "exact/subset_dp.hpp"
#include "sim/event_sim.hpp"

namespace pcmax {
namespace {

using SweepParam = std::tuple<int, int, InstanceFamily, std::uint64_t>;

class PropertySweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(PropertySweep, AllTheoreticalGuaranteesHold) {
  const auto [machines, jobs, family, seed] = GetParam();
  const Instance instance = generate_instance(family, machines, jobs, seed, 0);

  const SolverResult exact = ExactSolver().solve(instance);
  ASSERT_TRUE(exact.proven_optimal) << "exact budget too small for sweep size";
  exact.schedule.validate(instance);
  const Time opt = exact.makespan;

  // Bounds sandwich the optimum.
  EXPECT_LE(makespan_lower_bound(instance), opt);
  EXPECT_GE(makespan_upper_bound(instance), opt);

  // LS: (2 - 1/m) * OPT, in exact integer arithmetic: m*LS <= (2m-1)*OPT.
  const SolverResult ls = ListSchedulingSolver().solve(instance);
  ls.schedule.validate(instance);
  EXPECT_LE(static_cast<std::int64_t>(machines) * ls.makespan,
            static_cast<std::int64_t>(2 * machines - 1) * opt);
  EXPECT_GE(ls.makespan, opt);

  // LPT: (4/3 - 1/(3m)) * OPT -> 3m*LPT <= (4m-1)*OPT.
  const SolverResult lpt = LptSolver().solve(instance);
  lpt.schedule.validate(instance);
  EXPECT_LE(static_cast<std::int64_t>(3 * machines) * lpt.makespan,
            static_cast<std::int64_t>(4 * machines - 1) * opt);
  EXPECT_GE(lpt.makespan, opt);

  // MULTIFIT: 13/11 + 2^-k with k = 10 iterations.
  const SolverResult multifit = MultifitSolver().solve(instance);
  multifit.schedule.validate(instance);
  EXPECT_LE(static_cast<double>(multifit.makespan),
            (13.0 / 11.0 + 0.001) * static_cast<double>(opt));

  // Sequential PTAS at the paper's eps = 0.3.
  PtasOptions seq_options;
  PtasSolver sequential(seq_options);
  const SolverResult ptas = sequential.solve(instance);
  ptas.schedule.validate(instance);
  EXPECT_LE(static_cast<double>(ptas.makespan), 1.3 * static_cast<double>(opt));
  EXPECT_GE(ptas.makespan, opt);

  // Parallel PTAS: identical makespan on 2 threads, bucketed engine.
  WorkStealingExecutor executor(2);
  PtasOptions par_options;
  par_options.engine = DpEngine::kParallelBucketed;
  par_options.executor = &executor;
  const SolverResult parallel = PtasSolver(par_options).solve(instance);
  parallel.schedule.validate(instance);
  EXPECT_EQ(parallel.makespan, ptas.makespan);

  // Paper-faithful per-entry kernel: same algorithm, same result.
  PtasOptions faithful_options;
  faithful_options.kernel = DpKernel::kPerEntryEnum;
  EXPECT_EQ(PtasSolver(faithful_options).solve(instance).makespan, ptas.makespan);

  // The extra heuristics: valid, never below the optimum, and LDM/SA/local
  // search never lose to plain LPT's guarantee envelope.
  const SolverResult ldm = LdmSolver().solve(instance);
  ldm.schedule.validate(instance);
  EXPECT_GE(ldm.makespan, opt);

  const SolverResult annealed = AnnealingSolver().solve(instance);
  annealed.schedule.validate(instance);
  EXPECT_GE(annealed.makespan, opt);
  EXPECT_LE(annealed.makespan, lpt.makespan);

  LptSolver lpt_inner;
  const SolverResult polished = LocalSearchSolver(lpt_inner).solve(instance);
  polished.schedule.validate(instance);
  EXPECT_GE(polished.makespan, opt);
  EXPECT_LE(polished.makespan, lpt.makespan);

  // Improved lower bounds stay below the optimum and above Eq. 1.
  EXPECT_LE(improved_lower_bound(instance), opt);
  EXPECT_GE(improved_lower_bound(instance), makespan_lower_bound(instance));

  // The discrete-event simulator reproduces every solver's makespan.
  EXPECT_EQ(simulate_schedule(instance, ptas.schedule).makespan, ptas.makespan);
  EXPECT_EQ(simulate_schedule(instance, exact.schedule).makespan, exact.makespan);

  // Subset-sum DP cross-check where it applies (budget raised for the
  // U(95,105) family, whose totals square past the default).
  if (machines <= 3) {
    EXPECT_EQ(SubsetDpSolver(Time{4'000'000}).solve(instance).makespan, opt);
  }
}

std::string sweep_name(const ::testing::TestParamInfo<SweepParam>& info) {
  const auto [machines, jobs, family, seed] = info.param;
  std::string family_tag;
  switch (family) {
    case InstanceFamily::kUniform1To100: family_tag = "U1to100"; break;
    case InstanceFamily::kUniform1To10: family_tag = "U1to10"; break;
    case InstanceFamily::kUniform1To10N: family_tag = "U1to10n"; break;
    case InstanceFamily::kUniform1To2M1: family_tag = "U1to2m1"; break;
    case InstanceFamily::kUniformMTo2M1: family_tag = "Umto2m1"; break;
    case InstanceFamily::kUniform95To105: family_tag = "U95to105"; break;
  }
  return "m" + std::to_string(machines) + "_n" + std::to_string(jobs) + "_" +
         family_tag + "_s" + std::to_string(seed);
}

INSTANTIATE_TEST_SUITE_P(
    SmallInstances, PropertySweep,
    ::testing::Combine(::testing::Values(2, 3, 5),          // machines
                       ::testing::Values(8, 13),            // jobs
                       ::testing::ValuesIn(all_families()),  // distribution
                       ::testing::Values<std::uint64_t>(1, 2)),
    sweep_name);

INSTANTIATE_TEST_SUITE_P(
    MediumInstances, PropertySweep,
    ::testing::Combine(::testing::Values(4), ::testing::Values(24),
                       ::testing::Values(InstanceFamily::kUniform1To10,
                                         InstanceFamily::kUniform95To105,
                                         InstanceFamily::kUniformMTo2M1),
                       ::testing::Values<std::uint64_t>(3)),
    sweep_name);

}  // namespace
}  // namespace pcmax
