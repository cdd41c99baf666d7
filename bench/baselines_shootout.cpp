// Extended baseline shoot-out (beyond the paper's LS/LPT comparison):
// every heuristic in the library vs the certified optimum across the six
// instance families — LS, LPT, LPT+local search, MULTIFIT, LDM, simulated
// annealing, and the (parallel) PTAS at the paper's epsilon.
#include <iostream>
#include <memory>

#include "algo/annealing.hpp"
#include "algo/ldm.hpp"
#include "algo/list_scheduling.hpp"
#include "algo/local_search.hpp"
#include "algo/lpt.hpp"
#include "algo/multifit.hpp"
#include "algo/ptas/ptas.hpp"
#include "core/instance_gen.hpp"
#include "exact/exact.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"
#include "util/table_printer.hpp"

using namespace pcmax;

static int run_bench(int argc, char** argv) {
  CliParser cli("Every heuristic vs the certified optimum, per family.");
  cli.add_int("m", 8, "machines");
  cli.add_int("n", 40, "jobs");
  cli.add_int("trials", 5, "instances per family");
  cli.add_int("seed", 42, "base RNG seed");
  cli.add_double("epsilon", 0.3, "PTAS accuracy");
  cli.add_double("ip-total-seconds", 20.0, "budget per exact solve");
  if (!cli.parse(argc, argv)) return 0;

  const int m = static_cast<int>(cli.get_int("m"));
  const int n = static_cast<int>(cli.get_int("n"));
  const int trials = static_cast<int>(cli.get_int("trials"));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));

  std::cout << "=== baseline shoot-out: m=" << m << ", n=" << n
            << ", trials=" << trials << " (mean makespan / optimum) ===\n\n";

  TablePrinter table({"family", "LS", "LPT", "LPT+LS*", "MULTIFIT", "LDM", "SA",
                      "PTAS", "certified"});
  for (const InstanceFamily family : all_families()) {
    ListSchedulingSolver ls;
    LptSolver lpt;
    LocalSearchSolver polished(lpt);
    MultifitSolver multifit;
    LdmSolver ldm;
    AnnealingSolver annealing;
    PtasOptions ptas_options;
    ptas_options.epsilon = cli.get_double("epsilon");
    PtasSolver ptas(ptas_options);

    std::vector<Solver*> solvers{&ls,  &lpt, &polished, &multifit,
                                 &ldm, &annealing, &ptas};
    std::vector<RunningStats> ratios(solvers.size());
    int certified = 0;

    for (int trial = 0; trial < trials; ++trial) {
      const Instance instance =
          generate_instance(family, m, n, seed, static_cast<std::uint64_t>(trial));
      ExactSolverOptions exact_options;
      exact_options.max_total_seconds = cli.get_double("ip-total-seconds");
      const SolverResult opt = ExactSolver(exact_options).solve(instance);
      if (opt.proven_optimal) ++certified;

      for (std::size_t s = 0; s < solvers.size(); ++s) {
        const SolverResult r = solvers[s]->solve(instance);
        r.schedule.validate(instance);
        ratios[s].add(static_cast<double>(r.makespan) /
                      static_cast<double>(opt.makespan));
      }
    }

    std::vector<std::string> row{family_name(family)};
    for (const RunningStats& stats : ratios) {
      row.push_back(TablePrinter::fmt(stats.mean(), 4));
    }
    row.push_back(std::to_string(certified) + "/" + std::to_string(trials));
    table.add_row(std::move(row));
  }
  std::cout << table.to_string()
            << "\nLPT+LS* = LPT polished by move/swap local search; SA starts "
               "from LPT.\nPTAS at eps="
            << cli.get_double("epsilon") << " guarantees <= "
            << TablePrinter::fmt(1.0 + cli.get_double("epsilon"), 2)
            << "x optimum; the heuristics have weaker guarantees but often "
               "do better in the mean.\n";
  return 0;
}

int main(int argc, char** argv) {
  return run_main([&] { return run_bench(argc, argv); });
}
