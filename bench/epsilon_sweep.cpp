// The PTAS accuracy/cost dial (extension; the paper fixes eps = 0.3):
// for each epsilon, the guarantee (1+eps), the realised ratio against the
// certified optimum, the DP table growth and the measured runtime — the
// practical face of the O((n/eps)^(1/eps^2)) bound.
#include <iostream>

#include "algo/ptas/ptas.hpp"
#include "core/instance_gen.hpp"
#include "exact/exact.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"
#include "util/table_printer.hpp"

using namespace pcmax;

static int run_bench(int argc, char** argv) {
  CliParser cli("PTAS behaviour as a function of epsilon.");
  cli.add_int("m", 10, "machines");
  cli.add_int("n", 50, "jobs");
  cli.add_int("trials", 3, "instances per epsilon");
  cli.add_int("seed", 42, "base RNG seed");
  cli.add_string("family", "U(1,100)", "instance family (paper notation)");
  if (!cli.parse(argc, argv)) return 0;

  const int m = static_cast<int>(cli.get_int("m"));
  const int n = static_cast<int>(cli.get_int("n"));
  const int trials = static_cast<int>(cli.get_int("trials"));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));

  InstanceFamily family = InstanceFamily::kUniform1To100;
  for (const InstanceFamily candidate : all_families()) {
    if (family_name(candidate) == cli.get_string("family")) family = candidate;
  }

  std::cout << "=== epsilon sweep: " << family_name(family) << ", m=" << m
            << ", n=" << n << ", trials=" << trials << " ===\n\n";

  // The exact reference is epsilon-independent: solve each trial once.
  std::vector<Time> optima;
  for (int trial = 0; trial < trials; ++trial) {
    const Instance instance =
        generate_instance(family, m, n, seed, static_cast<std::uint64_t>(trial));
    ExactSolverOptions exact_options;
    exact_options.max_total_seconds = 10.0;
    optima.push_back(ExactSolver(exact_options).solve(instance).makespan);
  }

  TablePrinter table({"epsilon", "k", "guarantee", "realised ratio",
                      "max DP table", "DP entries", "seconds"});
  for (const double epsilon : {1.0, 0.6, 0.5, 0.4, 0.34, 0.3, 0.25, 0.2}) {
    RunningStats ratio;
    RunningStats table_size;
    RunningStats entries;
    RunningStats seconds;
    int k = 0;
    for (int trial = 0; trial < trials; ++trial) {
      const Instance instance =
          generate_instance(family, m, n, seed, static_cast<std::uint64_t>(trial));

      PtasOptions options;
      options.epsilon = epsilon;
      PtasSolver solver(options);
      k = solver.k();
      const SolverResult r = solver.solve(instance);
      ratio.add(static_cast<double>(r.makespan) /
                static_cast<double>(optima[static_cast<std::size_t>(trial)]));
      table_size.add(r.stats.at("max_table_size"));
      entries.add(r.stats.at("entries_computed"));
      seconds.add(r.seconds);
    }
    table.add_row({TablePrinter::fmt(epsilon, 2), std::to_string(k),
                   TablePrinter::fmt(1.0 + epsilon, 2),
                   TablePrinter::fmt(ratio.mean(), 4),
                   TablePrinter::fmt(table_size.mean(), 0),
                   TablePrinter::fmt(entries.mean(), 0),
                   TablePrinter::fmt(seconds.mean(), 4)});
  }
  std::cout << table.to_string()
            << "\nRealised ratios sit far below the worst-case guarantee\n"
               "(the paper observes the same at eps=0.3); the table/entry\n"
               "columns show the exponential price of tightening epsilon —\n"
               "the work the parallel sweep is designed to absorb.\n";
  return 0;
}

int main(int argc, char** argv) {
  return run_main([&] { return run_bench(argc, argv); });
}
