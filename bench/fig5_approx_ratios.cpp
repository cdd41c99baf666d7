// Reproduces paper Figure 5 (a, b) and the instance categories of
// Tables II-III: actual approximation ratios (algorithm makespan divided by
// the certified optimum) of the parallel PTAS, LPT, LS — plus MULTIFIT as an
// extra baseline — over the eight ratio-study instance specs.
#include <iostream>

#include "harness/experiment.hpp"
#include "util/cli.hpp"
#include "util/table_printer.hpp"

using namespace pcmax;

static int run_bench(int argc, char** argv) {
  CliParser cli(
      "Reproduces paper Figure 5: actual approximation ratios vs the exact "
      "optimum on best/worst-case instance specs (Tables II-III).");
  cli.add_int("trials", 5, "instances per spec (paper uses 20)");
  cli.add_int("seed", 42, "base RNG seed");
  cli.add_double("epsilon", 0.3, "PTAS accuracy (paper uses 0.3)");
  cli.add_double("ip-probe-seconds", 5.0, "budget per exact feasibility probe");
  cli.add_double("ip-total-seconds", 15.0, "total budget per exact solve");
  cli.add_bool("csv", false, "emit CSV instead of aligned tables");
  if (!cli.parse(argc, argv)) return 0;

  RatioConfig config;
  config.trials = static_cast<int>(cli.get_int("trials"));
  config.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  config.epsilon = cli.get_double("epsilon");
  config.exact.probe_limits.max_seconds = cli.get_double("ip-probe-seconds");
  config.exact.max_total_seconds = cli.get_double("ip-total-seconds");

  std::cout << "=== Figure 5: actual approximation ratios (eps="
            << config.epsilon << ", trials=" << config.trials << ") ===\n"
            << "ratio = makespan(algorithm) / makespan(IP); the parallel PTAS\n"
            << "produces the same schedules as the sequential PTAS (paper SV.B).\n\n";

  const auto rows = run_ratio_experiment(config, std::cerr);

  TablePrinter table({"instance", "family", "m", "n", "ParallelPTAS", "LPT", "LS",
                      "MULTIFIT", "IP certified"});
  for (const RatioRow& row : rows) {
    table.add_row({row.spec.label, family_name(row.spec.family),
                   std::to_string(row.spec.machines), std::to_string(row.spec.jobs),
                   TablePrinter::fmt(row.ratio_ptas, 4),
                   TablePrinter::fmt(row.ratio_lpt, 4),
                   TablePrinter::fmt(row.ratio_ls, 4),
                   TablePrinter::fmt(row.ratio_multifit, 4),
                   std::to_string(row.optimal_count) + "/" +
                       std::to_string(row.trials)});
  }
  std::cout << (cli.get_bool("csv") ? table.to_csv() : table.to_string());

  // Paper headline: on the LPT-adversarial family the gap between LPT and
  // the PTAS is largest (paper: 0.28 in the best case I6).
  double best_gap = 0.0;
  std::string best_label;
  for (const RatioRow& row : rows) {
    const double gap = row.ratio_lpt - row.ratio_ptas;
    if (gap > best_gap) {
      best_gap = gap;
      best_label = row.spec.label;
    }
  }
  std::cout << "\nlargest LPT-vs-PTAS gap: " << TablePrinter::fmt(best_gap, 4)
            << " on " << best_label << "\n";
  return 0;
}

int main(int argc, char** argv) {
  return run_main([&] { return run_bench(argc, argv); });
}
