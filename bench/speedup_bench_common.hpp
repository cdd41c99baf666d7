// Shared driver for the Figure 2/3/4 speedup benches.
//
// Each figure binary fixes (m, n) and calls run_speedup_figure, which parses
// common flags, runs the experiment and prints three paper-style sections:
//   (a) average speedup of the parallel PTAS vs the sequential PTAS,
//   (b) average speedup vs the exact "IP" solver,
//   (c) average running times.
#pragma once

#include <iostream>
#include <memory>
#include <optional>
#include <string>

#include "harness/calibration.hpp"
#include "harness/experiment.hpp"
#include "obs/metrics.hpp"
#include "obs/metrics_json.hpp"
#include "parallel/executor.hpp"
#include "util/cli.hpp"
#include "util/table_printer.hpp"

namespace pcmax::benchapp {

inline int run_speedup_figure(const std::string& figure, int machines, int jobs,
                              int argc, const char* const* argv) {
  CliParser cli("Reproduces paper " + figure + ": speedup of the parallel PTAS (m=" +
                std::to_string(machines) + ", n=" + std::to_string(jobs) + ").");
  cli.add_int("m", machines, "number of machines");
  cli.add_int("n", jobs, "number of jobs");
  cli.add_int("trials", 3, "instances per family (paper uses 20)");
  cli.add_int("seed", 42, "base RNG seed");
  cli.add_double("epsilon", 0.3, "PTAS accuracy (paper uses 0.3)");
  cli.add_double("ip-probe-seconds", 5.0, "budget per exact feasibility probe");
  cli.add_double("ip-total-seconds", 15.0, "total budget per exact solve");
  cli.add_double("barrier-us", 2.0,
                 "simulated per-level sync cost in microseconds; negative = "
                 "measure this machine's fork-join cost (harness/calibration)");
  cli.add_double("work-scale", 100.0,
                 "multiplier on the measured per-entry DP cost, calibrating "
                 "the simulated machine to the paper's (much slower) 2017 "
                 "implementation; 1 = measure this library as-is");
  cli.add_string("ip-solver", "bb",
                 "exact comparator playing CPLEX's role: 'bb' (combinatorial "
                 "branch-and-bound) or 'milp' (generic MILP over the IP)");
  cli.add_bool("verify-threads", false,
               "also run the real threaded engine and cross-check makespans");
  cli.add_bool("faithful-kernel", true,
               "re-enumerate configurations per DP entry as the paper's "
               "Algorithm 3 does (false = this library's optimised kernel)");
  cli.add_bool("csv", false, "emit CSV instead of aligned tables");
  cli.add_string("metrics", "",
                 "write a JSON runtime-metrics profile of the whole "
                 "experiment (counters, timers, per-level DP timings) to "
                 "this path");
  if (!cli.parse(argc, argv)) return 0;

  SpeedupConfig config;
  config.machines = static_cast<int>(cli.get_int("m"));
  config.jobs = static_cast<int>(cli.get_int("n"));
  config.trials = static_cast<int>(cli.get_int("trials"));
  config.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  config.epsilon = cli.get_double("epsilon");
  config.core_counts = {1, 2, 4, 8, 16};
  if (cli.get_double("barrier-us") < 0.0) {
    const CalibrationResult calibration = calibrate_machine(2);
    config.model.barrier_seconds = calibration.forkjoin_seconds;
    std::cerr << "[calibration] fork-join = "
              << calibration.forkjoin_seconds * 1e6 << " us, per-entry = "
              << calibration.dp_entry_seconds * 1e9 << " ns\n";
  } else {
    config.model.barrier_seconds = cli.get_double("barrier-us") * 1e-6;
  }
  config.model.work_scale = cli.get_double("work-scale");
  config.exact.probe_limits.max_seconds = cli.get_double("ip-probe-seconds");
  config.exact.max_total_seconds = cli.get_double("ip-total-seconds");
  config.use_milp_as_ip = cli.get_string("ip-solver") == "milp";
  config.milp.max_seconds = cli.get_double("ip-total-seconds");
  config.verify_parallel_engines = cli.get_bool("verify-threads");
  config.kernel = cli.get_bool("faithful-kernel") ? DpKernel::kPerEntryEnum
                                                  : DpKernel::kGlobalConfigs;

  std::cout << "=== " << figure << ": m=" << config.machines
            << ", n=" << config.jobs << ", eps=" << config.epsilon
            << ", trials=" << config.trials
            << " (parallel times from the simulated multicore; see DESIGN.md)\n\n";

  const std::string metrics_path = cli.get_string("metrics");
  std::optional<obs::Metrics> metrics;
  // A unique_ptr, not a std::optional: GCC 12 reads a disengaged optional
  // scope's pointer as maybe-uninitialized (-Wmaybe-uninitialized).
  std::unique_ptr<obs::MetricsScope> metrics_scope;
  if (!metrics_path.empty()) {
    metrics.emplace(hardware_threads());
    metrics_scope = std::make_unique<obs::MetricsScope>(*metrics);
  }

  const SpeedupResult result = run_speedup_experiment(config, std::cerr);

  if (metrics.has_value()) {
    metrics_scope.reset();
    obs::write_metrics_file(metrics_path, *metrics);
    std::cerr << "wrote metrics profile to " << metrics_path << "\n";
  }
  const bool csv = cli.get_bool("csv");

  auto print = [&](TablePrinter& table, const std::string& title) {
    std::cout << title << "\n" << (csv ? table.to_csv() : table.to_string()) << "\n";
  };

  {
    TablePrinter table({"family", "cores", "speedup vs PTAS"});
    for (const SpeedupCell& cell : result.cells) {
      table.add_row({family_name(cell.family), std::to_string(cell.cores),
                     TablePrinter::fmt(cell.speedup_vs_ptas, 2)});
    }
    print(table, "(a) average speedup with respect to the sequential PTAS");
  }
  {
    TablePrinter table({"family", "cores", "speedup vs IP"});
    for (const SpeedupCell& cell : result.cells) {
      table.add_row({family_name(cell.family), std::to_string(cell.cores),
                     TablePrinter::fmt(cell.speedup_vs_ip, 2)});
    }
    print(table, "(b) average speedup with respect to IP (exact solver)");
  }
  {
    TablePrinter table({"family", "PTAS seq (s)", "parallel @16 (s)", "IP (s)",
                        "IP certified", "PTAS/OPT"});
    for (const SpeedupFamilySummary& summary : result.summaries) {
      double at16 = 0.0;
      for (const SpeedupCell& cell : result.cells) {
        if (cell.family == summary.family && cell.cores == 16) {
          at16 = cell.parallel_seconds;
        }
      }
      table.add_row({family_name(summary.family),
                     TablePrinter::fmt(summary.ptas_seconds, 4),
                     TablePrinter::fmt(at16, 4),
                     TablePrinter::fmt(summary.ip_seconds, 4),
                     std::to_string(summary.ip_optimal_count) + "/" +
                         std::to_string(summary.trials),
                     TablePrinter::fmt(summary.ptas_makespan_ratio, 4)});
    }
    print(table, "(c) average running times");
  }
  return 0;
}

}  // namespace pcmax::benchapp
