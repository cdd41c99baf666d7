// Example: what-if execution — plan with estimates, execute with reality.
//
// Scenario: job durations are estimates; the operator wants to know how
// much a planned makespan can slip before committing to a deadline. The
// discrete-event simulator replays the planned schedule under processing-
// time noise and reports the realised-makespan distribution.
#include <iostream>

#include "pcmax.hpp"

using namespace pcmax;

int main() {
  const Instance plan =
      generate_instance(InstanceFamily::kUniform1To100, 6, 30, 2026, 0);

  // Plan with the parallel PTAS at eps = 0.3.
  WorkStealingExecutor executor(hardware_threads());
  PtasOptions options;
  options.engine = DpEngine::kParallelBucketed;
  options.executor = &executor;
  const SolverResult planned = PtasSolver(options).solve(plan);

  std::cout << "planned schedule (estimates):\n"
            << render_gantt(plan, planned.schedule) << "\n";

  // Execute once with +-20% noise and show the realised timeline.
  NoiseModel noise;
  noise.delta = 0.2;
  noise.seed = 7;
  const std::vector<Time> actual = perturb_times(plan, noise, /*trial=*/0);
  const SimResult realised = simulate_schedule(plan, planned.schedule, actual);
  std::cout << "one realised execution: planned " << planned.makespan
            << " -> realised " << realised.makespan << " (utilisation "
            << TablePrinter::fmt(100.0 * realised.mean_utilisation(), 1)
            << "%)\n\n";

  // Distribution across noise levels.
  TablePrinter table({"noise +-", "mean slip", "worst slip", "p. deadline ok"});
  for (const double delta : {0.05, 0.1, 0.2, 0.3}) {
    NoiseModel model;
    model.delta = delta;
    model.seed = 7;
    const RobustnessReport report =
        analyze_robustness(plan, planned.schedule, model, /*trials=*/200);
    // Probability the realised makespan stays within 110% of plan.
    const double deadline =
        1.10 * static_cast<double>(report.nominal_makespan);
    // Re-run the trials to count (cheap; the report only keeps summaries).
    int within = 0;
    for (int trial = 0; trial < 200; ++trial) {
      const auto times =
          perturb_times(plan, model, static_cast<std::uint64_t>(trial));
      if (static_cast<double>(
              simulate_schedule(plan, planned.schedule, times).makespan) <=
          deadline) {
        ++within;
      }
    }
    table.add_row({TablePrinter::fmt(100 * delta, 0) + "%",
                   TablePrinter::fmt(100 * (report.mean_inflation - 1.0), 1) + "%",
                   TablePrinter::fmt(100 * (report.worst_inflation - 1.0), 1) + "%",
                   TablePrinter::fmt(100.0 * within / 200.0, 1) + "%"});
  }
  std::cout << table.to_string()
            << "\n'deadline ok' = realised makespan within 110% of plan.\n";
  return 0;
}
