// Quickstart: schedule a handful of jobs with every solver in the library.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
#include <iostream>

#include "pcmax.hpp"

int main() {
  using namespace pcmax;

  // 4 machines, 12 jobs with hand-picked processing times.
  const Instance instance(4, {27, 19, 30, 11, 8, 21, 17, 5, 13, 9, 24, 16});

  std::cout << "instance: " << instance << "\n";
  std::cout << "bounds: LB=" << makespan_lower_bound(instance)
            << " UB=" << makespan_upper_bound(instance) << "\n\n";

  // --- The paper's parallel approximation algorithm -----------------------
  WorkStealingExecutor executor(hardware_threads());
  PtasOptions options;
  options.epsilon = 0.3;                         // (1+eps)-approximation
  options.engine = DpEngine::kParallelBucketed;  // Algorithm 3
  options.executor = &executor;
  PtasSolver parallel_ptas(options);

  SolverResult result = parallel_ptas.solve(instance);
  std::cout << "ParallelPTAS (eps=0.3) makespan = " << result.makespan << "\n";
  std::cout << result.schedule.to_string(instance) << "\n";
  std::cout << render_gantt(instance, result.schedule) << "\n";

  // End-to-end check on the discrete-event simulator: executing the
  // schedule really finishes at the reported makespan.
  const SimResult sim = simulate_schedule(instance, result.schedule);
  std::cout << "simulated finish: " << sim.makespan << " (utilisation "
            << TablePrinter::fmt(100.0 * sim.mean_utilisation(), 1) << "%)\n\n";

  // --- Compare all solvers ------------------------------------------------
  ListSchedulingSolver ls;
  LptSolver lpt;
  MultifitSolver multifit;
  PtasSolver sequential_ptas(PtasOptions{});  // sequential Algorithm 1+2
  ExactSolver exact;                          // certified optimum

  TablePrinter table({"solver", "makespan", "optimal?"});
  for (Solver* solver : std::initializer_list<Solver*>{
           &ls, &lpt, &multifit, &sequential_ptas, &parallel_ptas, &exact}) {
    const SolverResult r = solver->solve(instance);
    table.add_row({solver->name(), std::to_string(r.makespan),
                   r.proven_optimal ? "yes" : "-"});
  }
  std::cout << table.to_string();
  return 0;
}
