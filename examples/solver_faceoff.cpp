// Example: every solver in the library, side by side, across the paper's six
// instance families — a one-screen tour of the whole public API.
#include <iostream>

#include "pcmax.hpp"

using namespace pcmax;

int main() {
  const int machines = 8;
  const int jobs = 40;
  const std::uint64_t seed = 99;

  WorkStealingExecutor executor(hardware_threads());

  std::cout << "solver face-off: m=" << machines << ", n=" << jobs
            << ", one instance per family (seed " << seed << ")\n\n";

  for (const InstanceFamily family : all_families()) {
    const Instance instance = generate_instance(family, machines, jobs, seed, 0);

    // The certified reference.
    ExactSolverOptions exact_options;
    exact_options.max_total_seconds = 20.0;
    const SolverResult opt = ExactSolver(exact_options).solve(instance);

    ListSchedulingSolver ls;
    LptSolver lpt;
    MultifitSolver multifit;
    PtasSolver ptas{PtasOptions{}};
    PtasOptions par_options;
    par_options.engine = DpEngine::kParallelBucketed;
    par_options.executor = &executor;
    PtasSolver parallel_ptas(par_options);
    MipOptions milp_options;
    milp_options.max_seconds = 10.0;
    PcmaxIpSolver milp(milp_options);

    TablePrinter table({"solver", "makespan", "ratio", "seconds", "certified"});
    auto report = [&](Solver& solver) {
      const SolverResult r = solver.solve(instance);
      r.schedule.validate(instance);
      table.add_row({solver.name(), std::to_string(r.makespan),
                     TablePrinter::fmt(static_cast<double>(r.makespan) /
                                           static_cast<double>(opt.makespan),
                                       4),
                     TablePrinter::fmt(r.seconds, 4),
                     r.proven_optimal ? "yes" : "-"});
    };
    report(ls);
    report(lpt);
    report(multifit);
    report(ptas);
    report(parallel_ptas);
    report(milp);
    table.add_row({"IP (reference)", std::to_string(opt.makespan), "1.0000",
                   TablePrinter::fmt(opt.seconds, 4),
                   opt.proven_optimal ? "yes" : "-"});

    std::cout << family_name(family) << ":\n" << table.to_string() << "\n";
  }
  return 0;
}
