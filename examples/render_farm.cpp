// Example: render-farm shot scheduling with an accuracy/time dial.
//
// Scenario: a render farm distributes frame-render jobs of very different
// lengths over identical render nodes before a delivery deadline. The studio
// cares about the *guarantee*: with the PTAS, the makespan is provably within
// (1+eps) of the best possible, and eps is a dial traded against solver time.
//
// This example sweeps epsilon, showing how k = ceil(1/eps) drives the DP
// table size (the paper's O((n/eps)^(1/eps^2)) growth) while the realised
// makespan improves monotonically in guarantee (not always in value).
#include <iostream>

#include "pcmax.hpp"

using namespace pcmax;

int main() {
  // 16 render nodes; frame batches drawn from a heavy-tailed mix: crowd and
  // fx shots render for hours, inserts for minutes.
  const int nodes = 16;
  Xoshiro256StarStar rng(2026);
  std::vector<Time> frames;
  for (int j = 0; j < 60; ++j) frames.push_back(uniform_int(rng, 4, 40));
  for (int j = 0; j < 12; ++j) frames.push_back(uniform_int(rng, 120, 300));
  const Instance shot(nodes, std::move(frames));

  std::cout << "render batch: " << shot.jobs() << " frames on " << nodes
            << " nodes; lower bound " << makespan_lower_bound(shot)
            << " minutes\n\n";

  WorkStealingExecutor executor(hardware_threads());

  TablePrinter table({"epsilon", "k", "guarantee", "makespan", "max DP table",
                      "bisection probes", "solve time (s)"});
  for (const double epsilon : {1.0, 0.5, 0.4, 0.3, 0.25, 0.2}) {
    PtasOptions options;
    options.epsilon = epsilon;
    options.engine = DpEngine::kParallelBucketed;
    options.executor = &executor;
    PtasSolver solver(options);
    const SolverResult r = solver.solve(shot);
    table.add_row({TablePrinter::fmt(epsilon, 2), std::to_string(solver.k()),
                   "<= " + TablePrinter::fmt(1.0 + epsilon, 2) + " x OPT",
                   std::to_string(r.makespan),
                   TablePrinter::fmt(r.stats.at("max_table_size"), 0),
                   TablePrinter::fmt(r.stats.at("iterations"), 0),
                   TablePrinter::fmt(r.seconds, 4)});
  }
  std::cout << table.to_string();

  std::cout << "\nNote how the DP table (and so the parallelisable work)\n"
               "explodes as epsilon shrinks - the exponential dependence on\n"
               "1/eps^2 is exactly why the paper parallelises the DP rather\n"
               "than searching for a faster sequential PTAS.\n";
  return 0;
}
