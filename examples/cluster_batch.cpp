// Example: nightly batch queue on an HPC cluster.
//
// Scenario (the kind of workload the paper's introduction motivates): a
// cluster operator must place a nightly batch of CPU-bound jobs onto
// identical compute nodes so the whole batch finishes as early as possible —
// exactly P || C_max. The job mix is bimodal: many short analysis tasks plus
// a few long simulation runs, which is where greedy heuristics lose the most.
//
// The example compares LPT against the parallel PTAS at several accuracies
// and prints the certified optimality gap for each.
#include <iostream>

#include "pcmax.hpp"

using namespace pcmax;

namespace {

/// Builds a bimodal batch: `n_short` tasks of 5-30 minutes and `n_long`
/// simulations of 3-8 hours (all in minutes).
Instance make_batch(int nodes, int n_short, int n_long, std::uint64_t seed) {
  Xoshiro256StarStar rng(seed);
  std::vector<Time> minutes;
  minutes.reserve(static_cast<std::size_t>(n_short + n_long));
  for (int j = 0; j < n_short; ++j) minutes.push_back(uniform_int(rng, 5, 30));
  for (int j = 0; j < n_long; ++j) minutes.push_back(uniform_int(rng, 180, 480));
  return Instance(nodes, std::move(minutes));
}

}  // namespace

int main() {
  const int nodes = 12;
  const Instance batch = make_batch(nodes, /*n_short=*/80, /*n_long=*/10, 7);

  std::cout << "nightly batch: " << batch.jobs() << " jobs, " << nodes
            << " nodes, total work " << batch.total_time() << " node-minutes\n"
            << "lower bound on the finish time: " << makespan_lower_bound(batch)
            << " minutes\n\n";

  // Certified optimum as the yardstick (the batch is small enough).
  const SolverResult opt = ExactSolver().solve(batch);
  std::cout << "optimal finish time: " << opt.makespan << " minutes"
            << (opt.proven_optimal ? " (certified)" : " (best found)") << "\n\n";

  WorkStealingExecutor executor(hardware_threads());

  TablePrinter table({"scheduler", "finish (min)", "vs optimal", "solve time (s)"});
  auto report = [&](const std::string& name, const SolverResult& r) {
    table.add_row({name, std::to_string(r.makespan),
                   TablePrinter::fmt(static_cast<double>(r.makespan) /
                                         static_cast<double>(opt.makespan),
                                     4),
                   TablePrinter::fmt(r.seconds, 4)});
  };

  report("LS (queue order)", ListSchedulingSolver().solve(batch));
  report("LPT", LptSolver().solve(batch));
  report("MULTIFIT", MultifitSolver().solve(batch));

  for (const double epsilon : {0.5, 0.3, 0.2}) {
    PtasOptions options;
    options.epsilon = epsilon;
    options.engine = DpEngine::kParallelBucketed;
    options.executor = &executor;
    PtasSolver solver(options);
    report("ParallelPTAS eps=" + TablePrinter::fmt(epsilon, 1),
           solver.solve(batch));
  }

  std::cout << table.to_string()
            << "\nA tighter epsilon buys a better guarantee at more DP work;\n"
               "the parallel level-sweep keeps that affordable on a multicore\n"
               "head node (paper, Section III).\n";
  return 0;
}
