#include "harness/experiment.hpp"

#include <ostream>

#include "algo/list_scheduling.hpp"
#include "algo/lpt.hpp"
#include "algo/multifit.hpp"
#include "algo/ptas/ptas.hpp"
#include "util/error.hpp"
#include "util/stats.hpp"

namespace pcmax {

SpeedupResult run_speedup_experiment(const SpeedupConfig& config, std::ostream& log) {
  PCMAX_REQUIRE(config.trials >= 1, "need at least one trial");
  SpeedupResult result;

  for (const InstanceFamily family : config.families) {
    log << "[speedup] family " << family_name(family) << " m=" << config.machines
        << " n=" << config.jobs << "\n";

    // Per-core accumulators.
    std::vector<RunningStats> parallel_seconds(config.core_counts.size());
    std::vector<RunningStats> speedup_ptas(config.core_counts.size());
    std::vector<RunningStats> speedup_ip(config.core_counts.size());
    RunningStats ptas_seconds;
    RunningStats ip_seconds;
    RunningStats makespan_ratio;
    int ip_optimal = 0;

    for (int trial = 0; trial < config.trials; ++trial) {
      const Instance instance =
          generate_instance(family, config.machines, config.jobs, config.seed,
                            static_cast<std::uint64_t>(trial));

      // Sequential PTAS with trace (the speedup baseline).
      PtasOptions ptas_options;
      ptas_options.epsilon = config.epsilon;
      ptas_options.engine = DpEngine::kBottomUp;
      ptas_options.kernel = config.kernel;
      // The paper's bracket keeps the replayed probe traces the paper's.
      ptas_options.paper_bracket = true;
      ptas_options.keep_trace = true;
      PtasSolver ptas(ptas_options);
      const PtasResult seq = ptas.solve_with_trace(instance);
      // The trace's last row charges the paper's fill at T* (Alg. 1 Line
      // 26). When it copies the last feasible probe's row, the solve ran no
      // such fill, so its time is charged to the solve as well: the replays
      // take the solve's time outside the DP as total minus traced DP time.
      double traced_dp_seconds = 0.0;
      for (const BisectionIteration& row : seq.bisection.trace) {
        traced_dp_seconds += row.dp_seconds;
      }
      const double seq_seconds =
          seq.seconds + traced_dp_seconds - seq.stats.at("dp_seconds");
      ptas_seconds.add(
          scaled_sequential_seconds(seq.bisection, seq_seconds, config.model));

      // Exact "IP" comparator (see DESIGN.md: CPLEX substitution).
      SolverResult ip;
      if (config.use_milp_as_ip) {
        ip = PcmaxIpSolver(config.milp).solve(instance);
      } else {
        ip = ExactSolver(config.exact).solve(instance);
      }
      ip_seconds.add(ip.seconds);
      if (ip.proven_optimal) ++ip_optimal;
      makespan_ratio.add(static_cast<double>(seq.makespan) /
                         static_cast<double>(ip.makespan));

      if (config.verify_parallel_engines) {
        // Cross-check: a genuinely threaded run must reproduce the same
        // makespan as the sequential PTAS (paper: identical guarantees).
        WorkStealingExecutor executor(2);
        PtasOptions par_options = ptas_options;
        par_options.engine = DpEngine::kParallelBucketed;
        par_options.executor = &executor;
        par_options.keep_trace = false;
        PtasSolver parallel(par_options);
        const SolverResult par = parallel.solve(instance);
        PCMAX_CHECK(par.makespan == seq.makespan,
                    "parallel PTAS diverged from sequential PTAS");
      }

      // The work_scale calibration applies to the sequential baseline and
      // the parallel replay alike (EXPERIMENTS.md documents the setting).
      const double seq_scaled =
          scaled_sequential_seconds(seq.bisection, seq_seconds, config.model);
      for (std::size_t c = 0; c < config.core_counts.size(); ++c) {
        const unsigned cores = config.core_counts[c];
        const double simulated = simulate_parallel_ptas_seconds(
            seq.bisection, seq_seconds, cores, config.model);
        parallel_seconds[c].add(simulated);
        speedup_ptas[c].add(seq_scaled / simulated);
        speedup_ip[c].add(ip.seconds / simulated);
      }
    }

    for (std::size_t c = 0; c < config.core_counts.size(); ++c) {
      SpeedupCell cell;
      cell.family = family;
      cell.cores = config.core_counts[c];
      cell.parallel_seconds = parallel_seconds[c].mean();
      cell.speedup_vs_ptas = speedup_ptas[c].mean();
      cell.speedup_vs_ip = speedup_ip[c].mean();
      result.cells.push_back(cell);
    }

    SpeedupFamilySummary summary;
    summary.family = family;
    summary.ptas_seconds = ptas_seconds.mean();
    summary.ip_seconds = ip_seconds.mean();
    summary.ptas_makespan_ratio = makespan_ratio.mean();
    summary.ip_optimal_count = ip_optimal;
    summary.trials = config.trials;
    result.summaries.push_back(summary);
  }
  return result;
}

std::vector<RatioRow> run_ratio_experiment(const RatioConfig& config,
                                           std::ostream& log) {
  PCMAX_REQUIRE(config.trials >= 1, "need at least one trial");
  std::vector<RatioRow> rows;

  for (const RatioInstanceSpec& spec : config.specs) {
    log << "[ratio] " << spec.label << " " << family_name(spec.family)
        << " m=" << spec.machines << " n=" << spec.jobs << "\n";

    RunningStats r_ptas;
    RunningStats r_lpt;
    RunningStats r_ls;
    RunningStats r_multifit;
    int optimal = 0;

    for (int trial = 0; trial < config.trials; ++trial) {
      const Instance instance =
          generate_instance(spec.family, spec.machines, spec.jobs, config.seed,
                            static_cast<std::uint64_t>(trial));

      ExactSolver exact(config.exact);
      const SolverResult ip = exact.solve(instance);
      if (ip.proven_optimal) ++optimal;
      const auto opt = static_cast<double>(ip.makespan);

      PtasOptions ptas_options;
      ptas_options.epsilon = config.epsilon;
      ptas_options.engine = DpEngine::kBottomUp;
      ptas_options.paper_bracket = true;  // the paper's ratios, as replayed
      PtasSolver ptas(ptas_options);
      r_ptas.add(static_cast<double>(ptas.solve(instance).makespan) / opt);
      r_lpt.add(static_cast<double>(LptSolver().solve(instance).makespan) / opt);
      r_ls.add(static_cast<double>(ListSchedulingSolver().solve(instance).makespan) /
               opt);
      r_multifit.add(
          static_cast<double>(MultifitSolver().solve(instance).makespan) / opt);
    }

    RatioRow row;
    row.spec = spec;
    row.ratio_ptas = r_ptas.mean();
    row.ratio_lpt = r_lpt.mean();
    row.ratio_ls = r_ls.mean();
    row.ratio_multifit = r_multifit.mean();
    row.optimal_count = optimal;
    row.trials = config.trials;
    rows.push_back(row);
  }
  return rows;
}

}  // namespace pcmax
