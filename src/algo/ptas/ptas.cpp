#include "algo/ptas/ptas.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <optional>
#include <span>

#include "algo/list_scheduling.hpp"
#include "algo/lpt.hpp"
#include "algo/ptas/reconstruct.hpp"
#include "core/bounds.hpp"
#include "obs/metrics.hpp"
#include "util/error.hpp"
#include "util/stopwatch.hpp"

namespace pcmax {

int accuracy_k(double epsilon) {
  PCMAX_REQUIRE(epsilon > 0.0, "epsilon must be positive");
  const double inv = 1.0 / epsilon;
  PCMAX_REQUIRE(inv < 64.0, "epsilon too small: k = ceil(1/eps) must stay below 64");
  return std::max(1, static_cast<int>(std::ceil(inv)));
}

std::string dp_engine_name(DpEngine engine) {
  switch (engine) {
    case DpEngine::kBottomUp: return "bottom-up";
    case DpEngine::kParallelScan: return "parallel-scan";
    case DpEngine::kParallelBucketed: return "parallel-bucketed";
  }
  throw InvalidArgumentError("unknown DP engine");
}

PtasSolver::PtasSolver(PtasOptions options)
    : options_(std::move(options)), k_(accuracy_k(options_.epsilon)) {
  const bool needs_executor = options_.engine == DpEngine::kParallelScan ||
                              options_.engine == DpEngine::kParallelBucketed;
  PCMAX_REQUIRE(!needs_executor || options_.executor != nullptr,
                "parallel DP engines require an executor");
  PCMAX_REQUIRE(!options_.limits.cancel.valid(),
                "PtasOptions.limits.cancel is not read by PtasSolver; pass "
                "the stop signal as SolveContext.cancel");
}

std::string PtasSolver::name() const {
  return options_.engine == DpEngine::kBottomUp ? "PTAS" : "ParallelPTAS";
}

DpBackendFn PtasSolver::make_backend(const CancellationToken& cancel) const {
  DpOptions sequential;
  sequential.kernel = options_.kernel;
  sequential.cancel = cancel;
  switch (options_.engine) {
    case DpEngine::kBottomUp:
      return [sequential](const RoundedInstance& rounded,
                          const StateSpace& space, const ConfigSet& configs) {
        return dp_bottom_up(rounded, space, configs, sequential);
      };
    case DpEngine::kParallelScan:
    case DpEngine::kParallelBucketed: {
      ParallelDpOptions dp_options;
      dp_options.executor = options_.executor;
      dp_options.variant = options_.engine == DpEngine::kParallelScan
                               ? ParallelDpVariant::kScanPerLevel
                               : ParallelDpVariant::kBucketed;
      dp_options.kernel = options_.kernel;
      dp_options.cancel = cancel;
      // A team-sweep fill too small to split runs inline on the caller as
      // dp_bottom_up (the same table; see kTeamFillMinWork). Only a team
      // wider than one thread has a hand-off and barrier waits to save.
      const bool team_sweep = options_.engine == DpEngine::kParallelBucketed &&
                              options_.executor->team_size() > 1;
      return [dp_options, team_sweep, sequential](const RoundedInstance& rounded,
                                                  const StateSpace& space,
                                                  const ConfigSet& configs) {
        if (team_sweep && static_cast<std::uint64_t>(space.size()) * configs.count() <
                              kTeamFillMinWork) {
          return dp_bottom_up(rounded, space, configs, sequential);
        }
        return dp_parallel(rounded, space, configs, dp_options);
      };
    }
  }
  throw InvalidArgumentError("unknown DP engine");
}

namespace {

/// The LPT schedule and the pigeonhole lower bound, both from one sort.
struct SeededStart {
  Schedule lpt;
  Time lpt_makespan = 0;
  Time lower_bound = 0;
};

SeededStart seed_search(const Instance& instance) {
  std::vector<int> jobs(static_cast<std::size_t>(instance.jobs()));
  std::iota(jobs.begin(), jobs.end(), 0);
  const std::vector<int> order = sort_jobs_lpt(instance, jobs);
  SeededStart seed{Schedule(instance.machines())};
  list_schedule_onto(instance, order, seed.lpt);  // lpt_onto over every job
  seed.lpt_makespan = seed.lpt.makespan(instance);
  seed.lower_bound = improved_lower_bound(instance, order);
  return seed;
}

/// Fills result.stats from the search and, when the DP ran, the run the
/// schedule came from (nullptr for an LPT-certified solve). The trace's last
/// row stands for the paper's fill at T*; `final_row_copied` says it copies
/// the last feasible probe's row, a fill the sums must not count twice.
void record_stats(PtasResult& result, int k, const BisectionResult& bisection,
                  const DpAtTarget* final_run, bool final_row_copied) {
  // Aggregate statistics over the fills the solve ran.
  double dp_seconds = 0.0;
  std::uint64_t entries = 0;
  std::uint64_t scans = 0;
  std::uint64_t pruned = 0;
  std::uint64_t simd_blocks = 0;
  std::uint64_t scalar_fallbacks = 0;
  std::size_t max_table = 0;
  const std::size_t fills = bisection.trace.size() - (final_row_copied ? 1 : 0);
  for (const BisectionIteration& it : std::span(bisection.trace).first(fills)) {
    dp_seconds += it.dp_seconds;
    entries += it.entries_computed;
    scans += it.config_scans;
    pruned += it.configs_pruned;
    simd_blocks += it.simd_blocks;
    scalar_fallbacks += it.scalar_fallbacks;
    max_table = std::max(max_table, it.table_size);
  }
  result.stats["k"] = k;
  // The last trace entry stands for the paper's fill at T*, not a bisection
  // step; a solve that LPT certified has no trace at all.
  result.stats["iterations"] =
      bisection.trace.empty() ? 0.0 : static_cast<double>(bisection.trace.size() - 1);
  result.stats["t_star"] = static_cast<double>(bisection.t_star);
  result.stats["lb0"] = static_cast<double>(bisection.lb0);
  result.stats["ub0"] = static_cast<double>(bisection.ub0);
  result.stats["lb_start"] = static_cast<double>(bisection.lb_start);
  result.stats["ub_start"] = static_cast<double>(bisection.ub_start);
  result.stats["incumbent_clamped"] = bisection.incumbent_clamped ? 1.0 : 0.0;
  result.stats["dp_seconds"] = dp_seconds;
  result.stats["entries_computed"] = static_cast<double>(entries);
  result.stats["config_scans"] = static_cast<double>(scans);
  result.stats["configs_pruned"] = static_cast<double>(pruned);
  result.stats["simd_blocks"] = static_cast<double>(simd_blocks);
  result.stats["scalar_fallbacks"] = static_cast<double>(scalar_fallbacks);
  result.stats["max_table_size"] = static_cast<double>(max_table);
  result.stats["final_long_jobs"] =
      final_run == nullptr ? 0.0 : static_cast<double>(final_run->rounded.total_long_jobs);
  result.stats["final_levels"] =
      final_run == nullptr ? 0.0 : static_cast<double>(final_run->space.max_level() + 1);
}

}  // namespace

PtasResult PtasSolver::solve_impl(const Instance& instance,
                                  const SolveContext& context) {
  Stopwatch sw;
  const ContextScopes scopes(context);
  const CancellationToken stop = context.effective_token();
  // A stopped solve throws even when no probe would run.
  if (stop.valid()) stop.check();

  // The token rides along with the DP budgets, which already reach every
  // probe site (the bisection, and the fill at T* when no probe was
  // feasible). The incumbent board, when the context carries one, clamps
  // the search's initial upper bound (read once — see DpLimits::incumbent).
  DpLimits limits = options_.limits;
  limits.cancel = stop;
  if (limits.incumbent == nullptr) limits.incumbent = context.incumbent;

  // The search bracket: the paper's [Eq. 1, Eq. 2], or [pigeonhole bound,
  // LPT makespan]. Any schedule's makespan is a sound start UB (the DP is
  // feasible at every T >= OPT), and when the bound already reaches LPT's
  // makespan, LPT is optimal and no DP runs at all.
  BisectionResult bisection;
  SearchBracket start = paper_search_bracket(instance);
  if (!options_.paper_bracket) {
    SeededStart seed = seed_search(instance);
    if (seed.lower_bound >= seed.lpt_makespan) {
      bisection.lb0 = start.lb;
      bisection.ub0 = start.ub;
      bisection.t_star = bisection.lb_start = bisection.ub_start = seed.lpt_makespan;
      PtasResult result;
      result.schedule = std::move(seed.lpt);
      result.makespan = seed.lpt_makespan;
      result.proven_optimal = true;
      result.seconds = sw.elapsed_seconds();
      record_stats(result, k_, bisection, nullptr, false);
      result.bisection = std::move(bisection);
      return result;
    }
    start = {seed.lower_bound, seed.lpt_makespan};
  }

  // Search for the target makespan (Alg. 1 Lines 5-30), keeping the last
  // feasible probe: its target is T*, and its table is all the
  // reconstruction needs (Lines 26, 31-51).
  const DpBackendFn backend = make_backend(stop);
  std::optional<DpAtTarget> kept;
  bisection = bisect_target_makespan(instance, k_, backend, limits, start, &kept);

  // The trace's last row stands for the paper's fill at T* (Line 26), so
  // that the simulated-multicore replay charges it: a copy of the kept
  // probe's row, or, when no probe was feasible, the row of the one fill at
  // T* (the bracket's upper end, feasible by the bisection invariant).
  const bool final_row_copied = kept.has_value();
  if (final_row_copied) {
    const auto row = std::find_if(bisection.trace.rbegin(), bisection.trace.rend(),
                                  [](const BisectionIteration& it) { return it.feasible; });
    bisection.trace.push_back(*row);
  } else {
    Stopwatch probe_clock;
    kept.emplace(run_dp_at(instance, bisection.t_star, k_, backend, limits));
    bisection.trace.push_back(trace_row(*kept, true, probe_clock.elapsed_seconds()));
  }
  const DpAtTarget& at = *kept;
  Schedule schedule = reconstruct_full_schedule(instance, at);

  PtasResult result;
  result.schedule = std::move(schedule);
  result.makespan = result.schedule.makespan(instance);
  result.seconds = sw.elapsed_seconds();
  record_stats(result, k_, bisection, &at, final_row_copied);

  // The kernel the runs actually used (post resolve_dp_kernel), for result
  // consumers and the metrics export.
  const char* kernel_used = dp_kernel_name(at.run.stats.kernel);
  result.notes["dp_kernel"] = kernel_used;
  if (obs::Metrics* metrics = obs::current()) {
    metrics->note("dp.kernel", kernel_used);
  }

  if (!options_.keep_trace) bisection.trace.clear();
  result.bisection = std::move(bisection);
  return result;
}

PtasResult PtasSolver::solve_with_trace(const Instance& instance) {
  return solve_impl(instance, SolveContext{});
}

PtasResult PtasSolver::solve_with_trace(const Instance& instance,
                                        const SolveContext& context) {
  return solve_impl(instance, context);
}

SolverResult PtasSolver::solve(const Instance& instance) {
  return solve_impl(instance, SolveContext{});
}

SolverResult PtasSolver::solve(const Instance& instance,
                               const SolveContext& context) {
  return solve_impl(instance, context);
}

}  // namespace pcmax
