#include "exact/exact.hpp"

#include <algorithm>
#include <string>

#include "algo/lpt.hpp"
#include "algo/multifit.hpp"
#include "core/bounds.hpp"
#include "obs/metrics.hpp"
#include "util/error.hpp"
#include "util/stopwatch.hpp"

namespace pcmax {

ExactSolver::ExactSolver(ExactSolverOptions options) : options_(options) {
  PCMAX_REQUIRE(!options_.probe_limits.cancel.valid(),
                "ExactSolverOptions.probe_limits.cancel is not read by "
                "ExactSolver; pass the stop signal as SolveContext.cancel");
}

SolverResult ExactSolver::solve(const Instance& instance) {
  return solve(instance, SolveContext{});
}

SolverResult ExactSolver::solve(const Instance& instance,
                                const SolveContext& context) {
  Stopwatch sw;
  const ContextScopes scopes(context);
  SolverResult result;

  // Strong incumbent: LPT, improved by MULTIFIT when it does better. This
  // narrows [LB, UB] before any branch-and-bound probe runs.
  SolverResult incumbent = LptSolver().solve(instance);
  {
    SolverResult mf = MultifitSolver().solve(instance);
    if (mf.makespan < incumbent.makespan) incumbent = std::move(mf);
  }

  // The pigeonhole bounds often close the interval before any probe runs.
  Time lb = improved_lower_bound(instance);
  Time ub = incumbent.makespan;
  Schedule best = std::move(incumbent.schedule);

  // Read-once incumbent-board clamp: a published makespan is the makespan
  // of an actual schedule, hence a feasible capacity — a valid search UB
  // even though the certifying schedule lives with another solver. Our own
  // `best` is NOT replaced; if the search closes the interval below it, the
  // result carries certified_value instead of a better schedule.
  const std::shared_ptr<IncumbentBoard>& board = context.incumbent;
  Time external_cutoff = IncumbentBoard::kNone;
  bool clamped = false;
  if (board != nullptr && board->has_value()) {
    external_cutoff = board->best();
    if (external_cutoff < ub) {
      ub = std::max(lb, external_cutoff);
      clamped = true;
      if (obs::Metrics* metrics = obs::current()) {
        metrics->add(0, obs::Counter::kPortfolioBoundTightenings);
      }
    }
  }

  std::uint64_t nodes = 0;
  std::uint64_t probes = 0;
  bool proven = true;
  const char* limit_reason = "";

  FeasibilitySearchLimits probe_limits = options_.probe_limits;
  probe_limits.cancel = context.effective_token();
  const CancellationToken& cancel = probe_limits.cancel;
  while (lb < ub) {
    // Anytime semantics: a cancel or an exhausted total budget returns the
    // incumbent without an optimality proof, never an exception.
    if (cancel.valid() && cancel.should_stop()) {
      proven = false;
      limit_reason = "cancelled";
      break;
    }
    if (sw.elapsed_seconds() > options_.max_total_seconds) {
      proven = false;
      limit_reason = "total-time-budget";
      break;
    }
    const Time mid = lb + (ub - lb) / 2;
    Schedule witness(instance.machines());
    FeasibilityStats stats;
    const Feasibility answer =
        pack_within(instance, mid, probe_limits, &witness, &stats);
    nodes += stats.nodes;
    ++probes;

    switch (answer) {
      case Feasibility::kFeasible:
        best = std::move(witness);
        // The witness can beat the probed capacity; its makespan is itself
        // a feasible capacity, which tightens the interval for free.
        ub = std::min(mid, best.makespan(instance));
        if (board != nullptr) board->publish(best.makespan(instance));
        break;
      case Feasibility::kInfeasible:
        lb = mid + 1;
        break;
      case Feasibility::kUnknown:
        proven = false;
        limit_reason = "probe-budget";
        // Without a proof either way, we cannot tighten the interval
        // soundly; fall back to the incumbent.
        lb = ub;
        break;
    }
  }

  result.schedule = std::move(best);
  result.makespan = result.schedule.makespan(instance);
  result.proven_optimal = proven && result.makespan == lb;
  result.seconds = sw.elapsed_seconds();
  result.stats["nodes"] = static_cast<double>(nodes);
  result.stats["probes"] = static_cast<double>(probes);
  result.stats["lower_bound"] = static_cast<double>(lb);
  if (!proven && limit_reason[0] != '\0') result.notes["limit_reason"] = limit_reason;
  if (external_cutoff != IncumbentBoard::kNone) {
    result.stats["external_cutoff"] = static_cast<double>(external_cutoff);
    result.stats["incumbent_clamped"] = clamped ? 1.0 : 0.0;
    // A closed interval proves OPT == lb even when our own schedule is
    // worse (the certifying schedule is the board's).
    if (proven) result.notes["certified_value"] = std::to_string(lb);
  }
  return result;
}

}  // namespace pcmax
