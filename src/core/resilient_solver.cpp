#include "core/resilient_solver.hpp"

#include <string>
#include <utility>

#include "algo/local_search.hpp"
#include "algo/lpt.hpp"
#include "algo/multifit.hpp"
#include "obs/metrics.hpp"
#include "util/error.hpp"
#include "util/stopwatch.hpp"

namespace pcmax {

ResilientSolver::ResilientSolver(ResilientOptions options)
    : options_(std::move(options)) {
  PCMAX_REQUIRE(options_.multifit_iterations >= 1,
                "MULTIFIT fallback needs at least one iteration");
}

SolverResult ResilientSolver::solve(const Instance& instance) {
  return solve(instance, SolveContext{});
}

SolverResult ResilientSolver::solve(const Instance& instance,
                                    const SolveContext& context) {
  Stopwatch sw;
  const ContextScopes scopes(context);
  obs::Metrics* metrics = obs::current();
  const std::uint64_t solve_begin = metrics != nullptr ? obs::monotonic_ns() : 0;
  if (metrics != nullptr) metrics->add(0, obs::Counter::kResilientSolves);

  // Effective stop signal: the caller's token, plus this solve's deadline
  // layered on top (the caller's token is observed, never mutated). Inner
  // solvers get the context minus its scopes (installed above, once).
  const SolveContext inner = context.without_scopes();
  const CancellationToken token = inner.effective_token();

  SolverResult result;
  std::string algorithm;
  std::string reason;

  // Stage 1: the preferred solver when one is injected (e.g. the portfolio
  // as the top rung), else the PTAS — all-or-nothing under the effective
  // token. The admission layer of a caller may disable the PTAS outright
  // (cheap path).
  if (options_.preferred != nullptr || options_.ptas_enabled) {
    Stopwatch stage;
    try {
      if (options_.preferred != nullptr) {
        result = options_.preferred->solve(instance, inner);
        algorithm = options_.preferred->name();
      } else {
        PtasSolver solver(options_.ptas);
        result = solver.solve(instance, inner);
        algorithm = solver.name();
      }
    } catch (const DeadlineExceededError&) {
      reason = "deadline";
    } catch (const CancelledError&) {
      reason = "cancelled";
    } catch (const ResourceLimitError& e) {
      reason = std::string("resource-limit: ") + e.what();
    }
    result.stats["stage_ptas_seconds"] = stage.elapsed_seconds();
  } else {
    reason = "ptas-skipped";
    result.stats["stage_ptas_seconds"] = 0.0;
  }

  // Stages 2+3: constructive fallback + polish. Both rungs terminate
  // promptly even when `token` has already stopped — MULTIFIT keeps its
  // guaranteed-feasible upper-bound packing and LPT never polls the token.
  if (!reason.empty()) {
    if (metrics != nullptr) metrics->add(0, obs::Counter::kResilientFallbacks);
    const std::uint64_t fallback_begin =
        metrics != nullptr ? obs::monotonic_ns() : 0;

    Stopwatch stage;
    MultifitSolver multifit(options_.multifit_iterations, token);
    SolverResult multifit_result = multifit.solve(instance);
    SolverResult lpt_result = LptSolver().solve(instance);
    const bool multifit_wins = multifit_result.makespan <= lpt_result.makespan;
    const double ptas_seconds = result.stats["stage_ptas_seconds"];
    result = multifit_wins ? std::move(multifit_result) : std::move(lpt_result);
    algorithm = multifit_wins ? "MULTIFIT" : "LPT";
    result.stats["stage_ptas_seconds"] = ptas_seconds;
    result.stats["stage_fallback_seconds"] = stage.elapsed_seconds();

    Stopwatch polish;
    const LocalSearchStats ls = improve_schedule(
        instance, result.schedule, options_.local_search_rounds, token);
    if (ls.moves + ls.swaps > 0) {
      result.makespan = result.schedule.makespan(instance);
      algorithm += "+LS";
    }
    result.stats["stage_polish_seconds"] = polish.elapsed_seconds();
    result.proven_optimal = false;

    if (metrics != nullptr) {
      metrics->add_span("resilient.fallback", 0, fallback_begin,
                        obs::monotonic_ns());
    }
  }

  const std::string effective_reason = reason.empty() ? "none" : reason;
  result.notes["algorithm_used"] = algorithm;
  result.notes["degradation_reason"] = effective_reason;
  result.seconds = sw.elapsed_seconds();

  if (metrics != nullptr) {
    // One note written as a single consistent pair. Two separate keys would
    // race pair-wise under concurrent solves: "algorithm_used" from solve A
    // could be observed next to "degradation_reason" from solve B. A lone
    // last-write-wins key cannot mix provenance from two solves.
    metrics->note("resilient.last_solve", algorithm + ";" + effective_reason);
    metrics->add_span("resilient.solve", 0, solve_begin, obs::monotonic_ns());
  }
  return result;
}

}  // namespace pcmax
