// SolveContext — the one object that carries a solve's cross-cutting knobs.
//
// Every solver entry point (`Solver::solve(instance, context)`) accepts it,
// so no options struct re-declares these knobs and no driver (CLI, resilient
// ladder, solve service, portfolio) links deadlines under tokens by hand.
//
//  * cancel / deadline — the cooperative stop signal and the wall-clock
//    budget it enforces. `effective_token()` links them, observing (never
//    mutating) the caller's token, exactly as each driver used to do by
//    hand.
//  * incumbent — an optional shared IncumbentBoard: the best makespan any
//    cooperating solver has produced so far. Racing solvers publish to it
//    and prune/clamp against it (the PTAS bisection tightens its initial
//    upper bound, the MILP branch-and-bound prunes against it); see
//    core/portfolio.hpp.
//  * thread_budget — advisory parallelism cap for solvers that own their
//    threads (0 = solver default).
//  * metrics / fault — optional ambient-scope installations for the solve's
//    duration. Both scopes are PROCESS-WIDE (obs::MetricsScope /
//    FaultScope semantics), so only single-driver processes — the CLI,
//    benches, tests — should set them; concurrent services leave them null
//    and install their own scopes at process level.
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>

#include "core/instance.hpp"
#include "obs/metrics.hpp"
#include "util/deadline.hpp"
#include "util/fault.hpp"

namespace pcmax {

/// Shared best-known-makespan board for cooperating solvers (the portfolio's
/// racers, or any caller that wants to seed a solver with a known bound).
/// Thread-safe: publish is a CAS loop, reads are relaxed loads. A makespan
/// published here must be the makespan of an ACTUAL schedule some
/// cooperating solver holds — consumers use it as a certified upper bound
/// on OPT (the PTAS clamps its bisection interval with it, the MILP prunes
/// nodes against it), which is only sound for realisable values.
class IncumbentBoard {
 public:
  /// Sentinel "no incumbent yet" value.
  static constexpr Time kNone = std::numeric_limits<Time>::max();

  /// Publishes `makespan` if it improves the board. Returns true on
  /// improvement. Fault site "portfolio.incumbent" fires on every publish
  /// attempt (before the update), so tests can crash a racer exactly at its
  /// publication point.
  bool publish(Time makespan);

  /// Best published makespan, or kNone when nothing was published yet.
  [[nodiscard]] Time best() const {
    return best_.load(std::memory_order_relaxed);
  }

  /// True once any solver published a makespan.
  [[nodiscard]] bool has_value() const { return best() != kNone; }

  /// Number of successful (improving) publishes.
  [[nodiscard]] std::uint64_t updates() const {
    return updates_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<Time> best_{kNone};
  std::atomic<std::uint64_t> updates_{0};
};

/// The v2 solve-scoped parameter object. Value type: copying shares the
/// cancellation state and the incumbent board (both are handles), which is
/// exactly what racing solvers need.
struct SolveContext {
  /// Caller-owned cooperative stop signal (inert by default).
  CancellationToken cancel;

  /// Wall-clock budget of this solve; unlimited by default. Linked under
  /// `cancel` by effective_token(), never merged into the caller's token.
  Deadline deadline;

  /// Advisory parallelism cap for solvers that own threads (0 = default).
  unsigned thread_budget = 0;

  /// Optional shared incumbent-makespan board (see IncumbentBoard).
  std::shared_ptr<IncumbentBoard> incumbent;

  /// Optional metrics collector installed (process-wide!) for the solve.
  obs::Metrics* metrics = nullptr;

  /// Optional fault injector installed (process-wide!) for the solve.
  FaultInjector* fault = nullptr;

  /// A context with no limits at all.
  static SolveContext unlimited() { return {}; }

  /// A context whose deadline expires `ms` milliseconds from now
  /// (0 = unlimited).
  static SolveContext with_time_limit_ms(std::int64_t ms);

  /// A context observing an existing token, with no own deadline.
  static SolveContext with_token(CancellationToken token);

  /// The stop signal a solver should poll: `cancel` with `deadline` layered
  /// on top. Returns `cancel` unchanged when the deadline is unlimited, so
  /// inert contexts stay free to poll.
  [[nodiscard]] CancellationToken effective_token() const;

  /// A copy with metrics/fault cleared. Drivers that install the scopes
  /// themselves (ResilientSolver, PortfolioSolver) pass this down to inner
  /// solvers so the process-wide scopes are not installed twice.
  [[nodiscard]] SolveContext without_scopes() const {
    SolveContext child = *this;
    child.metrics = nullptr;
    child.fault = nullptr;
    return child;
  }

  /// Milliseconds remaining on the deadline, clamped at >= 0; nullopt when
  /// unlimited. Drivers use this to derive sub-budgets for anytime solvers.
  [[nodiscard]] std::optional<std::int64_t> remaining_ms() const;
};

/// RAII installation of a context's optional metrics/fault scopes. A no-op
/// for null pointers. Same process-wide caveats as obs::MetricsScope and
/// FaultScope: one installer at a time.
class ContextScopes {
 public:
  explicit ContextScopes(const SolveContext& context) {
    if (context.fault != nullptr) fault_.emplace(*context.fault);
    if (context.metrics != nullptr) metrics_.emplace(*context.metrics);
  }

  ContextScopes(const ContextScopes&) = delete;
  ContextScopes& operator=(const ContextScopes&) = delete;

 private:
  std::optional<FaultScope> fault_;
  std::optional<obs::MetricsScope> metrics_;
};

}  // namespace pcmax
