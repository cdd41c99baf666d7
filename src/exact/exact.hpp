// Exact optimal-makespan solver — the library's stand-in for the paper's
// CPLEX-based "IP" comparator (DESIGN.md §2).
//
// Binary search on the makespan over [LB, UB]: LB from Eq. (1); the initial
// incumbent (and UB) from LPT refined by MULTIFIT. Each probe calls the
// branch-and-bound packing decision (exact/bin_feasibility). With unlimited
// budgets the result is certified optimal; with budgets it degrades
// gracefully to the best incumbent with `proven_optimal == false`.
#pragma once

#include "core/solver.hpp"
#include "exact/bin_feasibility.hpp"

namespace pcmax {

/// Configuration of the exact solver.
struct ExactSolverOptions {
  /// Budgets applied to each feasibility probe. Leave `cancel` unset: the
  /// solver's stop signal is SolveContext.cancel.
  FeasibilitySearchLimits probe_limits;
  /// Overall wall-clock budget across all probes; once exceeded the solver
  /// returns the incumbent without optimality proof.
  double max_total_seconds = 300.0;
};

/// The exact solver ("IP" in the figure reproductions).
///
/// API v2: solve(instance, context) cooperates with a shared IncumbentBoard
/// when the context carries one — the board is snapshotted ONCE at solve
/// start (deterministic replay for a fixed start bound), the snapshot clamps
/// the binary-search upper bound (any published makespan is a feasible
/// capacity), witnesses found by the probes are published back, and a search
/// that closes the interval under an external clamp reports
/// notes["certified_value"] even when its own schedule is worse.
class ExactSolver final : public Solver {
 public:
  /// Throws InvalidArgumentError when options.probe_limits.cancel is set.
  explicit ExactSolver(ExactSolverOptions options = {});

  [[nodiscard]] std::string name() const override { return "IP"; }
  SolverResult solve(const Instance& instance) override;
  SolverResult solve(const Instance& instance,
                     const SolveContext& context) override;

 private:
  ExactSolverOptions options_;
};

}  // namespace pcmax
