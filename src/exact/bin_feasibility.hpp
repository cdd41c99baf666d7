// Decision procedure: do the jobs fit on m machines within capacity T?
//
// This is the engine of the exact solver that substitutes for the paper's
// CPLEX runs (see DESIGN.md §2). Branch-and-bound in non-increasing job
// order with:
//   * equal-load dominance — a job is never tried on two machines whose
//     current loads are equal (they are interchangeable);
//   * slack pruning — infeasible when the remaining processing time exceeds
//     the total remaining capacity;
//   * transposition memoisation — states (job index, multiset of loads)
//     already proven infeasible are not re-explored;
//   * node and wall-time budgets, yielding a three-valued answer.
#pragma once

#include <cstdint>
#include <optional>

#include "core/instance.hpp"
#include "core/schedule.hpp"
#include "util/deadline.hpp"

namespace pcmax {

/// Three-valued feasibility answer.
enum class Feasibility {
  kFeasible,
  kInfeasible,
  kUnknown,  ///< a resource budget was exhausted before a proof was found
};

/// Budgets and counters for one feasibility probe.
struct FeasibilitySearchLimits {
  std::uint64_t max_nodes = 50'000'000;  ///< branch-and-bound node budget
  double max_seconds = 30.0;             ///< wall-clock budget
  /// Cooperative stop signal: a cancel counts as an exhausted budget, so the
  /// probe answers kUnknown rather than throwing (three-valued semantics).
  /// ExactSolver sets it from SolveContext.cancel and rejects a caller-set
  /// token.
  CancellationToken cancel;
};

/// Statistics of one feasibility probe.
struct FeasibilityStats {
  std::uint64_t nodes = 0;
  std::uint64_t memo_hits = 0;
  double seconds = 0.0;
};

/// Decides whether all jobs of `instance` fit within capacity `capacity` on
/// the instance's machines. On kFeasible and non-null `out`, fills a witness
/// schedule. `stats`, if non-null, receives search counters.
Feasibility pack_within(const Instance& instance, Time capacity,
                        const FeasibilitySearchLimits& limits, Schedule* out,
                        FeasibilityStats* stats);

}  // namespace pcmax
