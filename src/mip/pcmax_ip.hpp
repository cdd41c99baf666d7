// The integer-programming formulation of P || C_max and a branch-and-bound
// MILP solver over it — the from-scratch counterpart of the paper's CPLEX
// runs (DESIGN.md §2).
//
//   minimise    C
//   subject to  sum_i x_ij = 1                    for every job j
//               sum_j t_j x_ij <= C               for every machine i
//               x_ij in {0, 1}
//
// The LP relaxation is solved with src/mip/lp; branching fixes the most
// fractional x_ij to 1 (dive) then 0. Fixed variables are substituted out of
// the child relaxations, so the LPs shrink as the search goes deeper.
#pragma once

#include <cstdint>

#include "core/solver.hpp"
#include "mip/lp.hpp"

namespace pcmax {

/// Budgets of the MILP search. The solver is *anytime*: tripping any budget
/// (nodes, wall clock, or a cancelled token) stops the search and returns
/// the best incumbent found so far with proven_optimal = false — it never
/// throws for resource reasons. The incumbent is seeded with LPT, so the
/// result is always a valid schedule no worse than LPT.
struct MipOptions {
  std::uint64_t max_nodes = 200'000;
  double max_seconds = 60.0;
  LpOptions lp;
};

/// Branch-and-bound MILP solver for the P||Cmax integer program.
///
/// API v2: solve(instance, context) additionally cooperates with a shared
/// IncumbentBoard when the context carries one. The board is snapshotted
/// ONCE at solve start (keeping the search deterministic for a fixed start
/// bound): the snapshot tightens the prune cutoff below the LPT seed, and
/// every incumbent the search adopts is published back to the board. When
/// the search runs to completion it has proven OPT >= cutoff, so the result
/// carries notes["certified_value"] = min(own incumbent, snapshot) — the
/// portfolio uses this to certify a racer's makespan as optimal even when
/// the certifying schedule lives with another racer.
class PcmaxIpSolver final : public Solver {
 public:
  explicit PcmaxIpSolver(MipOptions options = {});

  [[nodiscard]] std::string name() const override { return "MILP"; }
  SolverResult solve(const Instance& instance) override;
  SolverResult solve(const Instance& instance,
                     const SolveContext& context) override;

 private:
  MipOptions options_;
};

/// Builds the root LP relaxation (all jobs free). Exposed for tests: its
/// optimum equals max(total/m, max t) in the fractional world.
LpProblem build_root_relaxation(const Instance& instance);

}  // namespace pcmax
