// Largest Differencing Method (LDM / Karmarkar-Karp) for P || C_max.
//
// The classic multiway-partitioning heuristic: keep a max-heap of partial
// solutions ("tuples" of m machine loads with their job sets); repeatedly
// pop the two tuples with the largest spread and merge them by pairing the
// heaviest machine of one with the lightest machine of the other. For m = 2
// this is Karmarkar-Karp differencing; for general m it is Michiels et
// al.'s balanced multiway extension. Often beats LPT on instances with few
// large jobs; another practical baseline a production library should ship
// (not part of the paper's evaluation — covered by bench/baselines_shootout).
#pragma once

#include "core/solver.hpp"

namespace pcmax {

/// The Largest Differencing Method solver.
class LdmSolver final : public Solver {
 public:
  [[nodiscard]] std::string name() const override { return "LDM"; }
  SolverResult solve(const Instance& instance) override;
};

}  // namespace pcmax
