// Bisection search on the target makespan (paper Alg. 1, Lines 5-30).
//
// The driver probes candidate makespans T in [LB, UB]; for each T it rounds
// the long jobs, runs a DP backend, and keeps T feasible iff the DP needs at
// most m machines. It records a per-iteration trace that the experiment
// harness replays on the simulated multicore (see src/harness/simmachine),
// and can hand back the last feasible probe, whose table at T* is what the
// schedule is reconstructed from.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "algo/ptas/config_enum.hpp"
#include "algo/ptas/dp_sequential.hpp"
#include "algo/ptas/rounding.hpp"
#include "algo/ptas/state_space.hpp"
#include "core/instance.hpp"
#include "core/solve_context.hpp"

namespace pcmax {

/// A DP strategy: bottom-up or one of the parallel variants,
/// already bound to its executor/thread configuration.
using DpBackendFn = std::function<DpRun(const RoundedInstance&, const StateSpace&,
                                        const ConfigSet&)>;

/// Resource limits for one DP construction.
struct DpLimits {
  std::size_t max_table_entries = std::size_t{1} << 26;  ///< ~64M entries
  std::size_t max_configs = std::size_t{1} << 22;
  /// Cooperative stop signal, checked before each probe and threaded into
  /// config enumeration (rides along with the budgets, which already reach
  /// every probe site). The DP backend carries its own copy. PtasSolver
  /// sets it from SolveContext.cancel and rejects a caller-set token.
  CancellationToken cancel;
  /// Optional shared incumbent board (core/solve_context.hpp). When set,
  /// the search reads it ONCE at start and clamps its initial upper bound
  /// to the published makespan. Sound: a published makespan M is the
  /// makespan of an actual schedule, whose long jobs fit within M, and
  /// rounding only shrinks them — so the rounded DP at target M is
  /// feasible, exactly the invariant the search needs of its UB. Read-once
  /// keeps the probe sequence a pure function of (instance, k, start
  /// bound), which is what makes a portfolio race reproducible.
  std::shared_ptr<const IncumbentBoard> incumbent;
};

/// Everything produced by one DP probe at a fixed target T.
struct DpAtTarget {
  RoundedInstance rounded;
  StateSpace space;
  ConfigSet configs;
  DpRun run;
};

/// Rounds, enumerates configurations, and runs `dp` at target makespan T.
DpAtTarget run_dp_at(const Instance& instance, Time target, int k,
                     const DpBackendFn& dp, const DpLimits& limits);

/// Applies the read-once incumbent clamp described on DpLimits::incumbent:
/// returns min(ub, board best) floored at lb, sets *clamped, and counts a
/// portfolio.bound_tightenings hit when the board actually lowered ub.
Time clamp_upper_bound_to_incumbent(const DpLimits& limits, Time lb, Time ub,
                                    bool* clamped);

/// Trace entry for one bisection probe.
struct BisectionIteration {
  Time target = 0;             ///< probed makespan T
  bool feasible = false;       ///< DP needed <= m machines
  std::vector<int> counts;     ///< DP vector N (occupied classes only)
  std::size_t table_size = 0;  ///< sigma
  std::size_t config_count = 0;
  std::uint64_t entries_computed = 0;
  std::uint64_t config_scans = 0;
  std::uint64_t configs_pruned = 0;  ///< candidates skipped by the level bound
  std::uint64_t simd_blocks = 0;       ///< full vector blocks (AVX kernels)
  std::uint64_t scalar_fallbacks = 0;  ///< entries a vector kernel degraded on
  double dp_seconds = 0.0;     ///< wall time of the DP probe
};

/// The trace row of the probe `at` at its target, which took `dp_seconds`.
BisectionIteration trace_row(const DpAtTarget& at, bool feasible, double dp_seconds);

/// Result of the bisection search.
struct BisectionResult {
  Time t_star = 0;  ///< smallest DP-feasible target found (LB == UB)
  Time lb0 = 0;     ///< Eq. (1) lower bound
  Time ub0 = 0;     ///< Eq. (2) upper bound
  /// Lower end of the bracket the search started from: lb0 on the paper's
  /// bracket, the pigeonhole bound on the PTAS's seeded one.
  Time lb_start = 0;
  /// Upper end of the bracket the search started from, after the incumbent
  /// clamp (incumbent_clamped == true when the shared incumbent was tighter;
  /// "bound-tightening hit").
  Time ub_start = 0;
  bool incumbent_clamped = false;
  std::vector<BisectionIteration> trace;
};

/// Initial bracket of the target search. Both ends must be sound: lb <= OPT,
/// so that T* <= OPT as the (1 + 1/k) guarantee needs, and ub the makespan
/// of an actual schedule or Eq. (2), so that the DP is feasible at ub (see
/// DpLimits::incumbent for why a schedule's makespan is).
struct SearchBracket {
  Time lb = 0;
  Time ub = 0;
};

/// The paper's bracket [Eq. 1, Eq. 2] (Alg. 1 Lines 5-6).
SearchBracket paper_search_bracket(const Instance& instance);

/// Runs the bisection loop of Algorithm 1 with the supplied DP backend over
/// `start` (its ub clamped to the incumbent board, if any). When
/// `last_feasible` is set, it receives the last feasible probe, whose target
/// is T*, or stays empty when no probe was feasible (T* is then the
/// bracket's upper end). Only that one probe is kept alive; without
/// `last_feasible` every probe is dropped once read.
BisectionResult bisect_target_makespan(
    const Instance& instance, int k, const DpBackendFn& dp,
    const DpLimits& limits, SearchBracket start,
    std::optional<DpAtTarget>* last_feasible = nullptr);

}  // namespace pcmax
