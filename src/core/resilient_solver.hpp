// Graceful-degradation solve driver.
//
// The PTAS is all-or-nothing: a tripped resource budget, an expired
// deadline, or an external cancel surfaces as a typed exception and no
// schedule. ResilientSolver turns that into an availability guarantee — it
// runs the PTAS under a wall-clock budget and, on ANY resource-shaped
// failure, degrades down a ladder of always-terminating heuristics:
//
//     PTAS  →  best of { MULTIFIT, LPT }  →  local-search polish
//
// Every rung returns a complete valid schedule, so solve() never throws for
// resource reasons and never hangs: MULTIFIT's upper-bound FFD packing
// exists even with an already-stopped token, LPT ignores the token entirely
// (it is O(n log n)), and the polish pass only ever improves. The final
// makespan is therefore LPT-or-better, i.e. at worst Graham's
// (4/3 - 1/(3m)) * OPT.
//
// Provenance is recorded in the result: notes["algorithm_used"] names the
// rung that produced the schedule, notes["degradation_reason"] says why the
// PTAS was abandoned ("none" when it was not), and per-stage wall times land
// in stats. The same facts are exported to the ambient obs::Metrics
// collector (counters resilient.solves / resilient.fallbacks, spans
// "resilient.solve" / "resilient.fallback", and notes in the metrics JSON).
//
// Errors that are NOT resource-shaped (InvalidArgumentError, a hostile
// executor's std::runtime_error, logic errors) propagate unchanged —
// degradation must not mask bugs.
//
// Thread safety: concurrent solve() calls (distinct solver instances or the
// same one) are safe and keep their provenance independent — all per-solve
// state is local, the resilient.* counters are atomic, and the single
// metrics note "resilient.last_solve" is written as one consistent
// "<algorithm>;<reason>" pair (last solve wins wholesale; pairs from two
// concurrent solves are never interleaved).
#pragma once

#include <cstdint>

#include "algo/ptas/ptas.hpp"
#include "core/solver.hpp"

namespace pcmax {

/// Options of the graceful-degradation driver.
struct ResilientOptions {
  /// Configuration of the preferred solver (stage 1), which runs under the
  /// solve's context (external cancel + deadline).
  PtasOptions ptas;

  /// Optional externally-owned stage-1 solver (API v2). When set, stage 1
  /// runs THIS solver (via its contextual entry point) instead of
  /// constructing a PtasSolver from `ptas` — this is how the portfolio
  /// becomes the ladder's top rung without a core -> portfolio dependency.
  /// Non-owning; must outlive the ResilientSolver. Any resource-shaped
  /// throw degrades down the ladder exactly like a PTAS failure.
  Solver* preferred = nullptr;

  /// When false, stage 1 is skipped entirely and the solve goes straight to
  /// the MULTIFIT/LPT + local-search rungs ("cheap path"). Used by the solve
  /// service when the admission layer decides a request cannot afford the
  /// PTAS (queue saturated, deadline nearly spent). The result is marked
  /// degraded with degradation_reason "ptas-skipped". Ignored when
  /// `preferred` is set.
  bool ptas_enabled = true;

  /// Binary-search depth of the MULTIFIT fallback rung.
  int multifit_iterations = 10;

  /// Round cap of the local-search polish rung.
  std::uint64_t local_search_rounds = 10'000;
};

/// Runs the PTAS with graceful degradation to MULTIFIT/LPT + local search.
class ResilientSolver final : public Solver {
 public:
  explicit ResilientSolver(ResilientOptions options = {});

  [[nodiscard]] std::string name() const override { return "Resilient"; }

  /// Never throws DeadlineExceededError / CancelledError /
  /// ResourceLimitError; always returns a complete valid schedule with
  /// makespan at most the LPT bound. solve(instance, SolveContext{}).
  SolverResult solve(const Instance& instance) override;

  /// Stop signal, deadline, and incumbent board come from the context; same
  /// availability guarantee as solve(instance). The deadline covers the
  /// stage-1 attempt; the fallback rungs run under the same (then typically
  /// expired) token and still terminate promptly.
  SolverResult solve(const Instance& instance,
                     const SolveContext& context) override;

  [[nodiscard]] const ResilientOptions& options() const { return options_; }

 private:
  ResilientOptions options_;
};

}  // namespace pcmax
