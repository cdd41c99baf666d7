// Public facade of the (parallel) Hochbaum-Shmoys PTAS.
//
// PtasSolver implements paper Algorithm 1; the choice of DP engine turns it
// into the sequential PTAS (kBottomUp) or the paper's parallel
// approximation algorithm (the parallel engines replace Algorithm 2 with
// Algorithm 3, everything else unchanged — paper §III, last paragraph).
//
// The schedule is reconstructed from the table of the search's last
// feasible probe, so the DP fills once per probe and never again at T*
// (Alg. 1 Line 26 re-runs it); only a search with no feasible probe fills
// once more, at the bracket's upper end.
//
// Guarantee: makespan <= (1 + 1/k) * OPT with k = ceil(1/epsilon), i.e. a
// (1+epsilon)-approximation, identical for sequential and parallel engines.
#pragma once

#include <cstdint>
#include <memory>

#include "algo/ptas/bisection.hpp"
#include "algo/ptas/dp_parallel.hpp"
#include "core/solver.hpp"
#include "parallel/executor.hpp"

namespace pcmax {

/// Which DP realisation drives the bisection probes.
enum class DpEngine {
  kBottomUp,          ///< sequential full-table fill (speedup baseline)
  kParallelScan,      ///< Algorithm 3, paper-faithful scan per level
  kParallelBucketed,  ///< Algorithm 3 as one team episode per fill
};

/// Human-readable engine name.
std::string dp_engine_name(DpEngine engine);

/// Work sigma * |C| (table entries times configurations) from which the
/// kParallelBucketed engine splits a DP fill across a team wider than one
/// thread. A smaller fill, and every fill of a team of one, runs inline on
/// the calling thread as dp_bottom_up: no hand-off, no barrier waits, and
/// the same table, since every engine fills identical values.
///
/// Measured per probe fill (min of 7 batches) on the probes of random
/// U(1,100) / U(1,10n) / U(1,2m-1) / U(m,2m-1) instances at m/n = 20/100,
/// 10/50, 10/30 and eps = 0.3 and 0.2, Release build, 4-vCPU x86-64 host:
///  * the team sweep run by one thread is 1.1-1.3x slower than dp_bottom_up
///    at every size (its level-order walk loses the index-order locality;
///    1.5-4x under 1e3, where the sweep's fixed costs dominate), which is
///    why the inline path is dp_bottom_up and not a team of one;
///  * a team of two (work-stealing pool) overtakes a team of one at ~1e5
///    and dp_bottom_up at 2e5-3e5 (median ratios 0.98 at ~1.8e5 and 0.95 at
///    ~3.2e5); below 3e4 it is 1.7-60x slower, the hand-off alone costing
///    15-25 us; a team of four overtakes dp_bottom_up at ~1e5.
/// The cut sits at the two-thread crossover, so no fill runs slower than
/// the sequential engine would run it.
inline constexpr std::uint64_t kTeamFillMinWork = 250000;

/// Options of the PTAS solver.
struct PtasOptions {
  /// Relative error epsilon > 0; the paper's experiments use 0.3.
  double epsilon = 0.3;
  DpEngine engine = DpEngine::kBottomUp;
  /// Executor for the parallel engines; non-owning, must outlive the solver.
  /// Ignored by sequential engines.
  Executor* executor = nullptr;
  /// Per-entry kernel. kGlobalConfigs (default) scans a precomputed global
  /// configuration set with the fastest fits-test kernel the host supports
  /// (AVX2 when the CPU has it, else SWAR); kSwar/kAvx2 force one (an
  /// unsupported kAvx2 degrades to SWAR). kPerEntryEnum re-enumerates C_v
  /// per entry exactly as the paper's Algorithm 3 does, reproducing the
  /// cost profile behind the paper's speedup figures. Results are
  /// identical for every kernel.
  DpKernel kernel = DpKernel::kGlobalConfigs;
  /// Resource budgets for each DP probe.
  DpLimits limits;
  /// Search bracket. false (default): the solve first builds the LPT
  /// schedule and the pigeonhole lower bound (core/bounds.hpp), returns LPT
  /// as proven optimal with no DP probe when the bound reaches its makespan,
  /// and otherwise bisects [pigeonhole bound, LPT makespan]. true: the
  /// paper's bracket [Eq. 1, Eq. 2] (Alg. 1 Lines 5-6), which the figure
  /// replays of src/harness/experiment.cpp keep so that their probe traces
  /// stay the paper's. Either way the incumbent board clamps the upper end.
  bool paper_bracket = false;
  /// When true, the per-iteration bisection trace is copied into the result
  /// (used by the simulated-multicore harness). Its last row stands for the
  /// paper's fill at T* (Alg. 1 Line 26): a copy of the last feasible
  /// probe's row, or the row of the one fill at T* when no probe was
  /// feasible.
  bool keep_trace = false;
};

/// Result extension carrying the bisection trace when requested.
struct PtasResult : SolverResult {
  BisectionResult bisection;
};

/// The (parallel) PTAS solver.
class PtasSolver final : public Solver {
 public:
  /// Throws InvalidArgumentError when options.limits.cancel is set: the
  /// solver's stop signal is SolveContext.cancel, and the solve overwrites
  /// the probe token with it.
  explicit PtasSolver(PtasOptions options);

  [[nodiscard]] std::string name() const override;

  /// solve(instance, SolveContext{}).
  SolverResult solve(const Instance& instance) override;

  /// Stop signal, deadline, and incumbent board come from the context. The
  /// PTAS is all-or-nothing: on a stop it throws DeadlineExceededError /
  /// CancelledError rather than returning a partial schedule (pair it with
  /// ResilientSolver for a fallback). When the context carries an
  /// IncumbentBoard with a published makespan, the search clamps its
  /// initial upper bound to it (read once, at search start — see
  /// DpLimits::incumbent).
  SolverResult solve(const Instance& instance,
                     const SolveContext& context) override;

  /// Like solve(), but returns the extended result with the trace.
  PtasResult solve_with_trace(const Instance& instance);

  /// Context-aware variant of solve_with_trace().
  PtasResult solve_with_trace(const Instance& instance,
                              const SolveContext& context);

  /// k = ceil(1/epsilon) for the configured epsilon.
  [[nodiscard]] int k() const { return k_; }

  /// The options this solver was built with.
  [[nodiscard]] const PtasOptions& options() const { return options_; }

 private:
  /// Builds the DP backend for the configured engine. `cancel` is the
  /// solve's effective stop signal.
  DpBackendFn make_backend(const CancellationToken& cancel) const;

  /// The single implementation behind every public entry point: solve(),
  /// solve(ctx), solve_with_trace(), solve_with_trace(ctx) all land here.
  PtasResult solve_impl(const Instance& instance, const SolveContext& context);

  PtasOptions options_;
  int k_;
};

/// k = ceil(1/epsilon); throws InvalidArgumentError unless epsilon > 0.
int accuracy_k(double epsilon);

}  // namespace pcmax
