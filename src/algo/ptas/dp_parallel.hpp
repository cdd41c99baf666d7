// Parallel DP — the paper's core contribution (Algorithm 3).
//
// Entries on the same anti-diagonal (equal digit sum d(v)) are mutually
// independent, so the table is swept level-by-level: level l is processed by
// P workers in parallel, and a synchronisation point separates consecutive
// levels. Two realisations are provided:
//
//  * kScanPerLevel — paper-faithful: first compute the level array D in
//    parallel (Alg. 3 Lines 4-8), then for every level scan all sigma
//    entries, dealt round-robin to the workers, and process those with
//    d_i == l (Lines 10-25). The scan costs O(sigma) per level on top of
//    the useful work.
//  * kBucketed — the whole fill is one executor team episode
//    (Executor::run_team): each member takes a contiguous block of every
//    level's entries, enumerated by a LevelWalker (rank/unrank splitting
//    plus an amortised-O(1) composition odometer; no level array, no index
//    gather, no per-entry decode), and the members meet at a barrier
//    between levels. Same results, no per-level scan, and one hand-off per
//    fill, not per level.
//
// Both visit every entry once and every kernel computes the same minimum,
// so both fill the table dp_bottom_up fills.
#pragma once

#include <cstdint>
#include <vector>

#include "algo/ptas/dp_sequential.hpp"
#include "parallel/executor.hpp"

namespace pcmax {

/// Parallelisation strategy for the level sweep.
enum class ParallelDpVariant {
  kScanPerLevel,
  kBucketed,
};

/// Human-readable variant name for reports.
std::string parallel_dp_variant_name(ParallelDpVariant variant);

/// Options of one parallel DP run.
struct ParallelDpOptions {
  /// Executor running the parallel loops (kScanPerLevel) or the team
  /// episode (kBucketed); must stay alive for the duration of the call.
  Executor* executor = nullptr;
  ParallelDpVariant variant = ParallelDpVariant::kBucketed;
  /// Per-entry kernel: a configuration-scan kernel (kGlobalConfigs
  /// auto-selects the fastest supported one; SWAR or AVX2 can be forced)
  /// or the paper-faithful per-entry configuration enumeration (Alg. 3
  /// Line 17). Resolved once per run; recorded in DpStats::kernel.
  DpKernel kernel = DpKernel::kGlobalConfigs;
  /// Nothing reads this; pcmaxbench's next change drops it.
  DpTableMode table_mode = DpTableMode::kValuesOnly;
  /// Cooperative stop signal, polled once per level and (amortised) inside
  /// every range chunk, so a cancel is honoured within one anti-diagonal.
  /// The DP is all-or-nothing: a stop throws DeadlineExceededError /
  /// CancelledError; a half-filled table is never returned.
  ///
  /// API v2 note: at the solver level this is internal plumbing — pass the
  /// signal via SolveContext.cancel to PtasSolver::solve(instance, context)
  /// and it lands here automatically. Set it directly only when driving
  /// dp_parallel() standalone (tests, benches).
  CancellationToken cancel;
};

/// Computes the anti-diagonal level d(v) of every entry, in parallel
/// (paper Alg. 3 Lines 4-8). Exposed for tests and benches.
std::vector<std::int32_t> compute_levels(const StateSpace& space, Executor& executor,
                                         const CancellationToken& cancel = {});

/// Runs the level-synchronised parallel DP. Produces a table identical to
/// dp_bottom_up: each value is a minimum over the same predecessors,
/// independent of worker interleaving and iteration order.
DpRun dp_parallel(const RoundedInstance& rounded, const StateSpace& space,
                  const ConfigSet& configs, const ParallelDpOptions& options);

}  // namespace pcmax
