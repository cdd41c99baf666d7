// Parallel DP — the paper's core contribution (Algorithm 3).
//
// Entries on the same anti-diagonal (equal digit sum d(v)) are mutually
// independent, so the table is swept level-by-level: level l is processed by
// P workers in parallel, and a synchronisation point separates consecutive
// levels. Two realisations are provided:
//
//  * kScanPerLevel — paper-faithful: first compute the level array D in
//    parallel (Alg. 3 Lines 4-8), then for every level scan all sigma
//    entries and process those with d_i == l (Lines 10-25). The scan costs
//    O(sigma) per level on top of the useful work.
//  * kBucketed — the whole fill is one executor team episode
//    (Executor::run_team): each member takes its share of every level's
//    entries, and the members meet at a barrier between levels. Same
//    results, no per-level scan (ablation: bench/ablation_dp_variants
//    quantifies the difference) and one hand-off per fill, not per level.
//
// kBucketed enumerates a level's entries either with a LevelWalker
// (kWalker: rank/unrank splitting plus an amortised-O(1) composition
// odometer; no level array, no index gather, no per-entry decode) or through
// the legacy precomputed LevelIndex (kIndexed; kept as the measurable
// baseline). Both orders visit the same set of entries and the kernel's
// argmin is canonical, so every combination fills an identical table.
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

/// How kBucketed enumerates the entries of one anti-diagonal.
/// (kScanPerLevel always scans all sigma indices — that is its identity.)
enum class LevelIteration {
  /// LevelWalker rank/unrank splitting: workers seek directly to their
  /// slice of the level and advance with the composition odometer. Skips
  /// compute_levels' O(sigma) pass, the LevelIndex arrays, and the
  /// per-entry decode entirely. The fast path.
  kWalker,
  /// Precomputed level array + counting-sorted LevelIndex, one mixed-radix
  /// decode per entry — the pre-optimisation baseline, kept for the
  /// ablation benches and the walker-vs-indexed crosscheck tests.
  kIndexed,
};

/// Human-readable iteration name for reports.
std::string level_iteration_name(LevelIteration iteration);

/// Options of one parallel DP run.
struct ParallelDpOptions {
  /// Executor running the parallel loops (kScanPerLevel) or the team
  /// episode (kBucketed); must stay alive for the duration of the call.
  Executor* executor = nullptr;
  ParallelDpVariant variant = ParallelDpVariant::kBucketed;
  /// Iteration-assignment strategy inside a level of kScanPerLevel (paper:
  /// round-robin). The team sweep of kBucketed ignores it: the walker
  /// splits each level into one contiguous block per member, the indexed
  /// baseline deals the level's slots round-robin.
  LoopSchedule schedule = LoopSchedule::kRoundRobin;
  /// Per-entry kernel: a configuration-scan kernel (kGlobalConfigs
  /// auto-selects the fastest supported one; scalar/SWAR/AVX2/AVX-512 can
  /// be forced) or the paper-faithful per-entry configuration enumeration
  /// (Alg. 3 Line 17). Resolved once per run; recorded in DpStats::kernel.
  DpKernel kernel = DpKernel::kGlobalConfigs;
  /// Level enumeration of kBucketed (see LevelIteration).
  LevelIteration iteration = LevelIteration::kWalker;
  /// Level-prefix bound of the global-config kernel (kOff = pre-pruning
  /// baseline; identical tables either way).
  LevelPruning pruning = LevelPruning::kOn;
  /// Values-only tables skip the choice array — sufficient for feasibility
  /// probes that only read OPT(N).
  DpTableMode table_mode = DpTableMode::kValuesAndChoices;
  /// Backing store of the DP table; kHugePage requests transparent huge
  /// pages for tables of at least 2 MiB (advisory — see TableBuffer).
  TableAlloc table_alloc = TableAlloc::kDefault;
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

/// Indices grouped by level: entries of level l are
/// order[level_begin[l] .. level_begin[l+1]).
struct LevelIndex {
  std::vector<std::size_t> order;
  std::vector<std::size_t> level_begin;  ///< size max_level + 2
};

/// Counting-sorts entry indices by level.
LevelIndex build_level_index(const StateSpace& space,
                             const std::vector<std::int32_t>& levels);

/// Runs the level-synchronised parallel DP. Produces a table identical to
/// dp_bottom_up (values and canonical argmin choices are deterministic —
/// min predecessor value, ties towards the smallest encoded offset —
/// independent of worker interleaving, iteration order, and pruning).
DpRun dp_parallel(const RoundedInstance& rounded, const StateSpace& space,
                  const ConfigSet& configs, const ParallelDpOptions& options);

}  // namespace pcmax
