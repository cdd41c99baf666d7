// Sequential realisation of the DP (paper Algorithm 2): a bottom-up fill of
// every entry in row-major (= topological) order. It is the sequential
// counterpart of the parallel sweep and the fair baseline for speedup
// measurements (identical total work).
#pragma once

#include "algo/ptas/dp_table.hpp"
#include "algo/ptas/rounding.hpp"
#include "algo/ptas/state_space.hpp"
#include "util/deadline.hpp"

namespace pcmax {

/// Result of one DP run: OPT(N) plus the values table, which a feasible
/// run's reconstruction walks back (reconstruct.hpp).
struct DpRun {
  DpTable table;
  std::int32_t machines_needed = DpTable::kInfeasible;  ///< OPT(N)
  DpStats stats;
};

/// Options of one sequential DP run. The kernel is resolved once at run
/// start (resolve_dp_kernel) and recorded in DpStats::kernel.
struct DpOptions {
  DpKernel kernel = DpKernel::kGlobalConfigs;
  /// Nothing reads this; pcmaxbench's next change drops it.
  DpTableMode mode = DpTableMode::kValuesOnly;
  CancellationToken cancel = {};
};

/// Bottom-up fill of the whole table in row-major order. `options.kernel`
/// selects the configuration-scan kernel (kGlobalConfigs resolves to the
/// fastest one the host supports; kPerEntryEnum replays the paper-faithful
/// per-entry enumeration; every kernel fills identical values). A cancelled
/// `options.cancel` token throws (amortised check every ~1k entries); the
/// fill is all-or-nothing.
DpRun dp_bottom_up(const RoundedInstance& rounded, const StateSpace& space,
                   const ConfigSet& configs, const DpOptions& options = {});

}  // namespace pcmax
