// Schedule reconstruction from a feasible DP run (paper Alg. 1, Lines 26-51).
//
// Walk the values table backwards from OPT(N): each step peels one
// machine's configuration off the remaining count vector v, the fitting s
// with OPT(v - s) = OPT(v) - 1 and the smallest encoded offset. The walk
// needs no stored choices, so the table of the search's last feasible
// probe is enough and the DP never runs again at T*. Rounded jobs are then
// replaced by concrete long jobs of the same class (their original
// processing time lies in [c*u, (c+1)*u)), and the short jobs are appended
// with LPT onto the resulting loads.
#pragma once

#include "algo/ptas/bisection.hpp"
#include "core/schedule.hpp"

namespace pcmax {

/// Extracts the long-job machine assignment from a feasible DP run. Any
/// kernel's table gives the same schedule, since all fill the same values.
/// Returns a schedule over `instance.machines()` machines containing only
/// the long jobs. Throws InternalError if the run is infeasible or needs
/// more machines than the instance has.
Schedule reconstruct_long_schedule(const Instance& instance, const DpAtTarget& at);

/// Full PTAS tail: reconstructs the long-job schedule and LPT-appends the
/// short jobs (which must be exactly the jobs not present in the DP run).
Schedule reconstruct_full_schedule(const Instance& instance, const DpAtTarget& at);

}  // namespace pcmax
