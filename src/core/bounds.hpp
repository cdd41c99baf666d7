// Lower and upper bounds on the optimal makespan (paper Eq. 1 and 2), and
// the pigeonhole lower bounds that tighten Eq. 1.
//
// Variant-aware: capacity-restricted instances are bounded over their
// effective machine count min(m, B) — the machine count of the classic twin
// they reduce to (core/variant.hpp) — so every bound brackets the restricted
// optimum. Classic instances are computed exactly as before.
//
// Pigeonhole bounds, beyond Eq. (1) (m' effective machines, t_(r) the r-th
// longest time):
//
//   LB2: with more than m' jobs, two of the m'+1 longest jobs share a
//        machine, so OPT >= t_(m') + t_(m'+1);
//   LB3: with more than 2m' jobs, three of the 2m'+1 longest share, so
//        OPT >= t_(2m'-1) + t_(2m') + t_(2m'+1);
//
// generalised to every group size g >= 2. The PTAS starts its search from
// the best of them, and the exact and MIP solvers start their intervals
// there.
#pragma once

#include <span>

#include "core/instance.hpp"

namespace pcmax {

/// LB = max( ceil(sum t_j / m'), max t_j )  — Eq. (1), m' effective machines.
/// Any schedule has some machine loaded to at least the average load, and
/// the longest job must run somewhere, so LB <= OPT.
Time makespan_lower_bound(const Instance& instance);

/// UB = ceil(sum t_j / m') + max t_j  — Eq. (2), m' effective machines.
/// List scheduling never exceeds this value, so OPT <= UB.
Time makespan_upper_bound(const Instance& instance);

/// The pigeonhole bound for group size g (>= 2): among the (g-1)*m' + 1
/// longest jobs, one machine receives at least g of them, so OPT >= the sum
/// of the g shortest of those jobs. Returns 0 when n is too small for the
/// bound to apply.
Time pigeonhole_lower_bound(const Instance& instance, int group);

/// max(Eq. 1 bound, pigeonhole bounds for g = 2..n/m'+1).
Time improved_lower_bound(const Instance& instance);

/// improved_lower_bound() over `longest_first`, every job index of the
/// instance ordered by non-increasing processing time (sort_jobs_lpt's
/// order), so a caller that already sorted for LPT does not sort again.
Time improved_lower_bound(const Instance& instance,
                          std::span<const int> longest_first);

}  // namespace pcmax
