// Work/span analysis of the parallel DP — the quantitative face of the
// paper's Section IV.
//
// For one DP table the level-synchronised sweep has
//   work  W = sigma                (entries; per-entry cost folded in later)
//   span  S = sum_l ceil(q_l / P)  for P processors, and
//         S_inf = number of levels (n' + 1) with unlimited processors,
// so the structural parallelism W / S_inf bounds every achievable speedup —
// the reason the paper expects "smaller increases as the number of cores
// increases past 16" for its problem sizes.
#pragma once

#include "algo/ptas/bisection.hpp"

namespace pcmax {

/// Structural parallelism metrics of one DP probe.
struct DpShape {
  std::size_t work = 0;       ///< sigma (table entries)
  int levels = 0;             ///< n' + 1 (span with unlimited processors)
  std::size_t widest = 0;     ///< max_l q_l
  double parallelism = 0.0;   ///< work / levels

  /// Entry-rounds the sweep needs with P processors: sum_l ceil(q_l / P).
  [[nodiscard]] std::size_t rounds(unsigned processors) const;

  /// Brent-style speedup bound with P processors:
  ///   speedup(P) = work / rounds(P)  <=  min(P, parallelism).
  [[nodiscard]] double speedup_bound(unsigned processors) const;

 private:
  friend DpShape analyze_dp_shape(const std::vector<int>& counts);
  std::vector<std::size_t> histogram_;
};

/// Computes the shape of the DP table with count vector `counts`.
DpShape analyze_dp_shape(const std::vector<int>& counts);

/// Aggregates the shapes of all probes of a PTAS run: total work, total
/// rounds and the end-to-end speedup bound of the DP portion.
struct RunShape {
  std::size_t total_work = 0;
  int total_levels = 0;
  double parallelism = 0.0;  ///< total work / total levels

  std::vector<DpShape> probes;

  [[nodiscard]] double speedup_bound(unsigned processors) const;
};

/// Analyses every probe in a bisection trace.
RunShape analyze_run_shape(const BisectionResult& trace);

}  // namespace pcmax
