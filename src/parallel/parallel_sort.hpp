// Parallel merge sort on top of the Executor abstraction.
//
// LPT's sort is the only super-linear sequential step left in the PTAS tail
// (the paper argues everything outside the DP is negligible; for very large
// n on wide machines the sort is the first thing to grow). This is a
// classic fork-join merge sort: split the input into one run per worker,
// sort runs concurrently, then merge pairwise in log P parallel rounds.
// Deterministic for any comparator that induces a strict weak ordering:
// stable merges preserve the tie order std::stable_sort would produce.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "parallel/executor.hpp"

namespace pcmax {

/// Sorts `values` with `compare` using up to `executor.concurrency()`-way
/// parallelism. Equivalent to std::stable_sort(values.begin(), values.end(),
/// compare) — including the order of equivalent elements.
template <typename T, typename Compare>
void parallel_stable_sort(std::vector<T>& values, Executor& executor,
                          Compare compare) {
  const std::size_t n = values.size();
  const std::size_t workers = executor.concurrency();
  if (n < 2) return;
  if (workers < 2 || n < 2 * workers) {
    std::stable_sort(values.begin(), values.end(), compare);
    return;
  }

  // Run boundaries: `workers` near-equal contiguous runs.
  std::vector<std::size_t> bounds(workers + 1);
  for (std::size_t w = 0; w <= workers; ++w) bounds[w] = n * w / workers;

  // Phase 1: sort each run concurrently (run w = [bounds[w], bounds[w+1])).
  executor.parallel_for_ranges(
      workers,
      [&](std::size_t begin, std::size_t end, unsigned) {
        for (std::size_t w = begin; w < end; ++w) {
          std::stable_sort(values.begin() + static_cast<std::ptrdiff_t>(bounds[w]),
                           values.begin() + static_cast<std::ptrdiff_t>(bounds[w + 1]),
                           compare);
        }
      },
      /*chunk=*/1);

  // Phase 2: merge neighbouring runs pairwise until one run remains.
  // Stability: the left run always precedes the right run in the original
  // order, and std::merge keeps left elements first on ties.
  std::vector<T> buffer(n);
  std::vector<std::size_t> current(bounds);
  while (current.size() > 2) {
    const std::size_t pairs = (current.size() - 1) / 2;
    executor.parallel_for_ranges(
        pairs,
        [&](std::size_t begin, std::size_t end, unsigned) {
          for (std::size_t p = begin; p < end; ++p) {
            const std::size_t lo = current[2 * p];
            const std::size_t mid = current[2 * p + 1];
            const std::size_t hi = current[2 * p + 2];
            std::merge(values.begin() + static_cast<std::ptrdiff_t>(lo),
                       values.begin() + static_cast<std::ptrdiff_t>(mid),
                       values.begin() + static_cast<std::ptrdiff_t>(mid),
                       values.begin() + static_cast<std::ptrdiff_t>(hi),
                       buffer.begin() + static_cast<std::ptrdiff_t>(lo), compare);
            std::copy(buffer.begin() + static_cast<std::ptrdiff_t>(lo),
                      buffer.begin() + static_cast<std::ptrdiff_t>(hi),
                      values.begin() + static_cast<std::ptrdiff_t>(lo));
          }
        },
        /*chunk=*/1);

    // Collapse the boundary list: keep every second boundary (plus a
    // trailing odd run, which merges in a later round).
    std::vector<std::size_t> next;
    for (std::size_t i = 0; i < current.size(); i += 2) next.push_back(current[i]);
    if ((current.size() - 1) % 2 == 1) next.push_back(current[current.size() - 2]);
    next.push_back(n);
    // Deduplicate the tail (the odd-run bookkeeping can repeat n).
    next.erase(std::unique(next.begin(), next.end()), next.end());
    current = std::move(next);
  }
}

}  // namespace pcmax
