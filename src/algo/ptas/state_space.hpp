// The DP-table index space: all vectors v with 0 <= v_i <= n_i, laid out in
// row-major order (paper §III, array V). Row-major order is lexicographic
// order of the vectors, which is a topological order of the DP dependency
// DAG (v - s < v lexicographically whenever s != 0, s <= v), so sequential
// bottom-up fills are safe; the anti-diagonal level of an entry is the digit
// sum d(v) = sum_i v_i used by the parallel sweep.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/instance.hpp"

namespace pcmax {

/// Mixed-radix bijection between DP-table vectors and flat indices.
class StateSpace {
 public:
  /// Builds the space for count vector N = `counts` (each >= 0).
  /// Throws ResourceLimitError if the table would exceed `max_entries`.
  StateSpace(std::vector<int> counts, std::size_t max_entries);

  /// Total number of entries sigma = prod (n_i + 1).
  [[nodiscard]] std::size_t size() const { return size_; }

  /// Dimensionality (number of occupied size classes).
  [[nodiscard]] int dims() const { return static_cast<int>(counts_.size()); }

  /// The count vector N.
  [[nodiscard]] std::span<const int> counts() const { return counts_; }

  /// Row-major strides; stride of the last dimension is 1.
  [[nodiscard]] std::span<const std::size_t> strides() const { return strides_; }

  /// Writes the digits of `index` into `out` (size dims()).
  void decode(std::size_t index, std::span<int> out) const;

  /// Flat index of digit vector `v` (each v_i in [0, n_i]).
  [[nodiscard]] std::size_t encode(std::span<const int> v) const;

  /// Anti-diagonal level d(v) = digit sum of `index`.
  [[nodiscard]] int level_of(std::size_t index) const;

  /// Largest level n' = sum_i n_i (the number of long jobs).
  [[nodiscard]] int max_level() const { return max_level_; }

  /// Number of entries on each level, computed by one pass over the space.
  /// (Exposed for the bucketed parallel DP and for tests; size max_level()+1.)
  [[nodiscard]] std::vector<std::size_t> level_histogram() const;

  /// Number of entries on each level, computed by the bounded-composition
  /// convolution in O(dims * max_level^2) — independent of sigma, unlike
  /// level_histogram()'s O(sigma) sweep. Size max_level()+1; identical
  /// content to level_histogram().
  [[nodiscard]] std::vector<std::size_t> level_counts() const;

 private:
  std::vector<int> counts_;
  std::vector<std::size_t> strides_;
  std::size_t size_;
  int max_level_;
};

/// Decode-free iteration over one anti-diagonal of a StateSpace.
///
/// The entries of level l are exactly the compositions of l bounded by the
/// count vector N (digit vectors v with sum v_i = l, 0 <= v_i <= n_i). The
/// walker enumerates them in lexicographic order — which equals increasing
/// flat-index order under the row-major layout — maintaining the digits and
/// the encoded index incrementally (amortised O(1) per step), so level-
/// synchronised DP sweeps never pay a per-entry mixed-radix decode.
///
/// Parallel splitting: level l holds level_size(l) compositions; seek(l, r)
/// unranks the r-th one directly from the suffix-count table, so each worker
/// jumps to its slice [begin, end) and walks it with next().
class LevelWalker {
 public:
  /// Builds the suffix-count table W[d][l] = number of bounded compositions
  /// of l over dimensions d..dims-1 (one-off O(dims * max_level^2) cost per
  /// DP run; the table is shared by seek/level_size).
  explicit LevelWalker(const StateSpace& space);

  /// Number of entries on level `level` (0 <= level <= max_level()).
  [[nodiscard]] std::uint64_t level_size(int level) const;

  /// Positions the walker on the `rank`-th entry (in index order) of
  /// `level`. Requires rank < level_size(level).
  void seek(int level, std::uint64_t rank);

  /// Flat index of the current entry.
  [[nodiscard]] std::size_t index() const { return index_; }

  /// Digits of the current entry (valid until the next seek/next call).
  [[nodiscard]] std::span<const int> digits() const { return digits_; }

  /// Advances to the next entry of the current level; returns false when
  /// the level is exhausted (the walker then needs a seek() to be reused).
  bool next();

 private:
  [[nodiscard]] std::uint64_t ways(std::size_t dim, int level) const {
    return ways_[dim * static_cast<std::size_t>(levels_) +
                 static_cast<std::size_t>(level)];
  }

  const StateSpace* space_;
  int levels_;                       ///< max_level + 1 (row width of ways_)
  std::vector<std::uint64_t> ways_;  ///< (dims+1) x levels_ suffix counts
  std::vector<int> digits_;
  std::size_t index_ = 0;
};

}  // namespace pcmax
