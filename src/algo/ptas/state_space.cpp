#include "algo/ptas/state_space.hpp"

#include <limits>

#include "util/error.hpp"

namespace pcmax {

StateSpace::StateSpace(std::vector<int> counts, std::size_t max_entries)
    : counts_(std::move(counts)) {
  PCMAX_REQUIRE(max_entries >= 1, "max_entries must be positive");
  strides_.resize(counts_.size());
  std::size_t size = 1;
  int levels = 0;
  // Row-major: last dimension has stride 1.
  for (std::size_t d = counts_.size(); d-- > 0;) {
    PCMAX_REQUIRE(counts_[d] >= 0, "class counts must be non-negative");
    strides_[d] = size;
    const auto radix = static_cast<std::size_t>(counts_[d]) + 1;
    if (size > max_entries / radix) {
      // The true size is unknowable without overflow; report the partial
      // product (a lower bound) in the uniform limit-message format.
      const auto partial = static_cast<unsigned __int128>(size) * radix;
      const auto demand =
          partial > std::numeric_limits<std::uint64_t>::max()
              ? std::numeric_limits<std::uint64_t>::max()
              : static_cast<std::uint64_t>(partial);
      throw ResourceLimitError(resource_limit_message(
          "DP table entries", max_entries, demand, /*demand_is_lower_bound=*/true));
    }
    size *= radix;
    levels += counts_[d];
  }
  size_ = size;
  max_level_ = levels;
}

void StateSpace::decode(std::size_t index, std::span<int> out) const {
  PCMAX_CHECK(index < size_, "index out of range");
  PCMAX_CHECK(out.size() == counts_.size(), "output span has wrong size");
  for (std::size_t d = 0; d < counts_.size(); ++d) {
    const std::size_t digit = index / strides_[d];
    out[d] = static_cast<int>(digit);
    index -= digit * strides_[d];
  }
}

std::size_t StateSpace::encode(std::span<const int> v) const {
  PCMAX_CHECK(v.size() == counts_.size(), "vector has wrong dimensionality");
  std::size_t index = 0;
  for (std::size_t d = 0; d < counts_.size(); ++d) {
    PCMAX_CHECK(v[d] >= 0 && v[d] <= counts_[d], "digit out of range");
    index += static_cast<std::size_t>(v[d]) * strides_[d];
  }
  return index;
}

int StateSpace::level_of(std::size_t index) const {
  PCMAX_CHECK(index < size_, "index out of range");
  int level = 0;
  for (std::size_t d = 0; d < counts_.size(); ++d) {
    const std::size_t digit = index / strides_[d];
    level += static_cast<int>(digit);
    index -= digit * strides_[d];
  }
  return level;
}

std::vector<std::size_t> StateSpace::level_histogram() const {
  std::vector<std::size_t> histogram(static_cast<std::size_t>(max_level_) + 1, 0);
  // Incremental digit-sum scan: odometer increment keeps this O(sigma).
  std::vector<int> digits(counts_.size(), 0);
  int level = 0;
  for (std::size_t i = 0; i < size_; ++i) {
    ++histogram[static_cast<std::size_t>(level)];
    // Increment the mixed-radix odometer (last digit fastest).
    for (std::size_t d = counts_.size(); d-- > 0;) {
      if (digits[d] < counts_[d]) {
        ++digits[d];
        ++level;
        break;
      }
      level -= digits[d];
      digits[d] = 0;
    }
  }
  return histogram;
}

std::vector<std::size_t> StateSpace::level_counts() const {
  // Convolution of the per-dimension generating polynomials
  // prod_d (1 + x + ... + x^{n_d}): coefficient l is the number of bounded
  // compositions of l, i.e. the width of anti-diagonal l.
  std::vector<std::size_t> counts{1};
  counts.reserve(static_cast<std::size_t>(max_level_) + 1);
  for (const int n : counts_) {
    std::vector<std::size_t> next(counts.size() + static_cast<std::size_t>(n), 0);
    for (std::size_t l = 0; l < counts.size(); ++l) {
      for (std::size_t x = 0; x <= static_cast<std::size_t>(n); ++x) {
        next[l + x] += counts[l];
      }
    }
    counts = std::move(next);
  }
  return counts;
}

LevelWalker::LevelWalker(const StateSpace& space)
    : space_(&space),
      levels_(space.max_level() + 1),
      digits_(static_cast<std::size_t>(space.dims()), 0) {
  // ways_[d][l]: bounded compositions of l over the dimension suffix d..D-1.
  // Row D is the base case (only the empty composition of 0); rows are
  // filled back to front so row 0 holds the per-level entry counts.
  const auto dims = static_cast<std::size_t>(space.dims());
  const auto width = static_cast<std::size_t>(levels_);
  const auto counts = space.counts();
  ways_.assign((dims + 1) * width, 0);
  ways_[dims * width] = 1;
  for (std::size_t d = dims; d-- > 0;) {
    const auto radix = static_cast<std::size_t>(counts[d]) + 1;
    for (std::size_t l = 0; l < width; ++l) {
      std::uint64_t total = 0;
      for (std::size_t x = 0; x < radix && x <= l; ++x) {
        total += ways_[(d + 1) * width + (l - x)];
      }
      ways_[d * width + l] = total;
    }
  }
}

std::uint64_t LevelWalker::level_size(int level) const {
  PCMAX_CHECK(level >= 0 && level < levels_, "level out of range");
  return ways(0, level);
}

void LevelWalker::seek(int level, std::uint64_t rank) {
  PCMAX_CHECK(level >= 0 && level < levels_, "level out of range");
  PCMAX_CHECK(rank < level_size(level), "rank out of range");
  const auto counts = space_->counts();
  const auto strides = space_->strides();
  index_ = 0;
  int remaining = level;
  // Greedy unranking: digit x of dimension d is the smallest value whose
  // block of ways(d+1, remaining - x) completions still contains `rank`.
  for (std::size_t d = 0; d < digits_.size(); ++d) {
    int x = 0;
    for (;; ++x) {
      PCMAX_CHECK(x <= counts[d] && x <= remaining, "unrank walked out of range");
      const std::uint64_t block = ways(d + 1, remaining - x);
      if (rank < block) break;
      rank -= block;
    }
    digits_[d] = x;
    index_ += static_cast<std::size_t>(x) * strides[d];
    remaining -= x;
  }
  PCMAX_CHECK(remaining == 0, "unrank left level mass unassigned");
}

bool LevelWalker::next() {
  if (digits_.empty()) return false;  // dims = 0: only the origin exists
  const auto counts = space_->counts();
  const auto strides = space_->strides();
  // Lexicographic successor with a fixed digit sum: scanning from the right,
  // clear the tail while accumulating its sum until a digit can absorb one
  // unit from the (non-empty) tail behind it...
  int tail = 0;
  std::size_t p = digits_.size();
  while (p-- > 0) {
    if (tail > 0 && digits_[p] < counts[p]) break;
    tail += digits_[p];
    index_ -= static_cast<std::size_t>(digits_[p]) * strides[p];
    digits_[p] = 0;
    if (p == 0) return false;  // no pivot: the level is exhausted
  }
  ++digits_[p];
  index_ += strides[p];
  // ...then redistribute the remaining tail-1 units lexicographically
  // minimally, i.e. packed into the last dimensions.
  int spare = tail - 1;
  for (std::size_t q = digits_.size(); spare > 0 && q-- > p + 1;) {
    const int take = spare < counts[q] ? spare : counts[q];
    digits_[q] = take;
    index_ += static_cast<std::size_t>(take) * strides[q];
    spare -= take;
  }
  return true;
}

}  // namespace pcmax
