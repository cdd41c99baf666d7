#include "algo/ptas/state_space.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "util/error.hpp"

namespace pcmax {
namespace {

constexpr std::size_t kBig = std::size_t{1} << 40;

TEST(StateSpace, SizeIsProductOfRadices) {
  EXPECT_EQ(StateSpace({2, 3}, kBig).size(), 12u);
  EXPECT_EQ(StateSpace({0, 0, 0}, kBig).size(), 1u);
  EXPECT_EQ(StateSpace({1, 1, 1, 1}, kBig).size(), 16u);
  EXPECT_EQ(StateSpace({}, kBig).size(), 1u);  // empty: only the origin
}

TEST(StateSpace, RowMajorOrderMatchesThePaperExample) {
  // Paper §III, array V for N = (2,3): (0,0),(0,1),...,(0,3),(1,0),...,(2,3).
  const StateSpace space({2, 3}, kBig);
  std::vector<int> digits(2);
  const std::vector<std::vector<int>> expected{
      {0, 0}, {0, 1}, {0, 2}, {0, 3}, {1, 0}, {1, 1},
      {1, 2}, {1, 3}, {2, 0}, {2, 1}, {2, 2}, {2, 3}};
  for (std::size_t i = 0; i < space.size(); ++i) {
    space.decode(i, digits);
    EXPECT_EQ(digits, expected[i]) << "index " << i;
  }
}

TEST(StateSpace, EncodeDecodeIsABijection) {
  const StateSpace space({2, 0, 3, 1}, kBig);
  std::vector<int> digits(4);
  for (std::size_t i = 0; i < space.size(); ++i) {
    space.decode(i, digits);
    EXPECT_EQ(space.encode(digits), i);
    for (std::size_t d = 0; d < 4; ++d) {
      EXPECT_GE(digits[d], 0);
      EXPECT_LE(digits[d], space.counts()[d]);
    }
  }
}

TEST(StateSpace, StridesAreRowMajor) {
  const StateSpace space({2, 3, 1}, kBig);
  // radices 3,4,2: strides 8,2,1.
  ASSERT_EQ(space.strides().size(), 3u);
  EXPECT_EQ(space.strides()[0], 8u);
  EXPECT_EQ(space.strides()[1], 2u);
  EXPECT_EQ(space.strides()[2], 1u);
}

TEST(StateSpace, LevelOfIsDigitSum) {
  const StateSpace space({2, 3}, kBig);
  std::vector<int> digits(2);
  for (std::size_t i = 0; i < space.size(); ++i) {
    space.decode(i, digits);
    EXPECT_EQ(space.level_of(i), digits[0] + digits[1]);
  }
}

TEST(StateSpace, MaxLevelIsSumOfCounts) {
  EXPECT_EQ(StateSpace({2, 3}, kBig).max_level(), 5);
  EXPECT_EQ(StateSpace({0, 0}, kBig).max_level(), 0);
  EXPECT_EQ(StateSpace({}, kBig).max_level(), 0);
}

TEST(StateSpace, LevelHistogramMatchesBruteForce) {
  const StateSpace space({2, 3, 2}, kBig);
  const std::vector<std::size_t> histogram = space.level_histogram();
  ASSERT_EQ(histogram.size(), static_cast<std::size_t>(space.max_level()) + 1);
  std::vector<std::size_t> expected(histogram.size(), 0);
  for (std::size_t i = 0; i < space.size(); ++i) {
    ++expected[static_cast<std::size_t>(space.level_of(i))];
  }
  EXPECT_EQ(histogram, expected);
  EXPECT_EQ(std::accumulate(histogram.begin(), histogram.end(), std::size_t{0}),
            space.size());
}

TEST(StateSpace, PaperExampleHistogram) {
  // N = (2,3): anti-diagonal widths 1,2,3,3,2,1 (paper Figure 1 levels).
  const StateSpace space({2, 3}, kBig);
  EXPECT_EQ(space.level_histogram(),
            (std::vector<std::size_t>{1, 2, 3, 3, 2, 1}));
}

TEST(StateSpace, EnforcesEntryBudget) {
  EXPECT_THROW(StateSpace({99, 99, 99, 99}, 1000), ResourceLimitError);
  EXPECT_NO_THROW(StateSpace({9, 9}, 100));
  EXPECT_THROW(StateSpace({9, 9}, 99), ResourceLimitError);
}

TEST(StateSpace, GuardsAgainstSizeOverflow) {
  // 10 dimensions of radix 2^7 = 1.2e21 entries: must throw, not wrap.
  std::vector<int> counts(10, 127);
  EXPECT_THROW(StateSpace(std::move(counts), kBig), ResourceLimitError);
}

TEST(StateSpace, RejectsNegativeCounts) {
  EXPECT_THROW(StateSpace({2, -1}, kBig), InvalidArgumentError);
}

TEST(StateSpace, ZeroCountDimensionsAreDegenerate) {
  const StateSpace space({0, 2, 0}, kBig);
  EXPECT_EQ(space.size(), 3u);
  std::vector<int> digits(3);
  space.decode(2, digits);
  EXPECT_EQ(digits, (std::vector<int>{0, 2, 0}));
}

// ---------------------------------------------------------------------------
// level_counts and LevelWalker: the decode-free anti-diagonal machinery.
// ---------------------------------------------------------------------------

TEST(StateSpace, LevelCountsMatchHistogram) {
  // The convolution formula and the O(sigma) sweep must agree everywhere.
  const std::vector<std::vector<int>> shapes = {
      {2, 3}, {4}, {1, 1, 1, 1}, {0, 2, 0}, {3, 2, 2}, {}};
  for (const auto& shape : shapes) {
    const StateSpace space(shape, kBig);
    EXPECT_EQ(space.level_counts(), space.level_histogram());
  }
}

TEST(LevelWalker, WalksEveryLevelInIndexOrder) {
  const std::vector<std::vector<int>> shapes = {
      {2, 3}, {4}, {1, 1, 1, 1}, {0, 2, 0}, {3, 2, 2}};
  for (const auto& shape : shapes) {
    const StateSpace space(shape, kBig);
    LevelWalker walker(space);
    const std::vector<std::size_t> histogram = space.level_histogram();
    std::size_t visited = 0;
    for (int level = 0; level <= space.max_level(); ++level) {
      ASSERT_EQ(walker.level_size(level),
                histogram[static_cast<std::size_t>(level)]);
      if (walker.level_size(level) == 0) continue;
      walker.seek(level, 0);
      std::size_t previous = 0;
      for (std::uint64_t rank = 0; rank < walker.level_size(level); ++rank) {
        const std::size_t index = walker.index();
        // Digits must be consistent with the index and sum to the level.
        EXPECT_EQ(space.encode(walker.digits()), index);
        EXPECT_EQ(space.level_of(index), level);
        if (rank > 0) {
          EXPECT_GT(index, previous);  // strictly increasing
        }
        previous = index;
        ++visited;
        const bool more = walker.next();
        EXPECT_EQ(more, rank + 1 < walker.level_size(level));
      }
    }
    EXPECT_EQ(visited, space.size());  // every entry on exactly one level
  }
}

TEST(LevelWalker, SeekAgreesWithSequentialWalk) {
  const StateSpace space({3, 2, 2}, kBig);
  LevelWalker sequential(space);
  LevelWalker seeker(space);
  for (int level = 0; level <= space.max_level(); ++level) {
    const std::uint64_t width = sequential.level_size(level);
    if (width == 0) continue;
    sequential.seek(level, 0);
    for (std::uint64_t rank = 0; rank < width; ++rank) {
      seeker.seek(level, rank);
      EXPECT_EQ(seeker.index(), sequential.index())
          << "level " << level << " rank " << rank;
      if (rank + 1 < width) sequential.next();
    }
  }
}

TEST(LevelWalker, DegenerateSpaces) {
  // Dimensionless space: a single origin entry on level 0.
  const StateSpace empty({}, kBig);
  LevelWalker walker(empty);
  EXPECT_EQ(walker.level_size(0), 1u);
  walker.seek(0, 0);
  EXPECT_EQ(walker.index(), 0u);
  EXPECT_FALSE(walker.next());

  // Out-of-range seeks and levels are rejected.
  const StateSpace space({2, 1}, kBig);
  LevelWalker bounded(space);
  EXPECT_THROW((void)bounded.level_size(space.max_level() + 1), InternalError);
  EXPECT_THROW(bounded.seek(0, 1), InternalError);
}

}  // namespace
}  // namespace pcmax
