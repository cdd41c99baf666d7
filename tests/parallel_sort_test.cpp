#include "parallel/parallel_sort.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace pcmax {
namespace {

std::vector<long> random_values(std::size_t n, std::uint64_t seed,
                                long lo = -1000, long hi = 1000) {
  Xoshiro256StarStar rng(seed);
  std::vector<long> values(n);
  for (auto& v : values) v = uniform_int(rng, lo, hi);
  return values;
}

TEST(ParallelSort, MatchesStdStableSortAcrossSizesAndWorkers) {
  for (const unsigned workers : {1u, 2u, 3u, 4u, 7u}) {
    WorkStealingExecutor executor(workers);
    for (const std::size_t n : {0u, 1u, 2u, 5u, 17u, 100u, 1000u, 4097u}) {
      std::vector<long> values = random_values(n, n + workers);
      std::vector<long> expected = values;
      std::stable_sort(expected.begin(), expected.end());
      parallel_stable_sort(values, executor, std::less<>());
      ASSERT_EQ(values, expected) << "n=" << n << " workers=" << workers;
    }
  }
}

TEST(ParallelSort, RespectsCustomComparators) {
  WorkStealingExecutor executor(3);
  std::vector<long> values = random_values(500, 9);
  std::vector<long> expected = values;
  std::stable_sort(expected.begin(), expected.end(), std::greater<>());
  parallel_stable_sort(values, executor, std::greater<>());
  EXPECT_EQ(values, expected);
}

TEST(ParallelSort, IsStable) {
  // Sort pairs by first component only; second components record the
  // original order and must remain ascending within equal keys.
  struct Item {
    int key;
    int index;
    bool operator==(const Item&) const = default;
  };
  Xoshiro256StarStar rng(17);
  std::vector<Item> items;
  for (int i = 0; i < 2000; ++i) {
    items.push_back(Item{static_cast<int>(uniform_int(rng, 0, 9)), i});
  }
  std::vector<Item> expected = items;
  auto by_key = [](const Item& a, const Item& b) { return a.key < b.key; };
  std::stable_sort(expected.begin(), expected.end(), by_key);

  WorkStealingExecutor executor(4);
  parallel_stable_sort(items, executor, by_key);
  EXPECT_EQ(items, expected);
}

TEST(ParallelSort, AlreadySortedAndReversedInputs) {
  WorkStealingExecutor executor(4);
  std::vector<long> ascending(1000);
  for (std::size_t i = 0; i < ascending.size(); ++i) {
    ascending[i] = static_cast<long>(i);
  }
  std::vector<long> expected = ascending;
  parallel_stable_sort(ascending, executor, std::less<>());
  EXPECT_EQ(ascending, expected);

  std::vector<long> descending(expected.rbegin(), expected.rend());
  parallel_stable_sort(descending, executor, std::less<>());
  EXPECT_EQ(descending, expected);
}

TEST(ParallelSort, AllEqualElements) {
  WorkStealingExecutor executor(3);
  std::vector<long> values(777, 42);
  parallel_stable_sort(values, executor, std::less<>());
  for (long v : values) EXPECT_EQ(v, 42);
}

TEST(ParallelSort, WorksWithSequentialExecutor) {
  SequentialExecutor executor;
  std::vector<long> values = random_values(300, 21);
  std::vector<long> expected = values;
  std::stable_sort(expected.begin(), expected.end());
  parallel_stable_sort(values, executor, std::less<>());
  EXPECT_EQ(values, expected);
}

TEST(ParallelSort, SortsStringsByLength) {
  WorkStealingExecutor executor(2);
  std::vector<std::string> words{"dddd", "a", "ccc", "bb", "eee", "f"};
  parallel_stable_sort(words, executor,
                       [](const std::string& a, const std::string& b) {
                         return a.size() < b.size();
                       });
  EXPECT_EQ(words, (std::vector<std::string>{"a", "f", "bb", "ccc", "eee",
                                             "dddd"}));
}

}  // namespace
}  // namespace pcmax
