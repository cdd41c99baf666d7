#include "core/bounds.hpp"

#include <algorithm>
#include <numeric>
#include <vector>

#include "core/variant.hpp"
#include "util/error.hpp"

namespace pcmax {

namespace {
Time ceil_div(Time a, Time b) { return (a + b - 1) / b; }

/// Machine count the bounds are taken over. Classic instances use m
/// unchanged; capacity-restricted instances use min(m, B), the machine count
/// of their classic twin, so LB <= OPT_B <= UB holds for the restricted
/// optimum as well (see the reduction note in core/variant.hpp).
Time bound_machines(const Instance& instance) {
  return static_cast<Time>(variant_effective_machines(instance));
}

/// Every job index, longest first.
std::vector<int> longest_first_order(const Instance& instance) {
  std::vector<int> order(static_cast<std::size_t>(instance.jobs()));
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](int a, int b) { return instance.time(a) > instance.time(b); });
  return order;
}

/// The pigeonhole bound for `group`: the g shortest of the (g-1)*m' + 1
/// longest jobs are exactly ranks [prefix - g, prefix) of `longest_first`.
Time pigeonhole_bound(const Instance& instance, std::size_t group,
                      std::span<const int> longest_first) {
  const auto machines = static_cast<std::size_t>(bound_machines(instance));
  const std::size_t prefix = (group - 1) * machines + 1;
  if (longest_first.size() < prefix) return 0;
  Time bound = 0;
  for (std::size_t rank = prefix - group; rank < prefix; ++rank) {
    bound += instance.time(longest_first[rank]);
  }
  return bound;
}
}  // namespace

Time makespan_lower_bound(const Instance& instance) {
  return std::max(ceil_div(instance.total_time(), bound_machines(instance)),
                  instance.max_time());
}

Time makespan_upper_bound(const Instance& instance) {
  return ceil_div(instance.total_time(), bound_machines(instance)) +
         instance.max_time();
}

Time pigeonhole_lower_bound(const Instance& instance, int group) {
  PCMAX_REQUIRE(group >= 2, "group size must be at least 2");
  return pigeonhole_bound(instance, static_cast<std::size_t>(group),
                          longest_first_order(instance));
}

Time improved_lower_bound(const Instance& instance) {
  return improved_lower_bound(instance, longest_first_order(instance));
}

Time improved_lower_bound(const Instance& instance,
                          std::span<const int> longest_first) {
  PCMAX_REQUIRE(longest_first.size() == static_cast<std::size_t>(instance.jobs()),
                "the longest-first order must list every job");
  Time best = makespan_lower_bound(instance);
  // Beyond n/m' + 1 the prefix exceeds n and the bound is 0.
  const auto max_group = static_cast<std::size_t>(
      static_cast<Time>(instance.jobs()) / bound_machines(instance) + 1);
  for (std::size_t group = 2; group <= max_group; ++group) {
    best = std::max(best, pigeonhole_bound(instance, group, longest_first));
  }
  return best;
}

}  // namespace pcmax
