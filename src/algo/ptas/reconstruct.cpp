#include "algo/ptas/reconstruct.hpp"

#include <span>
#include <vector>

#include "algo/lpt.hpp"
#include "util/error.hpp"

namespace pcmax {

Schedule reconstruct_long_schedule(const Instance& instance, const DpAtTarget& at) {
  const std::int32_t needed = at.run.machines_needed;
  PCMAX_CHECK(needed != DpTable::kInfeasible, "cannot reconstruct an infeasible run");
  PCMAX_CHECK(needed <= instance.machines(),
              "DP needs more machines than the instance has");

  Schedule schedule(instance.machines());
  const auto dims = static_cast<std::size_t>(at.rounded.dims());
  // Cursor into each class's job list; any job of the class is a valid
  // stand-in for its rounded size (paper Lines 34-39 pick the first match).
  std::vector<std::size_t> cursor(dims, 0);
  std::vector<int> v(dims);  // digits of the current entry
  std::size_t index = at.space.size() - 1;  // start from OPT(N)
  int machine = 0;
  while (index != 0) {
    PCMAX_CHECK(machine < instance.machines(), "walk used too many machines");
    // The machine's configuration: among the fitting s whose predecessor
    // needs one machine fewer, the one with the smallest encoded offset.
    at.space.decode(index, v);
    const std::int32_t predecessor_value = at.run.table.value(index) - 1;
    const std::vector<std::size_t>& offsets = at.configs.offsets;
    std::size_t chosen = offsets.size();
    for (std::size_t c = 0; c < offsets.size(); ++c) {
      if ((chosen == offsets.size() || offsets[c] < offsets[chosen]) &&
          config_fits(at.configs.config(c), v) &&
          at.run.table.value(index - offsets[c]) == predecessor_value) {
        chosen = c;
      }
    }
    PCMAX_CHECK(chosen != offsets.size(),
                "feasible entry has no predecessor one machine short");
    const std::span<const int> s = at.configs.config(chosen);
    for (std::size_t d = 0; d < dims; ++d) {
      for (int taken = 0; taken < s[d]; ++taken) {
        PCMAX_CHECK(cursor[d] < at.rounded.class_jobs[d].size(),
                    "class ran out of jobs during reconstruction");
        schedule.assign(machine, at.rounded.class_jobs[d][cursor[d]++]);
      }
    }
    index -= offsets[chosen];
    ++machine;
  }
  PCMAX_CHECK(machine == needed, "walk length disagrees with OPT(N)");
  for (std::size_t d = 0; d < dims; ++d) {
    PCMAX_CHECK(cursor[d] == at.rounded.class_jobs[d].size(),
                "reconstruction left long jobs unassigned");
  }
  return schedule;
}

Schedule reconstruct_full_schedule(const Instance& instance, const DpAtTarget& at) {
  Schedule schedule = reconstruct_long_schedule(instance, at);

  // The short jobs are exactly the jobs not in any rounded class.
  std::vector<char> is_long(static_cast<std::size_t>(instance.jobs()), 0);
  for (const auto& jobs : at.rounded.class_jobs) {
    for (int job : jobs) is_long[static_cast<std::size_t>(job)] = 1;
  }
  std::vector<int> short_jobs;
  for (int j = 0; j < instance.jobs(); ++j) {
    if (!is_long[static_cast<std::size_t>(j)]) short_jobs.push_back(j);
  }

  lpt_onto(instance, short_jobs, schedule);  // paper Lines 41-51
  return schedule;
}

}  // namespace pcmax
