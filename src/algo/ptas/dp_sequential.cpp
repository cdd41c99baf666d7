#include "algo/ptas/dp_sequential.hpp"

#include <vector>

#include "obs/metrics.hpp"
#include "util/error.hpp"

namespace pcmax {

DpRun dp_bottom_up(const RoundedInstance& rounded, const StateSpace& space,
                   const ConfigSet& configs, const DpOptions& options) {
  const DpKernel kernel = resolve_dp_kernel(options.kernel);
  DpRun run{DpTable(space.size()), DpTable::kInfeasible, DpStats{}};
  run.stats.table_size = space.size();
  run.stats.config_count = configs.count();
  run.stats.levels = space.max_level() + 1;
  run.stats.kernel = kernel;
  obs::DpRunRecorder recorder("bottom-up", "-", space.size(),
                              space.max_level() + 1);

  run.table.set(0, 0);  // OPT(0,...,0) = 0
  ++run.stats.entries_computed;

  // Odometer-maintained digits (and their sum, the entry's anti-diagonal
  // level) avoid a decode per entry.
  std::vector<int> digits(static_cast<std::size_t>(space.dims()), 0);
  const auto counts = space.counts();
  const std::int32_t* values = run.table.values_data();
  // Smallest encoded offset = densest predecessor stride; prefetching the
  // next entry's gather through it hides part of the table-read latency.
  const std::size_t first_offset =
      configs.count() > 0 ? configs.offsets[0] : 0;
  int level = 0;
  CancelCheck cancel_check(options.cancel, /*period=*/1024);
  const bool armed = options.cancel.valid();
  DpScanCounters counters;
  for (std::size_t index = 1; index < space.size(); ++index) {
    if (armed) cancel_check.poll();
    // Increment the mixed-radix odometer (last digit fastest).
    for (std::size_t d = digits.size(); d-- > 0;) {
      if (digits[d] < counts[d]) {
        ++digits[d];
        ++level;
        break;
      }
      level -= digits[d];
      digits[d] = 0;
    }
    if (first_offset != 0 && index + 1 < space.size() &&
        first_offset <= index + 1) {
      __builtin_prefetch(values + (index + 1 - first_offset));
    }
    run.table.set(index,
                  kernel == DpKernel::kPerEntryEnum
                      ? compute_entry_enumerated(index, digits, rounded, space,
                                                 values, counters.scans)
                      : compute_entry(index, digits, level, configs, values,
                                      counters, kernel));
    ++run.stats.entries_computed;
  }

  accumulate_scan_counters(run.stats, counters);
  recorder.add_worker(0, run.stats.entries_computed, run.stats.config_scans,
                      run.stats.configs_pruned, run.stats.simd_blocks,
                      run.stats.scalar_fallbacks);
  recorder.finish();
  run.machines_needed = run.table.value(space.size() - 1);
  return run;
}

}  // namespace pcmax
