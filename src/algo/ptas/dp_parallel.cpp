#include "algo/ptas/dp_parallel.hpp"

#include <atomic>
#include <exception>
#include <limits>
#include <mutex>

#include "obs/metrics.hpp"
#include "parallel/barrier.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"

namespace pcmax {

std::string parallel_dp_variant_name(ParallelDpVariant variant) {
  switch (variant) {
    case ParallelDpVariant::kScanPerLevel: return "scan-per-level";
    case ParallelDpVariant::kBucketed: return "bucketed";
  }
  throw InvalidArgumentError("unknown parallel DP variant");
}

namespace {

/// Amortisation period of the in-range cancellation polls (and the team
/// sweep's stop-flag polls): one acquire load every 256 entries keeps the poll cost
/// well below the per-entry config scan while still bounding the reaction
/// latency to a few microseconds of work.
constexpr std::uint32_t kCancelPollPeriod = 256;

}  // namespace

std::vector<std::int32_t> compute_levels(const StateSpace& space, Executor& executor,
                                         const CancellationToken& cancel) {
  std::vector<std::int32_t> levels(space.size());
  const auto counts = space.counts();
  executor.parallel_for_ranges(
      space.size(),
      [&](std::size_t begin, std::size_t end, unsigned /*worker*/) {
        // Decode the first index of the range, then advance the digit
        // odometer so the whole contiguous range costs O(1) per entry.
        std::vector<int> digits(static_cast<std::size_t>(space.dims()));
        space.decode(begin, digits);
        int level = 0;
        for (int d : digits) level += d;
        for (std::size_t i = begin; i < end; ++i) {
          levels[i] = level;
          for (std::size_t d = digits.size(); d-- > 0;) {
            if (digits[d] < counts[d]) {
              ++digits[d];
              ++level;
              break;
            }
            level -= digits[d];
            digits[d] = 0;
          }
        }
      },
      /*chunk=*/0, cancel);
  return levels;
}

namespace {

/// Per-worker counters on separate cache lines to avoid false sharing.
struct alignas(64) WorkerCounters {
  std::uint64_t entries = 0;
  DpScanCounters scan;  ///< scans/pruned/simd_blocks/scalar_fallbacks
};

/// Folds the per-worker counters into the run stats and, when a metrics
/// collector is installed, publishes the structured DP-run record.
void publish_run(obs::DpRunRecorder& recorder,
                 const std::vector<WorkerCounters>& counters, DpRun& run) {
  for (std::size_t w = 0; w < counters.size(); ++w) {
    run.stats.entries_computed += counters[w].entries;
    accumulate_scan_counters(run.stats, counters[w].scan);
    recorder.add_worker(static_cast<unsigned>(w), counters[w].entries,
                        counters[w].scan.scans, counters[w].scan.pruned,
                        counters[w].scan.simd_blocks,
                        counters[w].scan.scalar_fallbacks);
  }
  recorder.finish();
}

/// Number of entries on each anti-diagonal, from the precomputed level
/// array. Only evaluated when a collector is installed.
std::vector<std::uint64_t> level_widths(const StateSpace& space,
                                        const std::vector<std::int32_t>& levels) {
  std::vector<std::uint64_t> widths(
      static_cast<std::size_t>(space.max_level()) + 1, 0);
  for (std::int32_t l : levels) ++widths[static_cast<std::size_t>(l)];
  return widths;
}

/// Computes one table entry from its flat index, digits, and level (shared
/// by both variants; the digits come from a walker or an odometer).
inline void process_entry(std::size_t index, std::span<const int> v, int level,
                          const RoundedInstance& rounded, const StateSpace& space,
                          const ConfigSet& configs, DpKernel kernel,
                          DpTable& table, WorkerCounters& counters) {
  if (index == 0) {
    table.set(0, 0);  // OPT(0,...,0) = 0
    ++counters.entries;
    return;
  }
  table.set(index,
            kernel == DpKernel::kPerEntryEnum
                ? compute_entry_enumerated(index, v, rounded, space,
                                           table.values_data(), counters.scan.scans)
                : compute_entry(index, v, level, configs, table.values_data(),
                                counters.scan, kernel));
  ++counters.entries;
}

void run_scan_per_level(const RoundedInstance& rounded, const StateSpace& space,
                        const ConfigSet& configs, DpKernel kernel,
                        Executor& executor, const CancellationToken& cancel,
                        DpRun& run) {
  const std::vector<std::int32_t> levels = compute_levels(space, executor, cancel);
  const unsigned workers = executor.concurrency();
  std::vector<WorkerCounters> counters(workers);
  std::vector<std::vector<int>> scratch(
      workers, std::vector<int>(static_cast<std::size_t>(space.dims())));

  obs::DpRunRecorder recorder("scan-per-level", "round-robin", space.size(),
                              space.max_level() + 1);
  const std::vector<std::uint64_t> widths =
      recorder.active() ? level_widths(space, levels) : std::vector<std::uint64_t>{};

  const auto counts = space.counts();
  const bool armed = cancel.valid();
  for (int level = 0; level <= space.max_level(); ++level) {
    fault_hit("dp.level");
    if (armed) cancel.check();
    const std::uint64_t level_t0 = recorder.level_begin();
    executor.parallel_for_ranges(
        space.size(),
        [&](std::size_t begin, std::size_t end, unsigned worker) {
          // Stack-local so the amortisation counter never false-shares;
          // short ranges are covered by the dispatcher's per-call check.
          CancelCheck range_check(cancel, kCancelPollPeriod);
          // Decode lazily on the first index that passes the level filter
          // (paper Line 12), then maintain the digit odometer for the rest
          // of the range — amortised O(1) per scanned index instead of one
          // mixed-radix decode per processed entry. (Single-iteration
          // claims deliver singleton ranges, where this degenerates to one
          // decode per processed entry, never worse.)
          std::vector<int>& digits = scratch[worker];
          bool tracking = false;
          for (std::size_t i = begin; i < end; ++i) {
            if (armed) range_check.poll();
            if (levels[i] == level) {
              if (!tracking) {
                space.decode(i, digits);
                tracking = true;
              }
              process_entry(i, digits, level, rounded, space, configs, kernel,
                            run.table, counters[worker]);
            }
            if (tracking && i + 1 < end) {
              for (std::size_t d = digits.size(); d-- > 0;) {
                if (digits[d] < counts[d]) {
                  ++digits[d];
                  break;
                }
                digits[d] = 0;
              }
            }
          }
        },
        /*chunk=*/1, cancel);
    recorder.level_end(level,
                       widths.empty() ? 0 : widths[static_cast<std::size_t>(level)],
                       level_t0);
  }
  publish_run(recorder, counters, run);
}

/// The barrier-synchronised level sweep of kBucketed (paper Algorithm 3):
/// one executor team episode whose members split every anti-diagonal between
/// them and meet at a barrier between levels. A team of one runs the same
/// sweep on the caller with a barrier that returns at once.
void run_level_sweep(const RoundedInstance& rounded, const StateSpace& space,
                     const ConfigSet& configs, DpKernel kernel,
                     Executor& executor, const CancellationToken& cancel,
                     DpRun& run) {
  const unsigned members = executor.team_size();
  Barrier barrier(members);
  std::vector<WorkerCounters> counters(members);
  // Each member owns a contiguous rank block of each level.
  obs::DpRunRecorder recorder("bucketed", "block", space.size(),
                              space.max_level() + 1);

  // Barrier-safe stop protocol. A worker that observes a stop request must
  // NOT leave its level loop unilaterally — its peers would wait at the
  // barrier forever. Instead:
  //  * any worker may raise `stop_pending` (and skip its remaining slots of
  //    the current level);
  //  * only worker 0, after its own level-l slots and before the level-l
  //    barrier, stamps `stop_after = l`;
  //  * every worker tests `level > stop_after` at the top of the loop.
  // Worker 0 can only stamp the level it has itself reached, and the stamp
  // is sequenced before the barrier all peers pass through, so at the top of
  // level l+1 every worker uniformly sees l+1 > l and exits together. An
  // exception thrown by a member's level work is caught, kept (the first
  // one wins) and raises `stop_pending` the same way.
  const bool armed = cancel.valid();
  std::atomic<bool> stop_pending{false};
  std::atomic<int> stop_after{std::numeric_limits<int>::max()};
  std::mutex error_mutex;
  std::exception_ptr stop_error;  // guarded by error_mutex
  auto keep_error = [&] {
    {
      const std::lock_guard lock(error_mutex);
      if (!stop_error) stop_error = std::current_exception();
    }
    stop_pending.store(true, std::memory_order_relaxed);
  };

  auto worker_fn = [&](unsigned worker) {
    LevelWalker walker(space);
    for (int level = 0; level <= space.max_level(); ++level) {
      if (level > stop_after.load(std::memory_order_relaxed)) break;
      if (worker == 0) {
        // The injector may throw (Action::kThrow); capture instead of
        // unwinding past the barrier the peers are heading for.
        try {
          fault_hit("dp.level");
          if (armed && cancel.should_stop()) {
            stop_pending.store(true, std::memory_order_relaxed);
          }
        } catch (...) {
          keep_error();
        }
      }
      // Worker 0 (the orchestrating thread) owns the level samples; timing
      // spans its own work plus the wait for the slowest peer.
      const std::uint64_t level_t0 = worker == 0 ? recorder.level_begin() : 0;
      std::uint64_t width = 0;
      std::uint32_t since_poll = 0;
      auto polled_stop = [&] {
        if (!armed || ++since_poll < kCancelPollPeriod) return false;
        since_poll = 0;
        if (cancel.should_stop() || stop_pending.load(std::memory_order_relaxed)) {
          stop_pending.store(true, std::memory_order_relaxed);
          return true;  // skip the level tail; the table is discarded anyway
        }
        return false;
      };
      try {
        // Contiguous block split of the level's rank range across members.
        width = walker.level_size(level);
        const std::uint64_t begin = width * worker / members;
        const std::uint64_t end = width * (worker + 1) / members;
        if (begin < end) {
          walker.seek(level, begin);
          for (std::uint64_t rank = begin; rank < end; ++rank) {
            if (polled_stop()) break;
            process_entry(walker.index(), walker.digits(), level, rounded,
                          space, configs, kernel, run.table, counters[worker]);
            if (rank + 1 < end) walker.next();
          }
        }
      } catch (...) {
        keep_error();
      }
      if (worker == 0 && stop_pending.load(std::memory_order_relaxed)) {
        stop_after.store(level, std::memory_order_relaxed);
      }
      barrier.arrive_and_wait();  // level boundary
      if (worker == 0) recorder.level_end(level, width, level_t0);
    }
  };
  executor.run_team(worker_fn, cancel);

  if (stop_error) std::rethrow_exception(stop_error);
  if (stop_pending.load(std::memory_order_relaxed)) {
    cancel.check();  // throws the typed error; sticky, so this cannot fall through
    throw CancelledError("DP level sweep stopped");  // defensive: unreachable
  }
  publish_run(recorder, counters, run);
}

}  // namespace

DpRun dp_parallel(const RoundedInstance& rounded, const StateSpace& space,
                  const ConfigSet& configs, const ParallelDpOptions& options) {
  const DpKernel kernel = resolve_dp_kernel(options.kernel);
  DpRun run{DpTable(space.size()), DpTable::kInfeasible, DpStats{}};
  run.stats.table_size = space.size();
  run.stats.config_count = configs.count();
  run.stats.levels = space.max_level() + 1;
  run.stats.kernel = kernel;

  switch (options.variant) {
    case ParallelDpVariant::kScanPerLevel:
      PCMAX_REQUIRE(options.executor != nullptr,
                    "scan-per-level variant needs an executor");
      run_scan_per_level(rounded, space, configs, kernel, *options.executor,
                         options.cancel, run);
      break;
    case ParallelDpVariant::kBucketed:
      PCMAX_REQUIRE(options.executor != nullptr, "bucketed variant needs an executor");
      run_level_sweep(rounded, space, configs, kernel, *options.executor,
                      options.cancel, run);
      break;
  }

  run.machines_needed = run.table.value(space.size() - 1);
  return run;
}

}  // namespace pcmax
