// Low-overhead runtime metrics and tracing for the parallel PTAS.
//
// Three primitives (see docs/metrics.md for the full model and JSON schema):
//
//  * counters — monotonically increasing per-worker event counts (tasks run,
//    iterations claimed, DP entries, MIP nodes, ...), stored in cache-line-
//    aligned per-worker slots with relaxed atomic increments;
//  * timers   — named duration accumulators (call count + total ns) for the
//    hot synchronisation points: barrier waits, level sweeps, bisection
//    probes, LP solves;
//  * spans    — a bounded trace buffer of {name, worker, begin, end} records
//    for coarse-grained episodes (DP runs, bisection probes).
//
// Collection is opt-in at two levels. At compile time, the whole layer is
// gated by the PCMAX_METRICS macro (CMake option of the same name, ON by
// default): without it, every instrumentation site below inlines to nothing
// and release builds pay zero cost. At run time, events are recorded only
// while a Metrics instance is installed as the ambient collector via
// MetricsScope; with no collector installed, an instrumented site costs one
// atomic pointer load.
//
// Counters are deterministic for deterministic executions: under
// SequentialExecutor the same input produces bit-identical counter values,
// which is what makes them unit-testable (tests/obs_metrics_test.cpp).
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace pcmax::obs {

#if defined(PCMAX_METRICS)
inline constexpr bool kMetricsEnabled = true;
#else
inline constexpr bool kMetricsEnabled = false;
#endif

/// Per-worker event counters. Sites without a natural worker identity
/// (barrier arrivals, bisection probes, MIP nodes) record into slot 0.
enum class Counter : unsigned {
  kPoolRegions,        ///< fork-join regions executed (pool episodes)
  kPoolTasks,          ///< range-body invocations
  kPoolIterations,     ///< loop iterations processed
  kPoolDynamicClaims,  ///< range slices claimed (own shard or stolen)
  kPoolSteals,         ///< range slices taken from another worker's shard
  kPoolParks,          ///< work-stealing workers blocking for the next episode
  kBarrierWaits,       ///< Barrier::arrive_and_wait calls
  kDpRuns,             ///< DP table fills (one per bisection probe)
  kDpLevels,           ///< anti-diagonal levels swept
  kDpEntries,          ///< DP entries computed by this worker
  kDpConfigScans,      ///< configuration candidates inspected by this worker
  kDpConfigsPruned,    ///< candidates skipped via the level-prefix bound
  kDpSimdBlocks,       ///< full-width vector blocks processed by AVX kernels
  kDpScalarFallbacks,  ///< entries where a vector kernel degraded to SWAR/scalar
  kBisectionProbes,    ///< DP probes issued by the bisection
  kLpSolves,           ///< simplex invocations
  kMipNodes,           ///< branch-and-bound nodes expanded
  kResilientSolves,    ///< ResilientSolver::solve calls
  kResilientFallbacks, ///< resilient solves that degraded past the PTAS
  kServiceRequests,       ///< requests processed by a SolveService worker
  kServiceCacheHits,      ///< result-cache hits (verified, served from cache)
  kServiceCacheMisses,    ///< result-cache misses (includes collision misses)
  kServiceCacheEvictions, ///< LRU evictions from the result cache
  kServiceDegraded,       ///< requests answered via a degraded (cheap) path
  kServiceShedQuota,      ///< requests shed at admission by a tenant quota
  kServiceShedOverload,   ///< requests shed by overload (queue full / pressure)
  kServiceCoalesced,      ///< duplicate requests that shared an in-flight solve
  kServiceInternalErrors, ///< unknown worker exceptions turned into responses
  kBreakerTrips,          ///< closed/half-open -> open transitions
  kBreakerOpenRejects,    ///< attempts rejected while a breaker was open
  kBreakerProbes,         ///< half-open trial attempts admitted
  kBreakerCloses,         ///< half-open -> closed transitions (probe succeeded)
  kPortfolioRaces,             ///< PortfolioSolver::solve calls
  kPortfolioRacers,            ///< racers launched across all races
  kPortfolioRacersCancelled,   ///< racers stopped by the race controller
  kPortfolioIncumbentUpdates,  ///< improving IncumbentBoard publishes
  kPortfolioBoundTightenings,  ///< bisection UBs clamped by the incumbent
  kServiceShardDispatches,     ///< requests routed to a shard by fingerprint
  kServiceFuturesResolved,     ///< SolveFuture deliveries (value set)
  kServiceFuturesContinuations,///< then() continuations executed
  kServiceFuturesExpired,      ///< deadline-expired waits answered shed:deadline
  kServiceIncrementalResolves, ///< submit_prepared re-solves (canonicalization skipped)
};
/// Derived from the last enumerator, so removing a counter cannot leave an
/// unnamed slot. A counter appended after it must take its place here; the
/// pinned total makes every change of the enum revisit this line, and
/// Metrics.StableNamesForEveryCounterAndTimer fails on a named slot past
/// the count.
inline constexpr std::size_t kCounterCount =
    static_cast<std::size_t>(Counter::kServiceIncrementalResolves) + 1;
static_assert(kCounterCount == 42,
              "Counter enum changed: derive kCounterCount from its last "
              "enumerator and update this total");

/// Stable snake-case name used as the JSON key (e.g. "pool.iterations").
const char* counter_name(Counter counter);

/// Duration accumulators.
enum class Timer : unsigned {
  kPoolRegion,      ///< pool episode wall time (caller side)
  kBarrierWait,     ///< time spent inside Barrier::arrive_and_wait
  kDpRun,           ///< whole DP table fill
  kDpLevel,         ///< one anti-diagonal level sweep
  kBisectionProbe,  ///< round + enumerate + DP of one probe
  kLpSolve,         ///< one simplex solve
  kServiceRequest,  ///< end-to-end request latency inside a service worker
};
/// Derived from the last enumerator, as kCounterCount.
inline constexpr std::size_t kTimerCount =
    static_cast<std::size_t>(Timer::kServiceRequest) + 1;
static_assert(kTimerCount == 7,
              "Timer enum changed: derive kTimerCount from its last "
              "enumerator and update this total");

/// Stable name used as the JSON key (e.g. "barrier.wait").
const char* timer_name(Timer timer);

/// Snapshot of one timer.
struct TimerStat {
  std::uint64_t calls = 0;
  std::uint64_t total_ns = 0;
};

/// One trace-buffer record. `name` must be a string literal (the buffer
/// stores the pointer, not a copy).
struct Span {
  const char* name = nullptr;
  unsigned worker = 0;
  std::uint64_t begin_ns = 0;
  std::uint64_t end_ns = 0;
};

/// Per-level sample of one DP run.
struct DpLevelSample {
  int level = 0;
  std::uint64_t entries = 0;
  std::uint64_t ns = 0;
};

/// Structured record of one DP table fill.
struct DpRunRecord {
  std::string variant;    ///< "bottom-up", "scan-per-level", "bucketed", ...
  std::string schedule;   ///< loop schedule name, "-" when not applicable
  std::size_t table_size = 0;  ///< sigma
  int levels = 0;              ///< number of anti-diagonals
  std::uint64_t total_ns = 0;
  std::vector<DpLevelSample> per_level;            ///< empty for sequential fills
  std::vector<std::uint64_t> per_worker_entries;   ///< index = worker id
  std::vector<std::uint64_t> per_worker_scans;
  std::vector<std::uint64_t> per_worker_pruned;    ///< level-bound skips
};

/// Nanoseconds on the process-wide monotonic clock (steady_clock, origin at
/// first use). All span/level timestamps share this origin.
std::uint64_t monotonic_ns();

/// A metrics collector: per-worker counter slots, timers, the span buffer,
/// and structured DP-run records. Thread-safe for concurrent recording; read
/// accessors are meant for quiescent collectors (after the instrumented work
/// joined) but are safe — counters are atomics and the buffers are locked.
class Metrics {
 public:
  /// `workers` sizes the per-worker slots (>= 1; worker ids beyond the last
  /// slot clamp to it). Buffers beyond `span_capacity` / `dp_run_capacity`
  /// are dropped and counted, never reallocated from a hot path.
  explicit Metrics(unsigned workers, std::size_t span_capacity = 4096,
                   std::size_t dp_run_capacity = 4096);

  Metrics(const Metrics&) = delete;
  Metrics& operator=(const Metrics&) = delete;

  [[nodiscard]] unsigned workers() const {
    return static_cast<unsigned>(slots_.size());
  }

  // --- recording (hot paths) ---

  void add(unsigned worker, Counter counter, std::uint64_t delta = 1) {
    slot(worker).counters[static_cast<std::size_t>(counter)].fetch_add(
        delta, std::memory_order_relaxed);
  }

  void add_timer(Timer timer, std::uint64_t ns) {
    const auto t = static_cast<std::size_t>(timer);
    timer_calls_[t].fetch_add(1, std::memory_order_relaxed);
    timer_ns_[t].fetch_add(ns, std::memory_order_relaxed);
  }

  /// `name` must be a string literal.
  void add_span(const char* name, unsigned worker, std::uint64_t begin_ns,
                std::uint64_t end_ns);

  void add_dp_run(DpRunRecord record);

  /// Records a textual fact ("algorithm_used", "degradation_reason", ...).
  /// Last write per key wins. Not a hot-path primitive — takes the buffer
  /// lock; call from driver-level code only.
  void note(const std::string& key, const std::string& value);

  // --- reading ---

  [[nodiscard]] std::uint64_t counter_of(unsigned worker, Counter counter) const {
    return slot(worker).counters[static_cast<std::size_t>(counter)].load(
        std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t counter_total(Counter counter) const;
  [[nodiscard]] TimerStat timer(Timer timer) const;
  [[nodiscard]] std::vector<Span> spans() const;
  [[nodiscard]] std::vector<DpRunRecord> dp_runs() const;
  [[nodiscard]] std::uint64_t dropped_spans() const;
  [[nodiscard]] std::uint64_t dropped_dp_runs() const;
  [[nodiscard]] std::vector<std::pair<std::string, std::string>> notes() const;

 private:
  struct alignas(64) WorkerSlot {
    std::array<std::atomic<std::uint64_t>, kCounterCount> counters{};
  };

  WorkerSlot& slot(unsigned worker) {
    const std::size_t i = worker < slots_.size() ? worker : slots_.size() - 1;
    return slots_[i];
  }
  [[nodiscard]] const WorkerSlot& slot(unsigned worker) const {
    const std::size_t i = worker < slots_.size() ? worker : slots_.size() - 1;
    return slots_[i];
  }

  std::vector<WorkerSlot> slots_;
  std::array<std::atomic<std::uint64_t>, kTimerCount> timer_calls_{};
  std::array<std::atomic<std::uint64_t>, kTimerCount> timer_ns_{};

  mutable std::mutex buffer_mutex_;
  std::vector<Span> spans_;
  std::size_t span_capacity_;
  std::uint64_t dropped_spans_ = 0;
  std::vector<DpRunRecord> dp_runs_;
  std::size_t dp_run_capacity_;
  std::uint64_t dropped_dp_runs_ = 0;
  std::vector<std::pair<std::string, std::string>> notes_;  // insertion order
};

#if defined(PCMAX_METRICS)
/// The ambient collector, or nullptr when none is installed. Instrumented
/// sites branch on this once and skip all work when it is null.
Metrics* current();
/// Installs `metrics` (nullptr uninstalls). Prefer MetricsScope.
void set_current(Metrics* metrics);
#else
inline Metrics* current() { return nullptr; }
inline void set_current(Metrics*) {}
#endif

/// RAII installation of the ambient collector. Install one scope at a time
/// (scopes restore the previous collector on destruction but are not
/// synchronised against concurrent installs from other threads).
class MetricsScope {
 public:
  explicit MetricsScope(Metrics& metrics) : previous_(current()) {
    set_current(&metrics);
  }
  ~MetricsScope() { set_current(previous_); }

  MetricsScope(const MetricsScope&) = delete;
  MetricsScope& operator=(const MetricsScope&) = delete;

 private:
  Metrics* previous_;
};

/// RAII timer: accumulates the scope's wall time into `timer` of the
/// collector installed at construction. Free when metrics are compiled out
/// or no collector is installed.
class ScopedTimer {
 public:
  explicit ScopedTimer(Timer timer)
      : metrics_(current()),
        timer_(timer),
        begin_ns_(metrics_ != nullptr ? monotonic_ns() : 0) {}

  ~ScopedTimer() {
    if (metrics_ != nullptr) {
      metrics_->add_timer(timer_, monotonic_ns() - begin_ns_);
    }
  }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Metrics* metrics_;
  Timer timer_;
  std::uint64_t begin_ns_;
};

/// Builds one DpRunRecord against the ambient collector; every method is a
/// no-op when no collector was installed at construction. Used by all DP
/// realisations (sequential and parallel) so profiles always carry the
/// per-run entry totals the tests check against the state-space size.
class DpRunRecorder {
 public:
  /// `variant`/`schedule` must outlive the recorder (string literals or
  /// names owned by the caller).
  DpRunRecorder(const char* variant, const char* schedule,
                std::size_t table_size, int levels);

  [[nodiscard]] bool active() const { return metrics_ != nullptr; }

  /// Timestamp for the start of a level sweep (0 when inactive).
  [[nodiscard]] std::uint64_t level_begin() const {
    return metrics_ != nullptr ? monotonic_ns() : 0;
  }

  /// Records one finished level: entry count and wall time.
  void level_end(int level, std::uint64_t entries, std::uint64_t begin_ns);

  /// Records one worker's entry/scan/pruned totals (call once per worker).
  /// simd_blocks/scalar_fallbacks feed the dp.simd_blocks and
  /// dp.scalar_fallbacks counters; they default to 0 for scalar kernels.
  void add_worker(unsigned worker, std::uint64_t entries, std::uint64_t scans,
                  std::uint64_t pruned, std::uint64_t simd_blocks = 0,
                  std::uint64_t scalar_fallbacks = 0);

  /// Publishes the record (run counters, timer, span, structured record).
  void finish();

 private:
  Metrics* metrics_;
  DpRunRecord record_;
  std::uint64_t begin_ns_ = 0;
};

}  // namespace pcmax::obs
