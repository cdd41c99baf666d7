#include "obs/metrics.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace pcmax::obs {

const char* counter_name(Counter counter) {
  switch (counter) {
    case Counter::kPoolRegions: return "pool.regions";
    case Counter::kPoolTasks: return "pool.tasks";
    case Counter::kPoolIterations: return "pool.iterations";
    case Counter::kPoolDynamicClaims: return "pool.dynamic_claims";
    case Counter::kPoolSteals: return "pool.steals";
    case Counter::kPoolParks: return "pool.parks";
    case Counter::kBarrierWaits: return "barrier.waits";
    case Counter::kDpRuns: return "dp.runs";
    case Counter::kDpLevels: return "dp.levels";
    case Counter::kDpEntries: return "dp.entries";
    case Counter::kDpConfigScans: return "dp.config_scans";
    case Counter::kDpConfigsPruned: return "dp.configs_pruned";
    case Counter::kDpSimdBlocks: return "dp.simd_blocks";
    case Counter::kDpScalarFallbacks: return "dp.scalar_fallbacks";
    case Counter::kBisectionProbes: return "bisection.probes";
    case Counter::kLpSolves: return "lp.solves";
    case Counter::kMipNodes: return "mip.nodes";
    case Counter::kResilientSolves: return "resilient.solves";
    case Counter::kResilientFallbacks: return "resilient.fallbacks";
    case Counter::kServiceRequests: return "service.requests";
    case Counter::kServiceCacheHits: return "service.cache.hits";
    case Counter::kServiceCacheMisses: return "service.cache.misses";
    case Counter::kServiceCacheEvictions: return "service.cache.evictions";
    case Counter::kServiceDegraded: return "service.degraded";
    case Counter::kServiceShedQuota: return "service.shed.quota";
    case Counter::kServiceShedOverload: return "service.shed.overload";
    case Counter::kServiceCoalesced: return "service.coalesced";
    case Counter::kServiceInternalErrors: return "service.internal_errors";
    case Counter::kBreakerTrips: return "breaker.trips";
    case Counter::kBreakerOpenRejects: return "breaker.open_rejects";
    case Counter::kBreakerProbes: return "breaker.probes";
    case Counter::kBreakerCloses: return "breaker.closes";
    case Counter::kPortfolioRaces: return "portfolio.races";
    case Counter::kPortfolioRacers: return "portfolio.racers";
    case Counter::kPortfolioRacersCancelled: return "portfolio.racers_cancelled";
    case Counter::kPortfolioIncumbentUpdates: return "portfolio.incumbent_updates";
    case Counter::kPortfolioBoundTightenings: return "portfolio.bound_tightenings";
    case Counter::kServiceShardDispatches: return "service.shard.dispatches";
    case Counter::kServiceFuturesResolved: return "service.futures_resolved";
    case Counter::kServiceFuturesContinuations:
      return "service.futures_continuations";
    case Counter::kServiceFuturesExpired: return "service.futures_expired";
    case Counter::kServiceIncrementalResolves:
      return "service.incremental_resolves";
  }
  throw InvalidArgumentError("unknown counter");
}

const char* timer_name(Timer timer) {
  switch (timer) {
    case Timer::kPoolRegion: return "pool.region";
    case Timer::kBarrierWait: return "barrier.wait";
    case Timer::kDpRun: return "dp.run";
    case Timer::kDpLevel: return "dp.level";
    case Timer::kBisectionProbe: return "bisection.probe";
    case Timer::kLpSolve: return "lp.solve";
    case Timer::kServiceRequest: return "service.request";
  }
  throw InvalidArgumentError("unknown timer");
}

std::uint64_t monotonic_ns() {
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch)
          .count());
}

Metrics::Metrics(unsigned workers, std::size_t span_capacity,
                 std::size_t dp_run_capacity)
    : slots_(std::max(1u, workers)),
      span_capacity_(span_capacity),
      dp_run_capacity_(dp_run_capacity) {
  spans_.reserve(std::min<std::size_t>(span_capacity_, 256));
}

void Metrics::add_span(const char* name, unsigned worker,
                       std::uint64_t begin_ns, std::uint64_t end_ns) {
  std::lock_guard lock(buffer_mutex_);
  if (spans_.size() >= span_capacity_) {
    ++dropped_spans_;
    return;
  }
  spans_.push_back(Span{name, worker, begin_ns, end_ns});
}

void Metrics::add_dp_run(DpRunRecord record) {
  std::lock_guard lock(buffer_mutex_);
  if (dp_runs_.size() >= dp_run_capacity_) {
    ++dropped_dp_runs_;
    return;
  }
  dp_runs_.push_back(std::move(record));
}

void Metrics::note(const std::string& key, const std::string& value) {
  std::lock_guard lock(buffer_mutex_);
  for (auto& entry : notes_) {
    if (entry.first == key) {
      entry.second = value;
      return;
    }
  }
  notes_.emplace_back(key, value);
}

std::vector<std::pair<std::string, std::string>> Metrics::notes() const {
  std::lock_guard lock(buffer_mutex_);
  return notes_;
}

std::uint64_t Metrics::counter_total(Counter counter) const {
  std::uint64_t total = 0;
  for (unsigned w = 0; w < workers(); ++w) total += counter_of(w, counter);
  return total;
}

TimerStat Metrics::timer(Timer timer) const {
  const auto t = static_cast<std::size_t>(timer);
  return TimerStat{timer_calls_[t].load(std::memory_order_relaxed),
                   timer_ns_[t].load(std::memory_order_relaxed)};
}

std::vector<Span> Metrics::spans() const {
  std::lock_guard lock(buffer_mutex_);
  return spans_;
}

std::vector<DpRunRecord> Metrics::dp_runs() const {
  std::lock_guard lock(buffer_mutex_);
  return dp_runs_;
}

std::uint64_t Metrics::dropped_spans() const {
  std::lock_guard lock(buffer_mutex_);
  return dropped_spans_;
}

std::uint64_t Metrics::dropped_dp_runs() const {
  std::lock_guard lock(buffer_mutex_);
  return dropped_dp_runs_;
}

#if defined(PCMAX_METRICS)
namespace {
// Acquire/release so a collector's construction happens-before any recording
// by pool workers that observe the installed pointer.
std::atomic<Metrics*> g_current{nullptr};
}  // namespace

Metrics* current() { return g_current.load(std::memory_order_acquire); }

void set_current(Metrics* metrics) {
  g_current.store(metrics, std::memory_order_release);
}
#endif  // PCMAX_METRICS

DpRunRecorder::DpRunRecorder(const char* variant, const char* schedule,
                             std::size_t table_size, int levels)
    : metrics_(current()) {
  if (metrics_ == nullptr) return;
  record_.variant = variant;
  record_.schedule = schedule;
  record_.table_size = table_size;
  record_.levels = levels;
  begin_ns_ = monotonic_ns();
}

void DpRunRecorder::level_end(int level, std::uint64_t entries,
                              std::uint64_t begin_ns) {
  if (metrics_ == nullptr) return;
  const std::uint64_t ns = monotonic_ns() - begin_ns;
  record_.per_level.push_back(DpLevelSample{level, entries, ns});
  metrics_->add_timer(Timer::kDpLevel, ns);
  metrics_->add(0, Counter::kDpLevels);
}

void DpRunRecorder::add_worker(unsigned worker, std::uint64_t entries,
                               std::uint64_t scans, std::uint64_t pruned,
                               std::uint64_t simd_blocks,
                               std::uint64_t scalar_fallbacks) {
  if (metrics_ == nullptr) return;
  record_.per_worker_entries.push_back(entries);
  record_.per_worker_scans.push_back(scans);
  record_.per_worker_pruned.push_back(pruned);
  metrics_->add(worker, Counter::kDpEntries, entries);
  metrics_->add(worker, Counter::kDpConfigScans, scans);
  metrics_->add(worker, Counter::kDpConfigsPruned, pruned);
  if (simd_blocks > 0) {
    metrics_->add(worker, Counter::kDpSimdBlocks, simd_blocks);
  }
  if (scalar_fallbacks > 0) {
    metrics_->add(worker, Counter::kDpScalarFallbacks, scalar_fallbacks);
  }
}

void DpRunRecorder::finish() {
  if (metrics_ == nullptr) return;
  const std::uint64_t end_ns = monotonic_ns();
  record_.total_ns = end_ns - begin_ns_;
  metrics_->add(0, Counter::kDpRuns);
  metrics_->add_timer(Timer::kDpRun, record_.total_ns);
  metrics_->add_span("dp.run", 0, begin_ns_, end_ns);
  metrics_->add_dp_run(std::move(record_));
  metrics_ = nullptr;  // publish at most once
}

}  // namespace pcmax::obs
