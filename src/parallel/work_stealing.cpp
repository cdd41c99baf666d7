#include "parallel/work_stealing.hpp"

#include <algorithm>
#include <exception>

#include "obs/metrics.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"

namespace pcmax {

namespace {

/// The executing pool/worker of the current thread, for nested-call
/// detection: a parallel_for issued from inside a worker body runs inline on
/// that worker instead of deadlocking on the episode lock.
thread_local const WorkStealingPool* tl_pool = nullptr;
thread_local unsigned tl_worker = 0;

}  // namespace

// --- WorkStealingPool: episode plumbing ------------------------------------

/// One fork-join episode: a pre-split range or a team. Shared read-only by
/// workers except for the claim atomics and the first captured exception.
struct WorkStealingPool::Episode {
  enum class Kind { kRange, kTeam };
  Kind kind = Kind::kRange;

  // Team episodes: one body call per worker.
  const TeamBody* team_body = nullptr;

  // Range episodes. The shards live in the episode (not the pool) so the
  // serialisation of concurrent external callers in run_episode is the only
  // synchronisation shard setup needs.
  const RangeBody* range_body = nullptr;
  std::size_t chunk = 1;
  std::vector<RangeShard> shards;

  // Shared.
  const CancellationToken* cancel = nullptr;  // non-owning; outlives episode
  std::atomic<bool> abort{false};
  std::mutex error_mutex;
  std::exception_ptr error;

  void capture_exception() noexcept {
    std::lock_guard lock(error_mutex);
    if (!error) error = std::current_exception();
  }
};

/// Per-worker metric accumulators, flushed once per episode.
struct WorkStealingPool::LocalStats {
  std::uint64_t tasks = 0;
  std::uint64_t iterations = 0;
  std::uint64_t claims = 0;
  std::uint64_t steals = 0;
};

WorkStealingPool::WorkStealingPool(unsigned num_threads)
    : num_threads_(num_threads) {
  PCMAX_REQUIRE(num_threads >= 1, "work-stealing pool needs at least one thread");
  threads_.reserve(num_threads - 1);
  for (unsigned w = 1; w < num_threads; ++w) {
    threads_.emplace_back([this, w] { worker_loop(w); });
  }
}

WorkStealingPool::~WorkStealingPool() {
  {
    // Drain before join: wait until no episode is active, then flip the
    // shutdown flag and notify while still holding the lock — a worker can
    // never observe the flag through a condition variable this destructor
    // has already started tearing down.
    std::unique_lock lock(mutex_);
    idle_cv_.wait(lock, [&] { return episode_ == nullptr; });
    shutting_down_ = true;
    start_cv_.notify_all();
  }
  for (auto& t : threads_) t.join();
}

void WorkStealingPool::worker_loop(unsigned worker) {
  std::size_t seen_epoch = 0;
  std::unique_lock lock(mutex_);
  for (;;) {
    start_cv_.wait(lock, [&] { return shutting_down_ || epoch_ != seen_epoch; });
    if (shutting_down_) return;
    seen_epoch = epoch_;
    Episode& episode = *episode_;
    lock.unlock();
    execute(episode, worker);
    lock.lock();
    if (--still_running_ == 0) done_cv_.notify_all();
    // No episode can start before this lock is released, so the wait above
    // blocks: one park. Counted here, while the episode's caller still waits
    // in run_episode for this lock, so its collector is still installed.
    if (obs::Metrics* metrics = obs::current()) {
      metrics->add(worker, obs::Counter::kPoolParks);
    }
  }
}

void WorkStealingPool::run_episode(Episode& episode) {
  {
    std::unique_lock lock(mutex_);
    // Concurrent external callers are serialised (calling from inside a
    // worker body is handled by the nested-inline paths of the entry points
    // and never reaches here).
    idle_cv_.wait(lock, [&] { return episode_ == nullptr; });
    episode_ = &episode;
    if (num_threads_ > 1) {
      still_running_ = num_threads_ - 1;
      ++epoch_;
      start_cv_.notify_all();  // under the lock: drain-before-join discipline
    }
  }

  execute(episode, 0);  // the caller is worker 0

  {
    std::unique_lock lock(mutex_);
    if (num_threads_ > 1) {
      done_cv_.wait(lock, [&] { return still_running_ == 0; });
    }
    episode_ = nullptr;
    idle_cv_.notify_all();
  }
  if (episode.error) std::rethrow_exception(episode.error);
}

void WorkStealingPool::execute(Episode& episode, unsigned worker) {
  const WorkStealingPool* previous_pool = tl_pool;
  const unsigned previous_worker = tl_worker;
  tl_pool = this;
  tl_worker = worker;
  LocalStats stats;
  try {
    switch (episode.kind) {
      case Episode::Kind::kRange:
        work_range(episode, worker, stats);
        break;
      case Episode::Kind::kTeam:
        ++stats.tasks;
        ++stats.iterations;
        (*episode.team_body)(worker);
        break;
    }
  } catch (...) {
    episode.capture_exception();
    episode.abort.store(true, std::memory_order_relaxed);
  }
  tl_pool = previous_pool;
  tl_worker = previous_worker;
  if (obs::Metrics* metrics = obs::current()) {
    metrics->add(worker, obs::Counter::kPoolTasks, stats.tasks);
    metrics->add(worker, obs::Counter::kPoolIterations, stats.iterations);
    if (stats.claims > 0) {
      metrics->add(worker, obs::Counter::kPoolDynamicClaims, stats.claims);
    }
    if (stats.steals > 0) metrics->add(worker, obs::Counter::kPoolSteals, stats.steals);
  }
}

// --- range episodes --------------------------------------------------------

void WorkStealingPool::work_range(Episode& episode, unsigned worker,
                                  LocalStats& stats) {
  const auto chunk = static_cast<std::int64_t>(episode.chunk);
  const bool armed = episode.cancel != nullptr;

  // Claims chunk-sized slices off shard `shard_index` until it is drained;
  // returns whether at least one slice was claimed. Both the owner and
  // thieves decrement the same `remaining` counter, so slices of one shard
  // are handed out in ascending order no matter who claims them.
  auto drain = [&](unsigned shard_index) {
    RangeShard& shard = episode.shards[shard_index];
    bool claimed_any = false;
    for (;;) {
      if (episode.abort.load(std::memory_order_relaxed)) break;
      if (shard.remaining.load(std::memory_order_relaxed) <= 0) break;
      const std::int64_t pre =
          shard.remaining.fetch_sub(chunk, std::memory_order_acq_rel);
      if (pre <= 0) break;
      const auto take = static_cast<std::size_t>(std::min(pre, chunk));
      const std::size_t begin = shard.range_end - static_cast<std::size_t>(pre);
      claimed_any = true;
      if (armed && episode.cancel->cancel_requested()) episode.cancel->check();
      fault_hit("pool.task");
      if (shard_index != worker) {
        ++stats.steals;
        fault_hit("pool.steal");
      }
      ++stats.tasks;
      ++stats.claims;
      stats.iterations += take;
      (*episode.range_body)(begin, begin + take, worker);
    }
    return claimed_any;
  };

  drain(worker);  // own shard first: cache-warm, ascending slices
  if (num_threads_ == 1) return;

  // Steal sweep: random starting victim, full pass over all shards; stop
  // once a complete pass claims nothing (remaining counters are monotone
  // decreasing, so an empty shard stays empty).
  std::uint64_t rng = 0x9E3779B97F4A7C15ull * (worker + 2);
  for (;;) {
    if (episode.abort.load(std::memory_order_relaxed)) return;
    rng = rng * 6364136223846793005ull + 1442695040888963407ull;
    const auto start = static_cast<unsigned>((rng >> 33) % num_threads_);
    bool any = false;
    for (unsigned k = 0; k < num_threads_; ++k) {
      const unsigned victim = (start + k) % num_threads_;
      if (drain(victim)) any = true;
    }
    if (!any) return;
  }
}

void WorkStealingPool::parallel_for_1d(std::size_t n, const RangeBody& body,
                                       std::size_t chunk,
                                       const CancellationToken& cancel) {
  if (n == 0) return;
  if (tl_pool != nullptr) {
    // Nested call from inside a worker body: run inline on that worker (its
    // id when the pools match, 0 — always valid — otherwise).
    if (cancel.valid() && cancel.cancel_requested()) cancel.check();
    body(0, n, tl_pool == this ? tl_worker : 0);
    return;
  }

  const obs::ScopedTimer region_timer(obs::Timer::kPoolRegion);
  if (obs::Metrics* metrics = obs::current()) {
    metrics->add(0, obs::Counter::kPoolRegions);
  }

  Episode episode;
  episode.kind = Episode::Kind::kRange;
  episode.range_body = &body;
  episode.chunk =
      chunk > 0 ? chunk
                : std::max<std::size_t>(1, n / (std::size_t{num_threads_} * 8));
  episode.shards = std::vector<RangeShard>(num_threads_);
  for (unsigned w = 0; w < num_threads_; ++w) {
    const std::size_t begin = n * w / num_threads_;
    const std::size_t end = n * (w + 1) / num_threads_;
    episode.shards[w].range_end = end;
    episode.shards[w].remaining.store(static_cast<std::int64_t>(end - begin),
                                      std::memory_order_relaxed);
  }
  episode.cancel = cancel.valid() ? &cancel : nullptr;
  run_episode(episode);
}

// --- team episodes ---------------------------------------------------------

unsigned WorkStealingPool::team_size() const {
  return tl_pool != nullptr ? 1 : num_threads_;
}

void WorkStealingPool::run_team(const TeamBody& body,
                                const CancellationToken& cancel) {
  if (cancel.valid() && cancel.cancel_requested()) cancel.check();
  if (tl_pool != nullptr) {
    body(0);  // nested: a team of one on the calling worker
    return;
  }

  const obs::ScopedTimer region_timer(obs::Timer::kPoolRegion);
  if (obs::Metrics* metrics = obs::current()) {
    metrics->add(0, obs::Counter::kPoolRegions);
  }

  Episode episode;
  episode.kind = Episode::Kind::kTeam;
  episode.team_body = &body;
  run_episode(episode);
}

}  // namespace pcmax
