#include "parallel/work_stealing.hpp"

#include <algorithm>
#include <chrono>
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

/// Parked workers re-arm every 50 ms purely as a deadlock backstop; real
/// wake-ups come from the wake_epoch_ bump of a spawn. 40 consecutive empty
/// re-arms (~2 s) with every worker parked and tasks still outstanding means
/// the task graph is broken (a cycle, or a dependency count that can never
/// reach zero) — that is reported instead of hanging forever.
constexpr std::chrono::milliseconds kParkPoll{50};
constexpr int kStallTimeouts = 40;

constexpr const char* kStallMessage =
    "work-stealing task graph stalled: tasks outstanding but none runnable";

}  // namespace

// --- ChaseLevDeque ---------------------------------------------------------

ChaseLevDeque::ChaseLevDeque(std::size_t capacity) { reset(capacity); }

void ChaseLevDeque::reset(std::size_t capacity) {
  std::size_t cap = 1;
  while (cap < capacity) cap <<= 1;
  if (slots_.size() != cap) {
    std::vector<std::atomic<std::uint32_t>> fresh(cap);
    slots_.swap(fresh);
    mask_ = cap - 1;
  }
  top_.store(0, std::memory_order_relaxed);
  bottom_.store(0, std::memory_order_relaxed);
}

bool ChaseLevDeque::push(std::uint32_t value) {
  const std::int64_t b = bottom_.load(std::memory_order_relaxed);
  const std::int64_t t = top_.load(std::memory_order_acquire);
  if (b - t >= static_cast<std::int64_t>(capacity())) return false;
  // The slot store is release (not the paper's relaxed): a thief's acquire
  // load of the same slot then carries a happens-before edge from everything
  // the owner wrote before pushing — the payload-visibility edge the DP's
  // dependency counters rely on, expressed through operations (not fences)
  // so ThreadSanitizer models it.
  slots_[static_cast<std::size_t>(b) & mask_].store(value,
                                                    std::memory_order_release);
  bottom_.store(b + 1, std::memory_order_release);
  return true;
}

bool ChaseLevDeque::pop(std::uint32_t* out) {
  const std::int64_t b = bottom_.load(std::memory_order_relaxed) - 1;
  bottom_.store(b, std::memory_order_relaxed);
  // Orders the bottom decrement before the top read — without it the owner
  // and a thief can both take the last remaining item.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  std::int64_t t = top_.load(std::memory_order_relaxed);
  if (t <= b) {
    *out = slots_[static_cast<std::size_t>(b) & mask_].load(
        std::memory_order_relaxed);
    if (t == b) {
      // Last item: race the thieves for it via top.
      if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                        std::memory_order_relaxed)) {
        bottom_.store(b + 1, std::memory_order_relaxed);
        return false;  // a thief won
      }
      bottom_.store(b + 1, std::memory_order_relaxed);
    }
    return true;
  }
  bottom_.store(b + 1, std::memory_order_relaxed);
  return false;
}

bool ChaseLevDeque::steal(std::uint32_t* out) {
  std::int64_t t = top_.load(std::memory_order_acquire);
  std::atomic_thread_fence(std::memory_order_seq_cst);
  const std::int64_t b = bottom_.load(std::memory_order_acquire);
  if (t >= b) return false;
  const std::uint32_t value =
      slots_[static_cast<std::size_t>(t) & mask_].load(std::memory_order_acquire);
  if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                    std::memory_order_relaxed)) {
    return false;  // lost to the owner or another thief; caller moves on
  }
  // A successful CAS at t guarantees `value` is the un-overwritten slot t
  // content: the owner cannot wrap bottom past t + capacity while top == t
  // (push's capacity check), so the acquire load above read the push that
  // published task t.
  *out = value;
  return true;
}

// --- WorkStealingPool: episode plumbing ------------------------------------

/// One fork-join episode: a pre-split range, a task graph, or a team.
/// Shared read-only by workers except for the claim/termination atomics and
/// the first captured exception.
struct WorkStealingPool::Episode {
  enum class Kind { kRange, kTasks, kTeam };
  Kind kind = Kind::kRange;

  // Team episodes: one body call per worker.
  const TeamBody* team_body = nullptr;

  // Range episodes. The shards live in the episode (not the pool) so the
  // serialisation of concurrent external callers in run_episode is the only
  // synchronisation shard setup needs.
  const RangeBody* range_body = nullptr;
  std::size_t chunk = 1;
  std::vector<RangeShard> shards;

  // Task episodes.
  std::span<const std::uint32_t> roots;
  const TaskBody* task_body = nullptr;
  std::size_t task_bound = 0;
  std::atomic<std::size_t> root_next{0};
  std::atomic<std::int64_t> outstanding{0};
  std::atomic<bool> done{false};

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
  std::uint64_t parks = 0;
};

WorkStealingPool::WorkStealingPool(unsigned num_threads)
    : num_threads_(num_threads) {
  PCMAX_REQUIRE(num_threads >= 1, "work-stealing pool needs at least one thread");
  deques_.reserve(num_threads);
  for (unsigned w = 0; w < num_threads; ++w) {
    deques_.push_back(std::make_unique<ChaseLevDeque>());
  }
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

unsigned WorkStealingPool::hardware_threads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

void WorkStealingPool::worker_loop(unsigned worker) {
  std::size_t seen_epoch = 0;
  for (;;) {
    Episode* episode = nullptr;
    {
      std::unique_lock lock(mutex_);
      start_cv_.wait(lock, [&] { return shutting_down_ || epoch_ != seen_epoch; });
      if (shutting_down_) return;
      seen_epoch = epoch_;
      episode = episode_;
    }
    execute(*episode, worker);
    {
      std::lock_guard lock(mutex_);
      if (--still_running_ == 0) done_cv_.notify_all();
    }
  }
}

void WorkStealingPool::run_episode(Episode& episode) {
  {
    std::unique_lock lock(mutex_);
    // Concurrent external callers are serialised, as in ThreadPool::run
    // (calling from inside a worker body is handled by the nested-inline
    // paths of the entry points and never reaches here).
    idle_cv_.wait(lock, [&] { return episode_ == nullptr; });
    if (episode.kind == Episode::Kind::kTasks) {
      // Episodes start from quiescent deques; sizing them to the task bound
      // makes the overflow list unreachable in practice. Done under the
      // lock: the idle wait above is what makes the deques quiescent.
      for (auto& deque : deques_) {
        deque->reset(std::max<std::size_t>(64, episode.task_bound));
      }
      overflow_.clear();
      overflow_size_.store(0, std::memory_order_relaxed);
    }
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
      case Episode::Kind::kTasks:
        work_tasks(episode, worker, stats);
        break;
      case Episode::Kind::kTeam:
        ++stats.tasks;
        ++stats.iterations;
        (*episode.team_body)(worker);
        break;
    }
  } catch (...) {
    episode.capture_exception();
    signal_abort(episode);
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
    if (stats.parks > 0) metrics->add(worker, obs::Counter::kPoolParks, stats.parks);
  }
}

void WorkStealingPool::signal_abort(Episode& episode) noexcept {
  episode.abort.store(true, std::memory_order_seq_cst);
  episode.done.store(false, std::memory_order_relaxed);
  {
    std::lock_guard lock(park_mutex_);
    ++wake_epoch_;
  }
  park_cv_.notify_all();
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

void WorkStealingPool::parallel_for_2d(std::size_t rows, std::size_t cols,
                                       std::size_t tile_rows, std::size_t tile_cols,
                                       const TileBody& body,
                                       const CancellationToken& cancel) {
  PCMAX_REQUIRE(tile_rows >= 1 && tile_cols >= 1, "tile sides must be >= 1");
  if (rows == 0 || cols == 0) return;
  const std::size_t grid_rows = (rows + tile_rows - 1) / tile_rows;
  const std::size_t grid_cols = (cols + tile_cols - 1) / tile_cols;
  // Tiles are linearised row-major and distributed through the 1-d range
  // machinery, one tile per claimed slice.
  parallel_for_1d(
      grid_rows * grid_cols,
      [&](std::size_t begin, std::size_t end, unsigned worker) {
        for (std::size_t tile = begin; tile < end; ++tile) {
          const std::size_t tr = tile / grid_cols;
          const std::size_t tc = tile % grid_cols;
          const std::size_t row_begin = tr * tile_rows;
          const std::size_t col_begin = tc * tile_cols;
          body(row_begin, std::min(rows, row_begin + tile_rows), col_begin,
               std::min(cols, col_begin + tile_cols), worker);
        }
      },
      /*chunk=*/1, cancel);
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

// --- task episodes ---------------------------------------------------------

void WorkStealingPool::TaskContext::spawn(std::uint32_t task) {
  WorkStealingPool& pool = *pool_;
  Episode& episode = *pool.episode_;
  PCMAX_CHECK(task < episode.task_bound, "spawned task id out of range");
  // Count before publishing so `outstanding` can never transiently hit zero
  // while the task is in flight.
  episode.outstanding.fetch_add(1, std::memory_order_relaxed);
  if (!pool.deques_[worker_]->push(task)) {
    // Deques are sized to the task bound, so this is a never-in-practice
    // safety valve rather than a fast path.
    std::lock_guard lock(pool.park_mutex_);
    pool.overflow_.push_back(task);
    pool.overflow_size_.store(pool.overflow_.size(), std::memory_order_release);
  }
  // Fence + probe pairs with the parker's parked_ increment + re-scan: either
  // the spawner sees the parked peer and wakes it, or the parker's re-scan
  // (sequenced after its own increment) sees this push. Both probes are
  // seq_cst, so one of the two orders must hold — no lost wake-up.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (pool.parked_.load(std::memory_order_seq_cst) > 0) pool.wake_one_parked();
}

void WorkStealingPool::wake_one_parked() {
  {
    std::lock_guard lock(park_mutex_);
    ++wake_epoch_;
  }
  park_cv_.notify_all();
}

bool WorkStealingPool::try_get_task(Episode& episode, unsigned worker,
                                    std::uint32_t* out, std::uint64_t* rng,
                                    LocalStats& stats) {
  if (deques_[worker]->pop(out)) return true;
  // Shared root list: claimed via an atomic cursor once the own deque runs
  // dry, so the episode's seeds spread across workers without a designated
  // producer violating the deques' single-owner push rule.
  if (episode.root_next.load(std::memory_order_relaxed) < episode.roots.size()) {
    const std::size_t i =
        episode.root_next.fetch_add(1, std::memory_order_relaxed);
    if (i < episode.roots.size()) {
      *out = episode.roots[i];
      return true;
    }
  }
  if (overflow_size_.load(std::memory_order_acquire) > 0) {
    std::lock_guard lock(park_mutex_);
    if (!overflow_.empty()) {
      *out = overflow_.back();
      overflow_.pop_back();
      overflow_size_.store(overflow_.size(), std::memory_order_release);
      return true;
    }
  }
  if (num_threads_ > 1) {
    *rng = *rng * 6364136223846793005ull + 1442695040888963407ull;
    const auto start = static_cast<unsigned>((*rng >> 33) % num_threads_);
    for (unsigned k = 0; k < num_threads_; ++k) {
      const unsigned victim = (start + k) % num_threads_;
      if (victim == worker) continue;
      if (deques_[victim]->steal(out)) {
        ++stats.steals;
        fault_hit("pool.steal");  // may throw: the task is dropped and the
                                  // episode aborts, never left half-counted
        return true;
      }
    }
  }
  return false;
}

void WorkStealingPool::run_one_task(Episode& episode, unsigned worker,
                                    std::uint32_t task, LocalStats& stats) {
  TaskContext context(this, worker);
  (*episode.task_body)(task, context);
  ++stats.tasks;
  ++stats.iterations;
  if (episode.outstanding.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    // Last task retired: flip `done` and wake every parked worker.
    {
      std::lock_guard lock(park_mutex_);
      episode.done.store(true, std::memory_order_release);
      ++wake_epoch_;
    }
    park_cv_.notify_all();
  }
}

void WorkStealingPool::work_tasks(Episode& episode, unsigned worker,
                                  LocalStats& stats) {
  const bool armed = episode.cancel != nullptr;
  std::uint64_t rng = 0x2545F4914F6CDD1Dull * (worker + 2);
  std::uint32_t task = 0;
  int idle_timeouts = 0;
  for (;;) {
    if (episode.abort.load(std::memory_order_relaxed)) return;
    if (try_get_task(episode, worker, &task, &rng, stats)) {
      idle_timeouts = 0;
      if (armed && episode.cancel->cancel_requested()) episode.cancel->check();
      run_one_task(episode, worker, task, stats);
      continue;
    }
    if (episode.done.load(std::memory_order_acquire) ||
        episode.outstanding.load(std::memory_order_acquire) == 0) {
      return;
    }
    if (num_threads_ == 1) {
      // Single worker: nothing runnable and nobody to produce more — the
      // graph is broken. Detected immediately instead of via the timeout.
      throw InternalError(kStallMessage);
    }

    // Park protocol. Snapshot the wake epoch, announce the park, then
    // re-scan once: a spawner either sees parked_ > 0 (and bumps the epoch,
    // failing our wait predicate) or pushed before our announcement (and the
    // re-scan finds the task). See TaskContext::spawn for the pairing.
    std::uint64_t seen = 0;
    {
      std::lock_guard lock(park_mutex_);
      seen = wake_epoch_;
    }
    parked_.fetch_add(1, std::memory_order_seq_cst);
    ++stats.parks;
    if (try_get_task(episode, worker, &task, &rng, stats)) {
      parked_.fetch_sub(1, std::memory_order_relaxed);
      idle_timeouts = 0;
      if (armed && episode.cancel->cancel_requested()) episode.cancel->check();
      run_one_task(episode, worker, task, stats);
      continue;
    }
    {
      std::unique_lock lock(park_mutex_);
      while (wake_epoch_ == seen &&
             !episode.done.load(std::memory_order_relaxed) &&
             !episode.abort.load(std::memory_order_relaxed)) {
        if (park_cv_.wait_for(lock, kParkPoll) == std::cv_status::timeout) {
          ++idle_timeouts;
          if (idle_timeouts >= kStallTimeouts &&
              parked_.load(std::memory_order_relaxed) == num_threads_ &&
              episode.outstanding.load(std::memory_order_relaxed) > 0) {
            parked_.fetch_sub(1, std::memory_order_relaxed);
            throw InternalError(kStallMessage);
          }
          break;  // backstop poll: drop out and re-scan for work
        }
      }
    }
    parked_.fetch_sub(1, std::memory_order_relaxed);
  }
}

void WorkStealingPool::run_tasks(std::span<const std::uint32_t> roots,
                                 std::size_t task_bound, const TaskBody& body,
                                 const CancellationToken& cancel) {
  PCMAX_REQUIRE(tl_pool == nullptr,
                "run_tasks cannot be nested inside a pool worker");
  if (roots.empty()) return;
  PCMAX_REQUIRE(task_bound >= 1, "task bound must cover the root ids");
  for (const std::uint32_t root : roots) {
    PCMAX_REQUIRE(root < task_bound, "root task id out of range");
  }

  const obs::ScopedTimer region_timer(obs::Timer::kPoolRegion);
  if (obs::Metrics* metrics = obs::current()) {
    metrics->add(0, obs::Counter::kPoolRegions);
  }

  Episode episode;
  episode.kind = Episode::Kind::kTasks;
  episode.roots = roots;
  episode.task_body = &body;
  episode.task_bound = task_bound;
  episode.outstanding.store(static_cast<std::int64_t>(roots.size()),
                            std::memory_order_relaxed);
  episode.cancel = cancel.valid() ? &cancel : nullptr;
  run_episode(episode);
}

}  // namespace pcmax
