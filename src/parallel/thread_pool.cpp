#include "parallel/thread_pool.hpp"

#include <algorithm>
#include <exception>

#include "obs/metrics.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"

namespace pcmax {

namespace {

/// The pool whose region the current thread is executing, for nested-team
/// detection (run_team from inside a body runs inline).
thread_local const ThreadPool* tl_pool = nullptr;

}  // namespace

const char* loop_schedule_name(LoopSchedule schedule) {
  switch (schedule) {
    case LoopSchedule::kStatic: return "static";
    case LoopSchedule::kRoundRobin: return "round-robin";
    case LoopSchedule::kDynamic: return "dynamic";
  }
  throw InvalidArgumentError("unknown loop schedule");
}

/// Descriptor of one fork-join episode, shared read-only by workers except
/// for the dynamic-claim cursor and the first captured exception.
struct ThreadPool::Region {
  std::size_t n = 0;
  const RangeBody* body = nullptr;
  const TeamBody* team = nullptr;  // set for team episodes (body unused)
  LoopSchedule schedule = LoopSchedule::kStatic;
  std::size_t chunk = 1;
  const CancellationToken* cancel = nullptr;  // non-owning; outlives the region
  mutable std::atomic<std::size_t> next{0};  // kDynamic claim cursor
  mutable std::mutex error_mutex;
  mutable std::exception_ptr error;

  /// Flag-only cancellation probe before a dispatch; throws the token's
  /// typed error (inside the worker's try block, so it is captured and
  /// rethrown by run()). One relaxed load when armed, one null check not.
  void throw_if_cancelled() const {
    if (cancel != nullptr && cancel->cancel_requested()) cancel->check();
  }

  void capture_exception() const {
    std::lock_guard lock(error_mutex);
    if (!error) error = std::current_exception();
  }
};

ThreadPool::ThreadPool(unsigned num_threads) : num_threads_(num_threads) {
  PCMAX_REQUIRE(num_threads >= 1, "thread pool needs at least one thread");
  threads_.reserve(num_threads - 1);
  for (unsigned w = 1; w < num_threads; ++w) {
    threads_.emplace_back([this, w] { worker_loop(w); });
  }
}

ThreadPool::~ThreadPool() {
  {
    // Drain before join: wait for any in-flight region's bookkeeping to
    // fully retire before flipping the shutdown flag, and notify while
    // still holding the lock. Without the wait, a destructor racing the
    // tail of run() (on another thread) could tear down the condition
    // variables while that thread was still signalling them.
    std::unique_lock lock(mutex_);
    idle_cv_.wait(lock, [&] { return region_ == nullptr; });
    shutting_down_ = true;
    start_cv_.notify_all();
  }
  for (auto& t : threads_) t.join();
}

unsigned ThreadPool::hardware_threads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

void ThreadPool::worker_loop(unsigned worker) {
  std::size_t seen_epoch = 0;
  for (;;) {
    const Region* region = nullptr;
    {
      std::unique_lock lock(mutex_);
      start_cv_.wait(lock, [&] { return shutting_down_ || epoch_ != seen_epoch; });
      if (shutting_down_) return;
      seen_epoch = epoch_;
      region = region_;
    }
    work_on(*region, worker);
    {
      std::lock_guard lock(mutex_);
      if (--still_running_ == 0) done_cv_.notify_all();
    }
  }
}

void ThreadPool::work_on(const Region& region, unsigned worker) {
  // Accumulated locally and flushed once per episode so the instrumented
  // loop stays free of shared writes.
  std::uint64_t tasks = 0;
  std::uint64_t iterations = 0;
  std::uint64_t claims = 0;
  const ThreadPool* previous_pool = tl_pool;
  tl_pool = this;
  try {
    const std::size_t n = region.n;
    const unsigned P = num_threads_;
    switch (region.schedule) {
      case LoopSchedule::kStatic: {
        const std::size_t begin = n * worker / P;
        const std::size_t end = n * (worker + 1) / P;
        if (begin < end) {
          region.throw_if_cancelled();
          fault_hit("pool.task");
          ++tasks;
          iterations += end - begin;
          (*region.body)(begin, end, worker);
        }
        break;
      }
      case LoopSchedule::kRoundRobin: {
        // Strided singleton ranges: iteration i goes to worker i mod P,
        // mirroring the paper's round-robin "parallel for" semantics. A team
        // episode is this loop at n = P without the dispatch probes: every
        // worker runs its own id exactly once (see run_team).
        for (std::size_t i = worker; i < n; i += P) {
          if (region.team != nullptr) {
            ++tasks;
            ++iterations;
            (*region.team)(worker);
            continue;
          }
          region.throw_if_cancelled();
          fault_hit("pool.task");
          ++tasks;
          ++iterations;
          (*region.body)(i, i + 1, worker);
        }
        break;
      }
      case LoopSchedule::kDynamic: {
        const std::size_t chunk = std::max<std::size_t>(1, region.chunk);
        for (;;) {
          region.throw_if_cancelled();
          const std::size_t begin =
              region.next.fetch_add(chunk, std::memory_order_relaxed);
          if (begin >= n) break;
          fault_hit("pool.task");
          const std::size_t end = std::min(begin + chunk, n);
          ++tasks;
          ++claims;
          iterations += end - begin;
          (*region.body)(begin, end, worker);
        }
        break;
      }
    }
  } catch (...) {
    // The counts up to the throw point still flush below: an aborted
    // iteration was claimed but its tail never ran.
    region.capture_exception();
  }
  tl_pool = previous_pool;
  if (obs::Metrics* metrics = obs::current()) {
    metrics->add(worker, obs::Counter::kPoolTasks, tasks);
    metrics->add(worker, obs::Counter::kPoolIterations, iterations);
    if (claims > 0) metrics->add(worker, obs::Counter::kPoolDynamicClaims, claims);
  }
}

void ThreadPool::run(std::size_t n, const RangeBody& body, LoopSchedule schedule,
                     std::size_t chunk, const CancellationToken& cancel) {
  PCMAX_REQUIRE(chunk >= 1, "dynamic chunk must be at least 1");
  if (n == 0) return;
  Region region;
  region.n = n;
  region.body = &body;
  region.schedule = schedule;
  region.chunk = chunk;
  region.cancel = cancel.valid() ? &cancel : nullptr;
  run_region(region);
}

unsigned ThreadPool::team_size() const {
  return tl_pool != nullptr ? 1 : num_threads_;
}

void ThreadPool::run_team(const TeamBody& body, const CancellationToken& cancel) {
  if (cancel.valid() && cancel.cancel_requested()) cancel.check();
  if (tl_pool != nullptr) {
    body(0);
    return;
  }
  Region region;
  region.n = num_threads_;
  region.team = &body;
  region.schedule = LoopSchedule::kRoundRobin;
  run_region(region);
}

void ThreadPool::run_region(Region& region) {
  const obs::ScopedTimer region_timer(obs::Timer::kPoolRegion);
  if (obs::Metrics* metrics = obs::current()) {
    metrics->add(0, obs::Counter::kPoolRegions);
  }

  if (num_threads_ == 1) {
    work_on(region, 0);
    if (region.error) std::rethrow_exception(region.error);
    return;
  }

  {
    std::unique_lock lock(mutex_);
    // Concurrent external callers are serialised: wait until the pool is
    // idle before installing the next region. (Calling run() from *inside*
    // a worker body would self-deadlock here and is not supported.)
    idle_cv_.wait(lock, [&] { return region_ == nullptr; });
    region_ = &region;
    still_running_ = num_threads_ - 1;
    ++epoch_;
    start_cv_.notify_all();  // under the lock: drain-before-join discipline
  }

  work_on(region, 0);  // the caller is worker 0

  {
    std::unique_lock lock(mutex_);
    done_cv_.wait(lock, [&] { return still_running_ == 0; });
    region_ = nullptr;
    // notify_all (not _one) under the lock: both a waiting run() caller and
    // a destructor waiting for quiescence may be parked on idle_cv_.
    idle_cv_.notify_all();
  }
  if (region.error) std::rethrow_exception(region.error);
}

}  // namespace pcmax
