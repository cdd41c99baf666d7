// A persistent worker pool with fork-join range execution.
//
// The pool implements the "parallel for" construct of the paper's
// Algorithm 3: a range of iterations is divided among P threads either in
// contiguous blocks (static), in a strided round-robin pattern (the paper's
// described assignment), or dynamically via chunk stealing from a shared
// counter. The calling thread participates as worker 0, so a pool built for
// P-way parallelism spawns only P-1 OS threads and never oversubscribes.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "util/deadline.hpp"

namespace pcmax {

/// Iteration-to-thread assignment strategies for parallel ranges.
enum class LoopSchedule {
  /// Contiguous blocks: worker w gets [w*n/P, (w+1)*n/P).
  kStatic,
  /// Strided assignment: worker w gets w, w+P, w+2P, ... — the round-robin
  /// construct described in the paper (Section III).
  kRoundRobin,
  /// Workers repeatedly claim fixed-size chunks from a shared counter.
  kDynamic,
};

/// Stable lowercase name ("static", "round-robin", "dynamic") for reports
/// and metrics records.
const char* loop_schedule_name(LoopSchedule schedule);

/// Persistent fork-join thread pool.
///
/// All parallel regions are executed with `run`, which blocks until every
/// iteration of the region has completed (exceptions from the body propagate
/// to the caller; the first one thrown wins). A pool of size 1 degenerates
/// to inline execution with zero threading overhead, which keeps sequential
/// baselines honest.
class ThreadPool {
 public:
  /// Body of a parallel region: receives the half-open iteration range this
  /// call must process and the executing worker id in [0, size()).
  using RangeBody = std::function<void(std::size_t begin, std::size_t end,
                                       unsigned worker)>;

  /// Body of a team episode: runs once per member with its id.
  using TeamBody = std::function<void(unsigned worker)>;

  /// Creates a pool with `num_threads` workers (>= 1). The constructing
  /// thread acts as worker 0 during `run`.
  explicit ThreadPool(unsigned num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Degree of parallelism (including the calling thread).
  [[nodiscard]] unsigned size() const { return num_threads_; }

  /// Executes `body` over the range [0, n) using `schedule`, blocking until
  /// done. `chunk` is the claim granularity for kDynamic (>= 1) and ignored
  /// otherwise. Concurrent calls from different external threads are
  /// serialised (regions run one at a time); calling run from inside a body
  /// is not supported and would deadlock.
  ///
  /// When `cancel` is a valid token and is cancelled mid-region, workers
  /// stop dispatching their remaining ranges (checked before every body call
  /// for kRoundRobin/kDynamic, once per worker for kStatic — a static
  /// range's interior is the body's own responsibility), the region joins
  /// cleanly, and run rethrows the token's typed error. The pool stays
  /// usable afterwards.
  void run(std::size_t n, const RangeBody& body,
           LoopSchedule schedule = LoopSchedule::kStatic, std::size_t chunk = 1,
           const CancellationToken& cancel = {});

  /// Team episode: runs `body(w)` exactly once for each w in
  /// [0, team_size()), each on its own thread and all at the same time, so
  /// members may synchronise among themselves (e.g. at a Barrier). It is one
  /// region — run(size(), ..., kRoundRobin) with one iteration per worker —
  /// minus the per-dispatch cancel and fault probes, because a member that
  /// skipped its body would strand its peers at their next barrier. A
  /// cancelled `cancel` throws before any member starts; a started team
  /// runs to completion (the body polls the token itself). The first
  /// exception a member throws is rethrown after every member returned.
  /// Called from inside a worker body of any ThreadPool it runs `body(0)`
  /// inline, a team of one, instead of deadlocking.
  void run_team(const TeamBody& body, const CancellationToken& cancel = {});

  /// Members run_team would start from the calling thread: size(), or 1
  /// from inside a ThreadPool worker body.
  [[nodiscard]] unsigned team_size() const;

  /// Hardware concurrency clamped to at least 1.
  static unsigned hardware_threads();

 private:
  struct Region;  // one fork-join episode

  void worker_loop(unsigned worker);
  void run_region(Region& region);
  void work_on(const Region& region, unsigned worker);

  const unsigned num_threads_;
  std::vector<std::thread> threads_;

  std::mutex mutex_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  std::condition_variable idle_cv_;  // signalled when region_ returns to null
  std::size_t epoch_ = 0;       // bumped per region; workers wake on change
  const Region* region_ = nullptr;
  unsigned still_running_ = 0;  // workers that have not finished the region
  bool shutting_down_ = false;
};

}  // namespace pcmax
