// A work-stealing worker pool in the pthreadpool mould.
//
// The ThreadPool in thread_pool.hpp distributes a parallel range with a
// shared claim counter: cheap, but every claim is a contended fetch_add and
// an idle worker has no way to help a loaded one beyond the granularity of
// that counter. This pool replaces the shared counter with the two classic
// work-distribution structures:
//
//  * parallel_for_1d/2d — atomic range-split items: every worker owns a
//    {remaining, range_end} pair; the owner and thieves decrement the same
//    `remaining` counter, so an idle worker drains slices of a loaded
//    worker's range the moment its own is done. No shared global counter,
//    no per-iteration synchronisation.
//  * run_tasks — a dependency-driven task graph: each worker owns a fixed
//    Chase-Lev deque (LIFO for the owner, FIFO for thieves) and steals from
//    a random victim when its own deque, the shared root list, and the
//    overflow slot are all empty. Tasks spawn successors from their body;
//    the episode ends when every spawned task has retired. This is the
//    substrate of the barrier-free DP level sweep (DpSyncMode::kCounters).
//  * run_team — one member per worker for a whole SPMD region, all at the
//    same time; the barrier DP level sweep runs each fill as one team.
//
// Idle workers park on a condition variable (the portable equivalent of a
// futex wait) and are unparked by the first spawn that observes a parked
// peer — a worker burns no CPU while the graph has no ready work. The
// calling thread participates as worker 0, so a pool built for P-way
// parallelism spawns P-1 OS threads, exactly like ThreadPool.
//
// Observability: successful steals count into obs::Counter::kPoolSteals and
// hit the deterministic fault-injection site "pool.steal"; parks count into
// kPoolParks. Cancellation, error propagation, and the caller-is-worker-0
// convention all match ThreadPool so WorkStealingExecutor is a drop-in
// Executor backend.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "parallel/thread_pool.hpp"
#include "util/deadline.hpp"

namespace pcmax {

/// Fixed-capacity Chase-Lev deque of 32-bit task ids. The owner pushes and
/// pops at the bottom (LIFO); thieves steal from the top (FIFO) with a CAS.
/// Memory orderings follow the C11 formulation of Le et al., "Correct and
/// Efficient Work-Stealing for Weak Memory Models" (PPoPP'13); the buffer
/// never grows — callers size it to the episode's task bound up front.
class ChaseLevDeque {
 public:
  /// Capacity is rounded up to a power of two (>= 1).
  explicit ChaseLevDeque(std::size_t capacity = 64);

  ChaseLevDeque(const ChaseLevDeque&) = delete;
  ChaseLevDeque& operator=(const ChaseLevDeque&) = delete;

  /// Re-empties the deque and grows it to hold `capacity` items. Only safe
  /// while no other thread touches the deque (between episodes).
  void reset(std::size_t capacity);

  /// Owner-only: pushes at the bottom. Returns false when full (the caller
  /// falls back to the episode overflow list; with reset() sized to the
  /// task bound this never happens).
  bool push(std::uint32_t value);

  /// Owner-only: pops the most recently pushed item. False when empty.
  bool pop(std::uint32_t* out);

  /// Any thread: steals the oldest item. False when empty or when the CAS
  /// lost a race with the owner or another thief (the caller just moves on
  /// to the next victim).
  bool steal(std::uint32_t* out);

  [[nodiscard]] std::size_t capacity() const { return mask_ + 1; }

 private:
  std::vector<std::atomic<std::uint32_t>> slots_;
  std::size_t mask_ = 0;
  alignas(64) std::atomic<std::int64_t> top_{0};
  alignas(64) std::atomic<std::int64_t> bottom_{0};
};

/// Persistent work-stealing pool. All entry points block until the episode
/// completes and rethrow the first exception a body threw (after the episode
/// joins, like ThreadPool::run). Entry points called from inside a pool
/// worker (nested parallelism) execute inline on the calling worker.
class WorkStealingPool {
 public:
  /// Body of a range episode — identical contract to ThreadPool::RangeBody.
  using RangeBody = ThreadPool::RangeBody;

  /// Body of a team episode — identical contract to ThreadPool::TeamBody.
  using TeamBody = ThreadPool::TeamBody;

  /// Body of a 2-d tile: receives the half-open row/column ranges of one
  /// tile and the executing worker id.
  using TileBody = std::function<void(std::size_t row_begin, std::size_t row_end,
                                      std::size_t col_begin, std::size_t col_end,
                                      unsigned worker)>;

  /// Handle a task body uses to spawn successor tasks into the running
  /// episode. Valid only for the duration of the body call.
  class TaskContext {
   public:
    /// Id of the worker executing the current task.
    [[nodiscard]] unsigned worker() const { return worker_; }

    /// Makes `task` runnable. A task id must be spawned at most once per
    /// episode (the dependency counters of a task graph guarantee this);
    /// ids must be < the episode's task bound.
    void spawn(std::uint32_t task);

   private:
    friend class WorkStealingPool;
    TaskContext(WorkStealingPool* pool, unsigned worker)
        : pool_(pool), worker_(worker) {}

    WorkStealingPool* pool_;
    unsigned worker_;
  };

  /// Body of a task episode: runs one task and may spawn successors.
  using TaskBody = std::function<void(std::uint32_t task, TaskContext& context)>;

  /// Creates a pool with `num_threads` workers (>= 1); the constructing
  /// thread acts as worker 0 during episodes.
  explicit WorkStealingPool(unsigned num_threads);
  ~WorkStealingPool();

  WorkStealingPool(const WorkStealingPool&) = delete;
  WorkStealingPool& operator=(const WorkStealingPool&) = delete;

  /// Degree of parallelism (including the calling thread).
  [[nodiscard]] unsigned size() const { return num_threads_; }

  /// Runs `body` over [0, n): the range is pre-split into one contiguous
  /// shard per worker; workers claim `chunk`-sized slices off their own
  /// shard and steal slices from loaded peers once theirs is drained.
  /// chunk = 0 picks a granularity that amortises the claim cost (~8 claims
  /// per worker). Slices of one shard are delivered in ascending order.
  void parallel_for_1d(std::size_t n, const RangeBody& body, std::size_t chunk = 0,
                       const CancellationToken& cancel = {});

  /// Tiled 2-d range: runs `body` over the tile grid covering
  /// [0, rows) x [0, cols) with tiles of tile_rows x tile_cols, distributed
  /// through the same range-split machinery (tiles in row-major order).
  void parallel_for_2d(std::size_t rows, std::size_t cols, std::size_t tile_rows,
                       std::size_t tile_cols, const TileBody& body,
                       const CancellationToken& cancel = {});

  /// Dependency-driven episode: seeds the deques with `roots` and runs until
  /// every spawned task has retired. `task_bound` is an upper bound on the
  /// number of distinct task ids the episode can see (sizes the deques).
  /// The task graph must be acyclic with every non-root reachable from the
  /// roots via spawns; a stalled graph (outstanding tasks but nothing
  /// runnable) is detected and reported as InternalError.
  void run_tasks(std::span<const std::uint32_t> roots, std::size_t task_bound,
                 const TaskBody& body, const CancellationToken& cancel = {});

  /// Team episode with ThreadPool::run_team's contract: `body(w)` runs
  /// exactly once for each w in [0, team_size()), all members at the same
  /// time. Members never touch the range shards: a member that claimed a
  /// second slot would run twice while a peer waited for it at a barrier.
  /// A nested call from inside a worker body of any WorkStealingPool runs
  /// `body(0)` inline.
  void run_team(const TeamBody& body, const CancellationToken& cancel = {});

  /// Members run_team would start from the calling thread: size(), or 1
  /// from inside a WorkStealingPool worker body.
  [[nodiscard]] unsigned team_size() const;

  /// Hardware concurrency clamped to at least 1.
  static unsigned hardware_threads();

 private:
  struct Episode;       // one fork-join episode (range, task graph or team)
  struct LocalStats;    // per-worker metric accumulators

  /// Per-worker slice source of a range episode. Owner and thieves both
  /// fetch_sub `remaining`; a claim of `pre = remaining` units covers
  /// [range_end - pre, range_end - pre + take) — slices leave in ascending
  /// order, the owner from the front, thieves shrinking the same counter.
  struct alignas(64) RangeShard {
    std::atomic<std::int64_t> remaining{0};
    std::size_t range_end = 0;
  };

  void worker_loop(unsigned worker);
  void run_episode(Episode& episode);
  void execute(Episode& episode, unsigned worker);
  void work_range(Episode& episode, unsigned worker, LocalStats& stats);
  void work_tasks(Episode& episode, unsigned worker, LocalStats& stats);
  void run_one_task(Episode& episode, unsigned worker, std::uint32_t task,
                    LocalStats& stats);
  bool try_get_task(Episode& episode, unsigned worker, std::uint32_t* out,
                    std::uint64_t* rng, LocalStats& stats);
  void wake_one_parked();
  void signal_abort(Episode& episode) noexcept;

  const unsigned num_threads_;
  std::vector<std::thread> threads_;
  std::vector<std::unique_ptr<ChaseLevDeque>> deques_;

  // Episode dispatch (same protocol as ThreadPool, with every notify issued
  // under the lock so the destructor's quiescence wait is a full barrier —
  // the drain-before-join ordering).
  std::mutex mutex_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  std::condition_variable idle_cv_;
  std::size_t epoch_ = 0;
  Episode* episode_ = nullptr;
  unsigned still_running_ = 0;
  bool shutting_down_ = false;

  // Task-episode park/unpark state. parked_ is atomic so spawners can probe
  // it without the lock; wake_epoch_ only changes under park_mutex_, which
  // closes the classic lost-wakeup race (see work_tasks).
  std::mutex park_mutex_;
  std::condition_variable park_cv_;
  std::uint64_t wake_epoch_ = 0;
  std::atomic<unsigned> parked_{0};
  std::vector<std::uint32_t> overflow_;  // guarded by park_mutex_
  std::atomic<std::size_t> overflow_size_{0};
};

}  // namespace pcmax
