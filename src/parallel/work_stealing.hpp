// The work-stealing worker pool: the one threaded substrate of pcmax.
//
// The pool runs the two parallel constructs of the paper's Algorithm 3 and
// of the library around it:
//
//  * parallel_for_1d — atomic range-split items: every worker owns a
//    {remaining, range_end} pair; the owner and thieves decrement the same
//    `remaining` counter, so an idle worker drains slices of a loaded
//    worker's range the moment its own is done. No shared global counter,
//    no per-iteration synchronisation.
//  * run_team — one member per worker for a whole SPMD region, all at the
//    same time; the parallel DP level sweep runs each fill as one team.
//
// Workers block on a condition variable between episodes. The calling
// thread participates as worker 0, so a pool built for P-way parallelism
// spawns P-1 OS threads and never oversubscribes; a pool of size 1 runs
// every episode on the caller alone.
//
// Observability: slices taken from another worker's shard count into
// obs::Counter::kPoolSteals and hit the deterministic fault-injection site
// "pool.steal"; every time a worker blocks waiting for the next episode
// counts into kPoolParks.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "util/deadline.hpp"

namespace pcmax {

/// Persistent work-stealing pool. All entry points block until the episode
/// completes and rethrow the first exception a body threw, after the
/// episode joins. Concurrent calls from different external threads are
/// serialised (episodes run one at a time). Entry points called from inside
/// a pool worker (nested parallelism) execute inline on the calling worker.
class WorkStealingPool {
 public:
  /// Body of a range episode: receives the half-open iteration range this
  /// call must process and the executing worker id in [0, size()).
  using RangeBody = std::function<void(std::size_t begin, std::size_t end,
                                       unsigned worker)>;

  /// Body of a team episode: runs once per member with its id.
  using TeamBody = std::function<void(unsigned worker)>;

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
  ///
  /// A valid, cancelled `cancel` stops the claims: the episode joins
  /// cleanly and rethrows the token's typed error. The token is polled
  /// before every slice; a slice's interior is the body's own concern.
  void parallel_for_1d(std::size_t n, const RangeBody& body, std::size_t chunk = 0,
                       const CancellationToken& cancel = {});

  /// Team episode: `body(w)` runs exactly once for each w in
  /// [0, team_size()), each on its own thread and all at the same time, so
  /// members may synchronise among themselves (e.g. at a Barrier). Members
  /// never touch the range shards: a member that claimed a second slot
  /// would run twice while a peer waited for it at a barrier. A cancelled
  /// `cancel` throws before any member starts; a started team runs to
  /// completion (the body polls the token itself). A nested call from
  /// inside a worker body of any WorkStealingPool runs `body(0)` inline.
  void run_team(const TeamBody& body, const CancellationToken& cancel = {});

  /// Members run_team would start from the calling thread: size(), or 1
  /// from inside a WorkStealingPool worker body.
  [[nodiscard]] unsigned team_size() const;

 private:
  struct Episode;       // one fork-join episode (range or team)
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

  const unsigned num_threads_;
  std::vector<std::thread> threads_;

  // Episode dispatch, with every notify issued under the lock so the
  // destructor's quiescence wait is a full barrier — the drain-before-join
  // ordering.
  std::mutex mutex_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  std::condition_variable idle_cv_;
  std::size_t epoch_ = 0;
  Episode* episode_ = nullptr;
  unsigned still_running_ = 0;
  bool shutting_down_ = false;
};

}  // namespace pcmax
