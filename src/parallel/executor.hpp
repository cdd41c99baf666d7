// Executor: the abstraction algorithms program against for parallelism.
//
// Two shapes of parallel work: `parallel_for_ranges` splits an iteration
// range among the workers, and `run_team` starts one member per worker for
// a whole SPMD region (the parallel PTAS runs each DP fill as one team that
// sweeps every anti-diagonal, meeting at a barrier between levels). The
// concrete executor decides how (and whether) work runs concurrently:
//
//  * SequentialExecutor   — inline execution; used by the sequential PTAS
//    and as the P=1 baseline of all speedup experiments.
//  * WorkStealingExecutor — the work-stealing pool (src/parallel/
//    work_stealing): per-worker atomic range shards with slice stealing,
//    and team episodes.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <string>

#include "parallel/work_stealing.hpp"

namespace pcmax {

/// Hardware concurrency clamped to at least 1.
unsigned hardware_threads();

/// Interface for running data-parallel ranges and teams.
class Executor {
 public:
  virtual ~Executor() = default;

  /// Degree of parallelism this executor targets (>= 1).
  [[nodiscard]] virtual unsigned concurrency() const = 0;

  /// Short backend name for reports ("sequential", "workstealing").
  [[nodiscard]] virtual std::string name() const = 0;

  /// Runs `body(begin, end, worker)` over [0, n), blocking until complete.
  /// Workers are numbered [0, concurrency()). `chunk` is the claim size of
  /// the slices the workers take; 0 picks an automatic chunk (about 8
  /// claims per worker), 1 deals single iterations.
  ///
  /// A valid, cancelled `cancel` token makes the executor stop dispatching
  /// remaining ranges, join cleanly, and rethrow the token's typed error
  /// (DeadlineExceededError / CancelledError). The default-constructed token
  /// disables the checks. The default arguments live on the base declaration
  /// only; call through `Executor` when relying on them.
  virtual void parallel_for_ranges(std::size_t n,
                                   const WorkStealingPool::RangeBody& body,
                                   std::size_t chunk = 0,
                                   const CancellationToken& cancel = {}) = 0;

  /// Convenience: runs `fn(i)` for each i in [0, n) with the automatic chunk.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn,
                    const CancellationToken& cancel = {});

  /// Members run_team starts when called from this thread: concurrency(),
  /// or 1 where a call would nest inside one of the executor's own workers.
  /// Size a team's shared state (e.g. its Barrier) by this value.
  [[nodiscard]] virtual unsigned team_size() const { return concurrency(); }

  /// Team episode: runs `body(w)` exactly once for each w in [0, team_size()),
  /// each on its own thread and all at the same time, as one region
  /// (one `pool.regions`). Members may therefore wait for each other. A
  /// valid, cancelled `cancel` throws its typed error before any member
  /// starts; once started, every member runs to completion, because a member
  /// that was skipped would strand its peers at their next barrier — the
  /// body polls the token itself and must not leave a barrier protocol
  /// half-way. The first exception a member throws is rethrown after all
  /// members have returned. The default argument lives on the base
  /// declaration only.
  virtual void run_team(const WorkStealingPool::TeamBody& body,
                        const CancellationToken& cancel = {}) = 0;
};

/// Inline, single-threaded executor.
class SequentialExecutor final : public Executor {
 public:
  [[nodiscard]] unsigned concurrency() const override { return 1; }
  [[nodiscard]] std::string name() const override { return "sequential"; }
  void parallel_for_ranges(std::size_t n, const WorkStealingPool::RangeBody& body,
                           std::size_t chunk,
                           const CancellationToken& cancel) override;
  /// A team of one: `body(0)` on the caller, no region.
  void run_team(const WorkStealingPool::TeamBody& body,
                const CancellationToken& cancel) override;
};

/// Executor backed by its own work-stealing pool: idle workers steal
/// remaining slices from loaded peers at every claim size.
class WorkStealingExecutor final : public Executor {
 public:
  /// Creates the executor with its own pool of `num_threads` workers.
  explicit WorkStealingExecutor(unsigned num_threads);

  [[nodiscard]] unsigned concurrency() const override { return pool_.size(); }
  [[nodiscard]] std::string name() const override { return "workstealing"; }
  void parallel_for_ranges(std::size_t n, const WorkStealingPool::RangeBody& body,
                           std::size_t chunk,
                           const CancellationToken& cancel) override {
    pool_.parallel_for_1d(n, body, chunk, cancel);
  }
  [[nodiscard]] unsigned team_size() const override { return pool_.team_size(); }
  void run_team(const WorkStealingPool::TeamBody& body,
                const CancellationToken& cancel) override {
    pool_.run_team(body, cancel);
  }

 private:
  WorkStealingPool pool_;
};

/// Creates an executor by backend name: "sequential" (one thread only) or
/// "workstealing". Throws InvalidArgumentError for any other name, naming
/// the two.
std::unique_ptr<Executor> make_executor(const std::string& backend,
                                        unsigned num_threads);

}  // namespace pcmax
