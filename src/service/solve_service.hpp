// Sharded, asynchronous batch solve service: admission-controlled,
// deduplicating, degradation-aware, overload-hardened front end over the
// solver stack.
//
// One-instance-at-a-time Solver::solve() makes every caller pay full PTAS
// cost, even for a request someone else just solved, and gives concurrent
// callers nothing to share. SolveService turns the library into a serving
// tier. Since PR 9 that tier is SHARDED and FULLY ASYNCHRONOUS:
//
//  * every request is CANONICALIZED and FINGERPRINTED at submission
//    (core/fingerprint): permuted duplicates share one 128-bit key, and
//    shard_index(key, N) ROUTES the request to one of N SHARDS. A shard is
//    plain state the service owns: a result-cache slice, a coalescing map,
//    a circuit breaker and counters — there is no cross-shard lock on the
//    serving path. Duplicates always land on one shard, so per-shard
//    caches and coalescing maps lose no matches, and responses stay
//    byte-identical to the 1-shard service
//    (tests/service_shard_equivalence_test.cpp);
//  * a routed request first probes its shard's cache slice ON THE CALLER'S
//    THREAD: a hit is lifted and answered there, so it never queues, never
//    takes a tenant-quota slot and never wakes a worker, and its future is
//    resolved (its then() continuations run on the caller) before
//    submit_async returns;
//  * every miss joins ONE bounded queue, and `workers` threads serve every
//    shard from it: whichever worker is idle takes the next request
//    (Graham's list scheduling), so a request never waits for one shard's
//    worker while another worker is idle. The worker probes the cache
//    again at dispatch, so a duplicate queued behind its leader is a hit;
//  * submit_async returns a SolveFuture (service/solve_future.hpp):
//    value-or-structured-shed, then() continuations that run exactly once,
//    and deadline-aware get_within_ms that answers "shed:deadline" instead
//    of hanging;
//  * within a shard the PR 7 pipeline is unchanged: an LRU RESULT CACHE
//    short-circuits fingerprint duplicates (hits lift the cached canonical
//    schedule through the request's own sort permutation — a response is a
//    pure function of machines + job multiset + epsilon); CONCURRENT
//    DUPLICATES COALESCE behind one leader; the ADMISSION layer degrades
//    per request (full -> lite -> heuristic -> structured shed) from a
//    pressure signal over the queue depth, deadline headroom and breaker
//    state; a CIRCUIT BREAKER per shard skips a rung that keeps failing;
//    PER-TENANT WEIGHTED QUOTAS are enforced at submission;
//  * each worker owns one executor of `lane_width` threads for its
//    solves' parallel regions: per-request parallelism is capped at the
//    lane width, total solver parallelism at workers * lane_width, and no
//    threads are spawned per request.
//
// Worker-thread errors: resource-shaped ones degrade (and if even the
// degraded rung trips, the request is shed with provenance, never dropped);
// typed pcmax errors (InvalidArgumentError, InternalError) are delivered
// through the request's future — the service never converts bugs into
// results; UNKNOWN exceptions become a structured internal-error response
// (counter service.internal_errors, note "internal_error") so one buggy
// solver path cannot silently kill a worker or hang a future.
//
// Results that DEGRADED are never cached: a cache must only ever serve the
// full-fidelity answer for a key. Fault sites "service.shard.dispatch"
// (routing), "service.request", "service.cache", "breaker.allow",
// "service.coalesce" (a follower parking) and "service.future" (delivery)
// let tests trip or observe any path deterministically;
// the chaos harness (ChaosInjector) storms all of them.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/breaker.hpp"
#include "core/fingerprint.hpp"
#include "parallel/bounded_queue.hpp"
#include "parallel/executor.hpp"
#include "service/result_cache.hpp"
#include "service/service_types.hpp"
#include "service/solve_future.hpp"
#include "util/deadline.hpp"

namespace pcmax {

class SolveService {
 public:
  explicit SolveService(ServiceOptions options = {});

  /// Closes admission, drains every queued request (all futures resolve),
  /// and joins the workers.
  ~SolveService();

  SolveService(const SolveService&) = delete;
  SolveService& operator=(const SolveService&) = delete;

  /// Submits one request and returns its SolveFuture. Routing (canonical
  /// form, fingerprint, shard) and the cache probe happen here, on the
  /// caller's thread: a cache hit is resolved before this returns, so a
  /// then() attached to it runs on the caller, and it is never shed. A miss
  /// queues: under the static policy, this blocks while the queue is full
  /// (backpressure); under the tiered policy, the future resolves
  /// immediately with a structured shed response instead. Tenant-quota
  /// rejects resolve the same way under either policy. Throws Error once
  /// the service is shutting down.
  [[nodiscard]] SolveFuture submit_async(SolveRequest request);

  /// Incremental fast path: submits a request whose canonical form (and
  /// therefore fingerprint) the caller already holds, skipping the
  /// per-request sort + rehash that submit_async pays. IncrementalSession
  /// (service/incremental.hpp) maintains the canonical form across
  /// add/remove-job deltas and re-solves through this entry point. The
  /// canonical form must describe `request.instance` (cheap invariants are
  /// checked; the multiset equality is the caller's contract — a lying
  /// canonical form would poison the cache for its fingerprint).
  [[nodiscard]] SolveFuture submit_prepared(SolveRequest request,
                                            CanonicalInstance canonical);

  /// Submits a whole batch and waits for every response. Responses are
  /// returned in request order. Exceptions from individual requests
  /// propagate when their response is collected.
  std::vector<SolveResponse> solve_batch(std::vector<SolveRequest> requests);

  /// Summed over every shard, with the per-shard breakdown in `.shards`;
  /// queue_high_watermark is the service queue's own.
  [[nodiscard]] ServiceStats stats() const;
  [[nodiscard]] const ServiceOptions& options() const { return options_; }
  /// Shard 0's breaker (with the default shards = 1, THE breaker) — for
  /// tests and reports.
  [[nodiscard]] const CircuitBreaker& breaker() const {
    return shards_[0]->breaker;
  }
  /// Shard `index`'s breaker.
  [[nodiscard]] const CircuitBreaker& breaker(std::size_t index) const {
    return shards_[index]->breaker;
  }
  /// Number of shards actually running.
  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }
  /// The shard submit_async would route this fingerprint to.
  [[nodiscard]] std::size_t shard_of(const Fingerprint& key) const {
    return shard_index(key, shards_.size());
  }

 private:
  /// One queued request. Built at submission: the canonical twin, request
  /// fingerprint, and effective epsilon are computed ONCE there (they are
  /// needed for routing anyway), so workers never re-canonicalize.
  struct Pending {
    explicit Pending(SolveRequest r) : request(std::move(r)) {}

    SolveRequest request;
    SolvePromise promise;
    std::uint64_t id = 0;
    std::uint64_t enqueue_ns = 0;
    CancellationToken token;  ///< request cancel + admission-time deadline
    Deadline deadline;        ///< the admission-time deadline itself
    double epsilon = 0.0;     ///< effective epsilon (request or default)
    /// Canonical twin (not default-constructible, hence optional; always
    /// engaged once submitted).
    std::optional<CanonicalInstance> canonical;
    Fingerprint key;          ///< request fingerprint (routing + dedup)
    int shard = 0;            ///< destination shard index
    /// The cache note when the submit-side lookup faulted: the request then
    /// skips the cache, its worker re-probe included. Empty otherwise.
    std::string lookup_bypass;
  };

  /// The solver rung a request is admitted to.
  enum class Tier { kFull, kLite, kHeuristic };

  /// Followers parked behind one in-flight full-fidelity solve.
  struct Inflight {
    std::vector<Pending> followers;
  };

  /// One shard's state, for a slice of the fingerprint space. A fingerprint
  /// only ever reaches one shard, so the cache slices partition the key
  /// space and the coalescing maps lose no matches.
  struct Shard {
    Shard(std::size_t cache_capacity, const BreakerOptions& breaker_options);

    std::unique_ptr<ResultCache> cache;  ///< null when caching is disabled
    CircuitBreaker breaker;  ///< over this shard's full-fidelity traffic

    std::mutex inflight_mutex;
    std::unordered_map<Fingerprint, Inflight, FingerprintHasher> inflight;

    std::atomic<std::uint64_t> requests{0};
    std::atomic<std::uint64_t> degraded{0};
    std::atomic<std::uint64_t> shed_quota{0};
    std::atomic<std::uint64_t> shed_overload{0};
    std::atomic<std::uint64_t> coalesced{0};
    std::atomic<std::uint64_t> internal_errors{0};
  };

  /// Returns a capped tenant's queue slot (no-op for uncapped tenants).
  /// Workers call it at pop.
  void release_tenant_slot(const std::string& tenant);
  /// One worker: owns an executor of `lane_width` threads, pops requests
  /// until the queue is closed and drained, and processes each.
  void worker_loop();
  [[nodiscard]] double effective_epsilon(const SolveRequest& request) const;
  /// Shared submission head: id, deadline/token, effective epsilon.
  [[nodiscard]] Pending make_pending(SolveRequest request);
  /// Shared submission tail: fingerprint, shard routing, cache probe (a hit
  /// resolves here), quota, enqueue. `pending.canonical` must already be
  /// set.
  [[nodiscard]] SolveFuture route_and_enqueue(Pending pending);

  /// The cache probe of the request's shard: on a hit, the cached result
  /// lifted through the request's own sort permutation and validated; nullopt
  /// on a miss or with no cache. `at_submit` marks the caller-thread probe:
  /// it alone hits fault site "service.cache" (a fault sets
  /// `pending.lookup_bypass`), and it counts only a hit, leaving the miss to
  /// the worker's re-probe.
  [[nodiscard]] std::optional<SolveResponse> probe_cache(Pending& pending,
                                                         bool at_submit);

  // The serving pipeline, run on a worker for one popped request against
  // the state of its shard (`pending.shard`).

  /// Serves one popped request on the calling worker's `executor` and
  /// resolves its promise, unless it parks as a coalescing follower (its
  /// leader then delivers it, or re-dispatches it on the leader's
  /// executor).
  void process(Pending pending, Executor& executor);
  /// The full pipeline: cache re-probe, admission decision, solve, cache
  /// store, coalesced delivery. Returns nullopt when the request was parked
  /// as a coalescing follower (the leader will resolve its promise). May
  /// throw ResourceLimitError from a fault site.
  [[nodiscard]] std::optional<SolveResponse> handle(Pending& pending,
                                                    Executor& executor);
  /// The degraded path: MULTIFIT/LPT + polish, never the PTAS, no caching.
  [[nodiscard]] SolveResponse cheap_solve(Pending& pending,
                                          const std::string& reason,
                                          Executor& executor);
  /// Runs the tier's solver on `executor` — always on the CANONICAL
  /// twin, lifting the schedule back through the request's permutation, so
  /// the response is a pure function of (machines, job multiset, epsilon).
  /// `forced_reason` non-empty means the admission layer picked a degraded
  /// tier and names why.
  [[nodiscard]] SolveResponse run_solver(Pending& pending, Tier tier,
                                         const std::string& forced_reason,
                                         Executor& executor);
  /// Hands the leader's canonical-space result to every parked follower
  /// (or re-dispatches them on `executor` when there is no shareable
  /// result).
  void conclude_leadership(Shard& shard, const Fingerprint& key,
                           const CanonicalInstance& canonical,
                           const SolveResponse* response, Executor& executor);
  /// Stamps ids/shard/timing, bumps counters/metrics, resolves the promise.
  /// Front-end rejects (quota, queue-full, dispatch fault) come through
  /// here too, charged to the shard they were routed to.
  void finish(Pending& pending, SolveResponse response,
              std::uint64_t dispatch_ns);
  /// A structured reject (no schedule). `overload` selects which shed
  /// counter of the request's shard is charged (overload vs tenant quota).
  [[nodiscard]] SolveResponse make_shed_response(const Pending& pending,
                                                 const std::string& reason,
                                                 bool overload);
  /// An unknown worker exception turned into a structured response
  /// (counter service.internal_errors, note "internal_error").
  [[nodiscard]] SolveResponse internal_error_response(const Pending& pending,
                                                      const std::string& what);
  /// The shard a routed request belongs to.
  [[nodiscard]] Shard& shard_for(const Pending& pending) {
    return *shards_[static_cast<std::size_t>(pending.shard)];
  }
  [[nodiscard]] const char* solver_key() const {
    return options_.mode == ServiceMode::kPortfolio ? "portfolio" : "ptas";
  }

  ServiceOptions options_;
  std::unique_ptr<BoundedQueue<Pending>> queue_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::thread> workers_;

  std::mutex tenant_mutex_;
  std::map<std::string, std::size_t> tenant_queued_;
  std::map<std::string, std::size_t> tenant_caps_;  // immutable after ctor

  std::atomic<std::uint64_t> next_id_{0};
  std::atomic<bool> shutting_down_{false};
};

}  // namespace pcmax
