// One shard of the sharded solve service: the serving pipeline's state for
// a slice of the fingerprint space.
//
// The front end (service/solve_service.hpp) canonicalizes and fingerprints
// every request at submission, routes it with core/fingerprint shard_index,
// and puts it on the service's one request queue; whichever service worker
// pops it calls its shard's process(). Each ServiceShard owns, privately and
// without cross-shard locks:
//
//  * a RESULT-CACHE slice (capacity = total / shards): a fingerprint only
//    ever probes one shard, so the slices partition the key space
//    exhaustively — aggregate hit behavior matches the unsharded cache;
//  * a COALESCING map: concurrent duplicates of a fingerprint always land
//    on the same shard, so per-shard maps lose no matches;
//  * a CIRCUIT BREAKER over its own full-fidelity traffic, and its
//    counters.
//
// The pipeline (admission tiers, cache probe, coalescing leadership, solver
// dispatch, breaker verdicts, structured sheds) is the PR 7 single-queue
// pipeline verbatim — a 1-shard service IS the PR 7 service, and
// tests/service_shard_equivalence_test.cpp holds N-shard responses
// byte-identical to it.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/breaker.hpp"
#include "core/fingerprint.hpp"
#include "parallel/executor.hpp"
#include "service/result_cache.hpp"
#include "service/service_types.hpp"
#include "service/solve_future.hpp"
#include "util/deadline.hpp"

namespace pcmax {

class ServiceShard {
 public:
  /// One queued request. Built by the front end at submission: the
  /// canonical twin, request fingerprint, and effective epsilon are
  /// computed ONCE there (they are needed for routing anyway), so workers
  /// never re-canonicalize.
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
  };

  /// `cache_capacity` is this shard's slice of the service-wide cache.
  /// `queue_depth` reads the service queue's current depth, the pressure
  /// signal of the admission decision.
  ServiceShard(int index, const ServiceOptions& options,
               std::size_t cache_capacity,
               std::function<std::size_t()> queue_depth);

  ServiceShard(const ServiceShard&) = delete;
  ServiceShard& operator=(const ServiceShard&) = delete;

  /// Serves one popped request on the calling worker's `executor` and
  /// resolves its promise, unless it parks as a coalescing follower (its
  /// leader then delivers it, or re-dispatches it on the leader's
  /// executor).
  void process(Pending pending, Executor& executor);

  /// Stamps ids/shard/timing, bumps counters/metrics, resolves the promise.
  /// Public so front-end rejects (quota, queue-full, dispatch fault) are
  /// charged to the shard they were routed to.
  void finish(Pending& pending, SolveResponse response,
              std::uint64_t dispatch_ns);
  /// A structured reject (no schedule). `overload` selects which shed
  /// counter is charged (overload vs tenant quota).
  [[nodiscard]] SolveResponse make_shed_response(const SolveRequest& request,
                                                 const std::string& reason,
                                                 bool overload);

  [[nodiscard]] ShardStats stats() const;
  [[nodiscard]] const CircuitBreaker& breaker() const { return *breaker_; }
  [[nodiscard]] int index() const { return index_; }

 private:
  /// The solver rung a request is admitted to.
  enum class Tier { kFull, kLite, kHeuristic };

  /// Followers parked behind one in-flight full-fidelity solve.
  struct Inflight {
    std::vector<Pending> followers;
  };

  /// The full pipeline: cache probe, admission decision, solve, cache
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
  /// An unknown worker exception turned into a structured response
  /// (counter service.internal_errors, note "internal_error").
  [[nodiscard]] SolveResponse internal_error_response(
      const SolveRequest& request, const std::string& what);
  /// Hands the leader's canonical-space result to every parked follower
  /// (or re-dispatches them on `executor` when there is no shareable
  /// result).
  void conclude_leadership(const Fingerprint& key,
                           const CanonicalInstance& canonical,
                           const SolveResponse* response, Executor& executor);
  [[nodiscard]] const char* solver_key() const {
    return options_.mode == ServiceMode::kPortfolio ? "portfolio" : "ptas";
  }

  const int index_;
  const ServiceOptions options_;
  std::unique_ptr<ResultCache> cache_;      ///< null when caching is disabled
  std::unique_ptr<CircuitBreaker> breaker_;
  std::function<std::size_t()> queue_depth_;

  std::mutex inflight_mutex_;
  std::unordered_map<Fingerprint, Inflight, FingerprintHasher> inflight_;

  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> degraded_{0};
  std::atomic<std::uint64_t> shed_quota_{0};
  std::atomic<std::uint64_t> shed_overload_{0};
  std::atomic<std::uint64_t> coalesced_{0};
  std::atomic<std::uint64_t> internal_errors_{0};
};

}  // namespace pcmax
