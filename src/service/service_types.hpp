// Value types shared by the sharded solve service: configuration
// (ServiceOptions), the request/response pair, and the stats snapshots.
// Split out of solve_service.hpp so the shard runtime (service/shard.hpp)
// and the front end (service/solve_service.hpp) can both name them without
// a cycle; external code keeps including solve_service.hpp.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/breaker.hpp"
#include "core/fingerprint.hpp"
#include "core/instance.hpp"
#include "core/schedule.hpp"
#include "service/result_cache.hpp"
#include "util/deadline.hpp"

namespace pcmax {

/// Which solver stack answers full-fidelity (non-degraded) requests.
enum class ServiceMode {
  /// The graceful-degradation ladder: PTAS -> MULTIFIT/LPT + polish.
  kResilient,
  /// The portfolio racing engine (core/portfolio.hpp) in sequential mode:
  /// racers share an incumbent board and run in deterministic list order,
  /// so responses stay pure functions of the problem and remain cacheable.
  /// Degraded requests (admission or budget) still take the cheap
  /// resilient path.
  kPortfolio,
};

/// How admission maps pressure onto the solver ladder.
enum class ShedPolicy {
  /// PR 4 semantics, bit-for-bit: block in submit() while the queue is
  /// full; degrade to the lite tier when the queue is saturated at
  /// dispatch or the deadline is nearly spent. Never sheds.
  kStatic,
  /// Graduated overload handling: submit() sheds (structured reject) when
  /// the queue is full; at dispatch a pressure score over queue depth,
  /// deadline headroom, and breaker state selects
  /// full -> lite -> heuristic -> shed.
  kTiered,
};

/// Static configuration of a SolveService.
struct ServiceOptions {
  /// Solver stack for full-fidelity requests.
  ServiceMode mode = ServiceMode::kResilient;

  /// Service shards, selected per request by the 128-bit fingerprint
  /// (core/fingerprint shard_index). Each shard owns its own result-cache
  /// slice, coalescing map and breaker; every worker serves every shard.
  /// 1 reproduces the unsharded service exactly.
  unsigned shards = 1;

  /// Worker threads serving the one request queue, for all shards (>= 1).
  /// Exactly this many start.
  unsigned workers = 2;

  /// Per-request parallelism cap: each worker's executor is this many
  /// threads wide. 1 = fully sequential solves.
  unsigned lane_width = 1;

  /// Bounded request-queue capacity (>= 1, the backpressure threshold).
  /// One queue serves every shard.
  std::size_t queue_capacity = 64;

  /// Result-cache capacity in entries across all shards; 0 disables
  /// caching. Each shard's cache holds max(1, cache_capacity / shards) —
  /// the aggregate never shrinks below the unsharded capacity by more than
  /// the division remainder.
  std::size_t cache_capacity = 1024;

  /// PTAS accuracy for requests that do not set their own.
  double epsilon = 0.3;

  /// Wall-clock budget applied to requests that do not set their own, in
  /// milliseconds from ADMISSION (queue wait spends budget); 0 = unlimited.
  std::int64_t default_time_limit_ms = 0;

  /// Queue depth at dispatch at/above which a request degrades to the cheap
  /// path ("queue-saturated"). 0 = queue_capacity, i.e. degrade only while
  /// the queue is completely full behind this request. Static policy only.
  std::size_t saturation_watermark = 0;

  /// A request whose remaining budget is below this at dispatch degrades to
  /// the cheap path ("deadline-near") instead of starting a doomed PTAS.
  std::int64_t deadline_near_ms = 5;

  /// Admission policy; kStatic preserves the PR 4 behavior exactly.
  ShedPolicy shed_policy = ShedPolicy::kStatic;

  /// Tiered-policy thresholds over the pressure score
  /// (queue_depth/queue_capacity, +0.5 when the breaker blocked full
  /// fidelity, +lite_pressure when the deadline is near — a nearly spent
  /// budget always degrades to at least the lite tier, so doomed
  /// full-fidelity attempts never feed the breaker). Must be non-decreasing.
  double lite_pressure = 1.0;
  double heavy_pressure = 1.4;
  double shed_pressure = 1.9;

  /// Share one in-flight solve among concurrent duplicates of a
  /// fingerprint (full-fidelity tier only). Duplicates always land on one
  /// shard, so per-shard coalescing maps lose no matches.
  bool coalesce = true;

  /// Circuit breaker over the full-fidelity rung; disabled = PR 4 behavior
  /// (every request retries the PTAS no matter how many just failed).
  /// Each shard runs its own breaker over its own traffic.
  bool breaker_enabled = true;
  BreakerOptions breaker;

  /// Per-tenant admission weights; empty = no quotas (every tenant,
  /// including the default "", is uncapped — the PR 4 behavior). A listed
  /// tenant may hold at most max(1, queue_capacity * weight / total_weight)
  /// queued requests; beyond that, submissions are shed with reason
  /// "shed:tenant-quota". Unlisted tenants stay uncapped.
  std::map<std::string, unsigned> tenant_weights;

  /// Fallback-rung tuning forwarded to ResilientSolver.
  int multifit_iterations = 10;
  std::uint64_t local_search_rounds = 10'000;
};

/// One solve request. Copyable value; the instance is taken by value.
struct SolveRequest {
  explicit SolveRequest(Instance problem) : instance(std::move(problem)) {}

  Instance instance;
  /// PTAS accuracy; <= 0 uses the service default.
  double epsilon = 0.0;
  /// Wall-clock budget in ms from admission; < 0 uses the service default,
  /// 0 means unlimited.
  std::int64_t time_limit_ms = -1;
  /// Tenant identity for admission quotas; "" is the default tenant.
  std::string tenant;
  /// Optional external cancellation, observed in addition to the deadline.
  CancellationToken cancel;
};

/// One solve response, with full provenance.
struct SolveResponse {
  std::uint64_t id = 0;            ///< submission sequence number
  int machines = 0;                ///< m of the submitted instance
  int jobs = 0;                    ///< n of the submitted instance
  Time makespan = 0;
  Schedule schedule{1};            ///< complete valid schedule (empty if shed)
  std::string algorithm;           ///< rung that produced the result
  std::string degradation_reason = "none";  ///< "none" when full fidelity
  bool degraded = false;
  bool shed = false;               ///< structured reject: no schedule computed
  bool coalesced = false;          ///< shared another request's in-flight solve
  bool cache_hit = false;
  bool proven_optimal = false;
  std::string tenant;              ///< echo of the request's tenant id
  Fingerprint fingerprint;         ///< request fingerprint (dedup key)
  int shard = 0;                   ///< shard that produced this response
  double queue_seconds = 0.0;      ///< admission -> dispatch
  double solve_seconds = 0.0;      ///< dispatch -> response
  double seconds = 0.0;            ///< admission -> response (end-to-end)
  std::map<std::string, std::string> notes;  ///< extra textual provenance
  /// Variant tag of the submitted instance ("classic" for plain P || C_max;
  /// appended in PR 10 so pre-existing fields keep their positions).
  std::string variant = "classic";
};

/// Counter snapshot of one shard (ServiceStats::shards entry).
struct ShardStats {
  int shard = 0;                ///< shard index
  std::uint64_t requests = 0;   ///< responses produced (shed ones included)
  std::uint64_t degraded = 0;   ///< responses answered via a degraded path
  std::uint64_t shed_quota = 0;     ///< rejects by a tenant quota
  std::uint64_t shed_overload = 0;  ///< rejects by queue-full / pressure
  std::uint64_t coalesced = 0;      ///< responses served off a shared solve
  std::uint64_t internal_errors = 0;  ///< unknown exceptions structured away
  CacheStats cache;             ///< this shard's cache slice
  BreakerKeyStats breaker;      ///< this shard's breaker totals
};

/// Counter snapshot of a running service, aggregated over every shard.
struct ServiceStats {
  std::uint64_t requests = 0;   ///< responses produced (shed ones included)
  std::uint64_t degraded = 0;   ///< responses answered via a degraded path
  std::uint64_t shed_quota = 0;     ///< rejects by a tenant quota
  std::uint64_t shed_overload = 0;  ///< rejects by queue-full / pressure
  std::uint64_t coalesced = 0;      ///< responses served off a shared solve
  std::uint64_t internal_errors = 0;  ///< unknown exceptions structured away
  CacheStats cache;             ///< summed across shards (zeroed if disabled)
  BreakerKeyStats breaker;      ///< totals across shards and breaker keys
  /// Largest depth the service queue ever reached (<= queue_capacity).
  std::size_t queue_high_watermark = 0;
  std::vector<ShardStats> shards;  ///< one entry per shard, in index order
};

}  // namespace pcmax
