#include "service/solve_service.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "core/portfolio.hpp"
#include "core/resilient_solver.hpp"
#include "core/variant.hpp"
#include "obs/metrics.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"

namespace pcmax {

namespace {

double ns_to_seconds(std::uint64_t begin_ns, std::uint64_t end_ns) {
  return static_cast<double>(end_ns - begin_ns) * 1e-9;
}

void bump(obs::Counter counter) {
  obs::Metrics* metrics = obs::current();
  if (metrics != nullptr) metrics->add(0, counter);
}

/// This shard's slice of the service-wide cache capacity: an even split,
/// never below 1.
std::size_t slice(std::size_t total, unsigned shards) {
  return std::max<std::size_t>(1, total / shards);
}

/// Outcomes a full-fidelity attempt can report to the breaker.
bool breaker_failure(const std::string& reason) {
  return reason == "deadline" || reason.rfind("resource-limit", 0) == 0;
}

/// RAII over one breaker consultation. Every admitted attempt must report
/// exactly one verdict (see CircuitBreaker::on_abandon) or a half-open key
/// wedges with its probe slot held forever; the destructor backstops every
/// exit path — a request parked as a coalescing follower, a non-resource
/// exception out of the solver — by reporting abandon when the scope unwinds
/// with no explicit verdict.
class BreakerAttempt {
 public:
  BreakerAttempt(CircuitBreaker& breaker, const char* key)
      : breaker_(breaker), key_(key) {}
  ~BreakerAttempt() {
    if (admitted_ && !reported_) breaker_.on_abandon(key_);
  }
  BreakerAttempt(const BreakerAttempt&) = delete;
  BreakerAttempt& operator=(const BreakerAttempt&) = delete;

  /// Consults CircuitBreaker::allow (hits fault site "breaker.allow", may
  /// throw). True = this attempt is admitted and owes a verdict.
  [[nodiscard]] bool allow() {
    admitted_ = breaker_.allow(key_);
    return admitted_;
  }
  void success() {
    if (take()) breaker_.on_success(key_);
  }
  void failure() {
    if (take()) breaker_.on_failure(key_);
  }
  void abandon() {
    if (take()) breaker_.on_abandon(key_);
  }

 private:
  /// Claims the single verdict; false when not admitted or already reported.
  bool take() {
    if (!admitted_ || reported_) return false;
    reported_ = true;
    return true;
  }

  CircuitBreaker& breaker_;
  const char* key_;
  bool admitted_ = false;
  bool reported_ = false;
};

}  // namespace

SolveService::Shard::Shard(std::size_t cache_capacity,
                           const BreakerOptions& breaker_options)
    : breaker(breaker_options) {
  if (cache_capacity > 0) cache = std::make_unique<ResultCache>(cache_capacity);
}

SolveService::SolveService(ServiceOptions options)
    : options_(std::move(options)) {
  PCMAX_REQUIRE(options_.shards >= 1, "service needs at least one shard");
  PCMAX_REQUIRE(options_.workers >= 1, "service needs at least one worker");
  PCMAX_REQUIRE(options_.lane_width >= 1, "lane width must be at least 1");
  PCMAX_REQUIRE(options_.epsilon > 0, "service default epsilon must be > 0");
  PCMAX_REQUIRE(options_.default_time_limit_ms >= 0,
                "default time limit must be non-negative (0 = unlimited)");
  PCMAX_REQUIRE(options_.deadline_near_ms >= 0,
                "deadline-near threshold must be non-negative");
  PCMAX_REQUIRE(options_.lite_pressure > 0,
                "lite pressure threshold must be positive");
  PCMAX_REQUIRE(options_.heavy_pressure >= options_.lite_pressure &&
                    options_.shed_pressure >= options_.heavy_pressure,
                "pressure thresholds must be non-decreasing");

  if (!options_.tenant_weights.empty()) {
    unsigned total_weight = 0;
    for (const auto& [tenant, weight] : options_.tenant_weights) {
      PCMAX_REQUIRE(weight >= 1, "tenant weights must be at least 1");
      total_weight += weight;
    }
    // Quotas are counted against the one queue's capacity, so tenant
    // shares do not depend on the shard count.
    for (const auto& [tenant, weight] : options_.tenant_weights) {
      tenant_caps_[tenant] = std::max<std::size_t>(
          1, options_.queue_capacity * weight / total_weight);
    }
  }

  const unsigned shards = options_.shards;
  const std::size_t shard_cache =
      options_.cache_capacity == 0 ? 0
                                   : slice(options_.cache_capacity, shards);
  queue_ = std::make_unique<BoundedQueue<Pending>>(options_.queue_capacity);
  shards_.reserve(shards);
  for (unsigned s = 0; s < shards; ++s) {
    shards_.push_back(std::make_unique<Shard>(shard_cache, options_.breaker));
  }
  workers_.reserve(options_.workers);
  for (unsigned w = 0; w < options_.workers; ++w) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

SolveService::~SolveService() {
  shutting_down_.store(true, std::memory_order_relaxed);
  // Closing the queue lets the workers drain it, then return from pop().
  queue_->close();
  for (std::thread& worker : workers_) worker.join();
}

void SolveService::worker_loop() {
  WorkStealingExecutor executor(options_.lane_width);
  while (auto pending = queue_->pop()) {
    // The tenant quota counts QUEUED requests; the slot frees at dispatch.
    // Done here (not in process) so coalescing re-dispatch cannot
    // double-free.
    release_tenant_slot(pending->request.tenant);
    process(std::move(*pending), executor);
  }
}

SolveService::Pending SolveService::make_pending(SolveRequest request) {
  PCMAX_REQUIRE(!shutting_down_.load(std::memory_order_relaxed),
                "service is shutting down");
  Pending pending{std::move(request)};
  pending.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  // The per-request budget starts at ADMISSION: time spent waiting in the
  // queue is spent budget, which is what lets the dispatch-time admission
  // check degrade requests whose wait consumed almost all of it.
  const std::int64_t limit_ms = pending.request.time_limit_ms < 0
                                    ? options_.default_time_limit_ms
                                    : pending.request.time_limit_ms;
  if (limit_ms > 0) {
    pending.deadline = Deadline::after_ms(limit_ms);
    pending.token =
        CancellationToken::linked(pending.request.cancel, pending.deadline);
  } else {
    pending.token = pending.request.cancel;
  }
  pending.epsilon = effective_epsilon(pending.request);
  return pending;
}

SolveFuture SolveService::submit_async(SolveRequest request) {
  Pending pending = make_pending(std::move(request));
  // Routing: canonical form, fingerprint, and shard are computed HERE, on
  // the caller's thread — workers never re-canonicalize, and the
  // shard choice is a pure function of the fingerprint.
  pending.canonical.emplace(pending.request.instance);
  return route_and_enqueue(std::move(pending));
}

SolveFuture SolveService::submit_prepared(SolveRequest request,
                                          CanonicalInstance canonical) {
  // The incremental fast path: the caller (IncrementalSession) maintained
  // the sorted multiset and its fingerprint across add/remove deltas, so
  // submission skips the O(n log n) sort + O(n) rehash entirely. The cheap
  // invariants below catch a canonical form that describes a different
  // problem; the full multiset equality is the caller's contract.
  PCMAX_REQUIRE(canonical.instance().machines() == request.instance.machines(),
                "prepared canonical form disagrees on machine count");
  PCMAX_REQUIRE(canonical.instance().jobs() == request.instance.jobs(),
                "prepared canonical form disagrees on job count");
  PCMAX_REQUIRE(canonical.instance().variant() == request.instance.variant(),
                "prepared canonical form disagrees on problem variant");
  PCMAX_REQUIRE(
      canonical.instance().total_time() == request.instance.total_time(),
      "prepared canonical form disagrees on total processing time");
  Pending pending = make_pending(std::move(request));
  pending.canonical.emplace(std::move(canonical));
  bump(obs::Counter::kServiceIncrementalResolves);
  return route_and_enqueue(std::move(pending));
}

SolveFuture SolveService::route_and_enqueue(Pending pending) {
  pending.key = request_fingerprint(*pending.canonical, pending.epsilon);
  pending.shard = static_cast<int>(shard_index(pending.key, shards_.size()));
  pending.enqueue_ns = obs::monotonic_ns();
  pending.promise.stamp(pending.id, pending.request.instance.machines(),
                        pending.request.instance.jobs(),
                        pending.request.tenant, pending.key, pending.shard);
  SolveFuture future = pending.promise.get_future();
  bump(obs::Counter::kServiceShardDispatches);

  try {
    fault_hit("service.shard.dispatch");
  } catch (const ResourceLimitError& e) {
    // An injected routing fault must neither lose the request nor leak a
    // queue slot it never took: answer with a structured shed.
    SolveResponse shed = make_shed_response(pending, "shed:dispatch-fault",
                                            /*overload=*/true);
    shed.fingerprint = pending.key;
    shed.notes["dispatch_fault"] = e.what();
    finish(pending, std::move(shed), pending.enqueue_ns);
    return future;
  }

  // Tenant quota: a capped tenant may hold only its weighted share of the
  // queue capacity. The check-and-increment is atomic under tenant_mutex_;
  // the slot is returned when a worker pops the request.
  const std::string& tenant = pending.request.tenant;
  const auto cap = tenant_caps_.find(tenant);
  if (cap != tenant_caps_.end()) {
    std::lock_guard lock(tenant_mutex_);
    std::size_t& queued = tenant_queued_[tenant];
    if (queued >= cap->second) {
      SolveResponse shed = make_shed_response(pending, "shed:tenant-quota",
                                              /*overload=*/false);
      shed.fingerprint = pending.key;
      finish(pending, std::move(shed), pending.enqueue_ns);
      return future;
    }
    ++queued;
  }

  if (options_.shed_policy == ShedPolicy::kTiered) {
    // Open-loop admission: a full queue sheds instead of blocking the
    // submitter, so the arrival loop stays responsive under a storm.
    std::optional<Pending> rejected =
        queue_->try_push(std::move(pending));
    if (rejected.has_value()) {
      release_tenant_slot(rejected->request.tenant);
      SolveResponse shed = make_shed_response(*rejected, "shed:queue-full",
                                              /*overload=*/true);
      shed.fingerprint = rejected->key;
      finish(*rejected, std::move(shed), rejected->enqueue_ns);
    }
    return future;
  }
  if (!queue_->push(std::move(pending))) {
    release_tenant_slot(tenant);
    throw Error("service is shutting down");
  }
  return future;
}

std::vector<SolveResponse> SolveService::solve_batch(
    std::vector<SolveRequest> requests) {
  std::vector<SolveFuture> futures;
  futures.reserve(requests.size());
  for (SolveRequest& request : requests) {
    futures.push_back(submit_async(std::move(request)));
  }
  std::vector<SolveResponse> responses;
  responses.reserve(futures.size());
  for (SolveFuture& future : futures) {
    responses.push_back(future.get());
  }
  return responses;
}

ServiceStats SolveService::stats() const {
  ServiceStats stats;
  stats.shards.reserve(shards_.size());
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const Shard& shard = *shards_[i];
    ShardStats s;
    s.shard = static_cast<int>(i);
    s.requests = shard.requests.load(std::memory_order_relaxed);
    s.degraded = shard.degraded.load(std::memory_order_relaxed);
    s.shed_quota = shard.shed_quota.load(std::memory_order_relaxed);
    s.shed_overload = shard.shed_overload.load(std::memory_order_relaxed);
    s.coalesced = shard.coalesced.load(std::memory_order_relaxed);
    s.internal_errors = shard.internal_errors.load(std::memory_order_relaxed);
    if (shard.cache != nullptr) s.cache = shard.cache->stats();
    s.breaker = shard.breaker.totals();
    stats.requests += s.requests;
    stats.degraded += s.degraded;
    stats.shed_quota += s.shed_quota;
    stats.shed_overload += s.shed_overload;
    stats.coalesced += s.coalesced;
    stats.internal_errors += s.internal_errors;
    stats.cache.hits += s.cache.hits;
    stats.cache.misses += s.cache.misses;
    stats.cache.evictions += s.cache.evictions;
    stats.cache.collisions += s.cache.collisions;
    stats.cache.size += s.cache.size;
    stats.breaker.trips += s.breaker.trips;
    stats.breaker.rejects += s.breaker.rejects;
    stats.breaker.probes += s.breaker.probes;
    stats.breaker.closes += s.breaker.closes;
    stats.breaker.failures += s.breaker.failures;
    stats.breaker.successes += s.breaker.successes;
    stats.breaker.abandons += s.breaker.abandons;
    stats.breaker.consecutive_failures =
        std::max(stats.breaker.consecutive_failures,
                 s.breaker.consecutive_failures);
    stats.shards.push_back(std::move(s));
  }
  stats.queue_high_watermark = queue_->high_watermark();
  return stats;
}

void SolveService::release_tenant_slot(const std::string& tenant) {
  if (tenant_caps_.empty() || tenant_caps_.find(tenant) == tenant_caps_.end()) {
    return;
  }
  std::lock_guard lock(tenant_mutex_);
  const auto it = tenant_queued_.find(tenant);
  if (it != tenant_queued_.end() && it->second > 0) --it->second;
}

double SolveService::effective_epsilon(const SolveRequest& request) const {
  return request.epsilon > 0 ? request.epsilon : options_.epsilon;
}

// The serving pipeline: a worker runs one popped request against the state
// of the shard it was routed to (admission tier, cache probe, coalescing
// leadership, solver dispatch, breaker verdict, structured sheds).
// tests/service_shard_equivalence_test.cpp holds N-shard responses
// byte-identical to the 1-shard service's.

void SolveService::process(Pending pending, Executor& executor) {
  const std::uint64_t dispatch_ns = obs::monotonic_ns();
  SolveResponse response;
  try {
    try {
      std::optional<SolveResponse> handled = handle(pending, executor);
      // A parked coalescing follower: its promise now belongs to the
      // in-flight leader, which will resolve it on completion.
      if (!handled.has_value()) return;
      response = std::move(*handled);
    } catch (const ResourceLimitError& e) {
      // A budget (or injected fault) tripped outside the resilient solver's
      // own rungs: answer with the degraded path, never with an exception.
      try {
        response = cheap_solve(
            pending, std::string("resource-limit: ") + e.what(), executor);
      } catch (const ResourceLimitError& inner) {
        // Even the degraded rung tripped: shed with provenance rather than
        // drop the request or retry a path that just proved unavailable.
        response = make_shed_response(pending, "shed:resource-exhausted",
                                      /*overload=*/true);
        response.notes["resource_limit"] = inner.what();
      }
    }
  } catch (const Error&) {
    // Typed pcmax errors (InvalidArgumentError, InternalError, ...) are
    // bugs or caller errors; deliver them through the future unchanged —
    // the service never converts a bug into a result.
    pending.promise.set_exception(std::current_exception());
    return;
  } catch (const std::exception& e) {
    // Unknown exceptions must not kill the worker or hang the future:
    // answer with a structured internal-error response.
    response = internal_error_response(pending, e.what());
  } catch (...) {
    response = internal_error_response(pending, "unknown exception");
  }
  finish(pending, std::move(response), dispatch_ns);
}

std::optional<SolveResponse> SolveService::handle(Pending& pending,
                                                  Executor& executor) {
  fault_hit("service.request");
  Shard& shard = shard_for(pending);
  const CanonicalInstance& canonical = *pending.canonical;
  const Fingerprint& key = pending.key;

  std::string cache_note = shard.cache != nullptr ? "miss" : "disabled";
  if (shard.cache != nullptr) {
    std::optional<CacheEntry> entry;
    try {
      fault_hit("service.cache");
      entry = shard.cache->lookup(key, canonical.instance());
    } catch (const ResourceLimitError& e) {
      // A failing cache must cost a recompute, never availability.
      cache_note = std::string("lookup-bypassed: ") + e.what();
    }
    if (entry.has_value()) {
      SolveResponse response;
      response.fingerprint = key;
      response.cache_hit = true;
      response.makespan = entry->makespan;
      response.algorithm = entry->algorithm;
      response.proven_optimal = entry->proven_optimal;
      // Lift the canonical-space assignment through THIS request's sort
      // permutation: valid for its job numbering, same makespan.
      response.schedule = canonical.lift(entry->assignment);
      response.schedule.validate(pending.request.instance);
      response.notes["cache"] = "hit";
      return response;
    }
  }

  // Admission decision: map the pressure signal (service queue depth, deadline
  // headroom, breaker state) onto a solver tier — or shed outright.
  Tier tier = Tier::kFull;
  std::string forced_reason;
  bool breaker_blocked = false;
  BreakerAttempt attempt(shard.breaker, solver_key());
  const std::size_t depth = queue_->size();
  const bool deadline_near =
      pending.deadline.has_limit() &&
      pending.deadline.remaining_seconds() * 1000.0 <
          static_cast<double>(options_.deadline_near_ms);
  if (options_.shed_policy == ShedPolicy::kStatic) {
    // A saturated queue or a nearly-spent deadline sends
    // the request down the cheap path instead of starting a doomed PTAS.
    if (depth >= options_.queue_capacity) {
      tier = Tier::kLite;
      forced_reason = "queue-saturated";
    } else if (deadline_near) {
      tier = Tier::kLite;
      forced_reason = "deadline-near";
    } else if (options_.breaker_enabled && !attempt.allow()) {
      breaker_blocked = true;
      tier = Tier::kLite;
      forced_reason = std::string("breaker-open:") + solver_key();
    }
  } else {
    double pressure = static_cast<double>(depth) /
                      static_cast<double>(options_.queue_capacity);
    // A nearly spent budget is weighted at the lite threshold, never less:
    // a full PTAS launched against it is doomed, and its certain "deadline"
    // failure would feed the breaker's streak — a storm of tiny-deadline
    // requests must degrade themselves (as under the static policy), not
    // trip the breaker for everyone else.
    if (deadline_near) pressure += options_.lite_pressure;
    // The breaker is only consulted when the request would otherwise take
    // the full-fidelity rung: its reject count mirrors skipped attempts.
    if (options_.breaker_enabled && pressure < options_.lite_pressure &&
        !attempt.allow()) {
      breaker_blocked = true;
      pressure += 0.5;
    }
    if (pressure >= options_.shed_pressure) {
      SolveResponse shed = make_shed_response(pending, "shed:pressure",
                                              /*overload=*/true);
      shed.fingerprint = key;
      return shed;
    }
    if (pressure >= options_.heavy_pressure) {
      tier = Tier::kHeuristic;
      forced_reason = breaker_blocked
                          ? std::string("breaker-open:") + solver_key()
                          : "pressure-heavy";
    } else if (pressure >= options_.lite_pressure || breaker_blocked) {
      tier = Tier::kLite;
      if (breaker_blocked) {
        forced_reason = std::string("breaker-open:") + solver_key();
      } else {
        forced_reason = deadline_near ? "deadline-near" : "pressure-lite";
      }
    }
  }

  // Coalescing gate (full-fidelity tier only): the first miss of a
  // fingerprint leads; concurrent duplicates park behind it and receive
  // the leader's canonical-space result instead of racing redundant solves.
  // Duplicates always route to this shard, so the per-shard map is as
  // exhaustive as one map over every shard would be.
  bool leader = false;
  if (tier == Tier::kFull && options_.coalesce) {
    std::lock_guard lock(shard.inflight_mutex);
    const auto it = shard.inflight.find(key);
    if (it != shard.inflight.end()) {
      // The in-flight leader owns the solve and its breaker verdict; this
      // request's own admission ends verdict-less. Release it (a half-open
      // probe slot must not wedge behind a parked follower).
      attempt.abandon();
      // Hit under inflight_mutex: once a test has seen it, the follower is
      // parked before the leader can conclude.
      fault_hit("service.coalesce");
      it->second.followers.push_back(std::move(pending));
      return std::nullopt;
    }
    shard.inflight.emplace(key, Inflight{});
    leader = true;
  }

  SolveResponse response;
  try {
    try {
      response = run_solver(pending, tier, forced_reason, executor);
    } catch (const ResourceLimitError&) {
      attempt.failure();
      throw;
    }
    // Every admitted full-fidelity attempt reports exactly one verdict
    // (the BreakerAttempt destructor abandons any path missed here, e.g. a
    // non-resource exception). "cancelled" is the caller's doing, not the
    // solver's — it must not feed the failure streak, but it must release
    // a probe slot.
    const std::string& reason = response.degradation_reason;
    if (reason == "none") {
      attempt.success();
    } else if (breaker_failure(reason)) {
      attempt.failure();
    } else {
      attempt.abandon();
    }
    if (breaker_blocked) response.notes["breaker"] = "open-rerouted";
    response.fingerprint = key;
    response.notes["cache"] = cache_note;

    // Only full-fidelity results enter the cache: a degraded answer must
    // never be served to a future caller with a healthy budget.
    if (shard.cache != nullptr && response.degradation_reason == "none") {
      try {
        fault_hit("service.cache");
        CacheEntry entry{canonical.instance(),
                         canonical.project(response.schedule),
                         response.makespan, response.algorithm,
                         response.proven_optimal};
        shard.cache->insert(key, std::move(entry));
      } catch (const ResourceLimitError& e) {
        response.notes["cache"] = std::string("store-skipped: ") + e.what();
      }
    }
  } catch (...) {
    // Leadership must not leak: hand parked followers back to the pipeline
    // (there is no shareable result) before the error propagates.
    if (leader) conclude_leadership(shard, key, canonical, nullptr, executor);
    throw;
  }
  if (leader) conclude_leadership(shard, key, canonical, &response, executor);
  return response;
}

void SolveService::conclude_leadership(Shard& shard, const Fingerprint& key,
                                       const CanonicalInstance& canonical,
                                       const SolveResponse* response,
                                       Executor& executor) {
  std::vector<Pending> followers;
  {
    std::lock_guard lock(shard.inflight_mutex);
    const auto it = shard.inflight.find(key);
    if (it == shard.inflight.end()) return;
    followers = std::move(it->second.followers);
    shard.inflight.erase(it);
  }
  if (followers.empty()) return;

  // Degraded (or absent) leader results are never shared: a follower with a
  // healthy budget must not inherit a neighbour's degradation.
  if (response == nullptr || response->degradation_reason != "none") {
    for (Pending& follower : followers) {
      process(std::move(follower), executor);
    }
    return;
  }

  // Share the result in CANONICAL space: each follower lifts it through its
  // OWN sort permutation, so its response is exactly what a fresh solve or
  // cache hit of its submitted ordering would have produced.
  const std::vector<int> assignment = canonical.project(response->schedule);
  for (Pending& follower : followers) {
    const std::uint64_t delivery_ns = obs::monotonic_ns();
    try {
      SolveResponse shared;
      shared.fingerprint = response->fingerprint;
      shared.makespan = response->makespan;
      shared.algorithm = response->algorithm;
      shared.proven_optimal = response->proven_optimal;
      shared.coalesced = true;
      shared.schedule = follower.canonical->lift(assignment);
      shared.schedule.validate(follower.request.instance);
      shared.notes["cache"] = "coalesced";
      shard.coalesced.fetch_add(1, std::memory_order_relaxed);
      bump(obs::Counter::kServiceCoalesced);
      finish(follower, std::move(shared), delivery_ns);
    } catch (...) {
      follower.promise.set_exception(std::current_exception());
    }
  }
}

SolveResponse SolveService::cheap_solve(Pending& pending,
                                        const std::string& reason,
                                        Executor& executor) {
  SolveResponse response = run_solver(pending, Tier::kLite, reason, executor);
  response.fingerprint = pending.key;
  response.notes["cache"] = "skipped-degraded";
  return response;
}

SolveResponse SolveService::run_solver(Pending& pending, Tier tier,
                                       const std::string& forced_reason,
                                       Executor& executor) {
  const CanonicalInstance& canonical = *pending.canonical;
  // The request's stop signal (its cancel token under its deadline).
  SolveContext context = SolveContext::with_token(pending.token);

  // Solve the CANONICAL twin, not the submitted ordering. The PTAS maps
  // concrete jobs into rounded value classes in job order, and two jobs in
  // one class have different true times — so its makespan is not
  // permutation-invariant. Solving in canonical space and lifting through
  // the request's sort permutation makes every response a pure function of
  // the problem (machines + job multiset + epsilon), so cache hits, misses
  // and coalesced deliveries for one fingerprint are indistinguishable.
  SolverResult result;
  if (options_.mode == ServiceMode::kPortfolio && tier == Tier::kFull) {
    PortfolioOptions portfolio;
    portfolio.build.epsilon = pending.epsilon;
    portfolio.build.multifit_iterations = options_.multifit_iterations;
    portfolio.build.local_search_rounds = options_.local_search_rounds;
    // Sequential race on this worker: deterministic winner (responses must
    // stay pure functions of the problem for cache coherence), and no
    // competition with other racers for the worker's executor.
    portfolio.max_concurrent = 1;
    if (options_.lane_width > 1) {
      // Auto-selection adds the parallel-ptas racer on the worker's
      // executor; bit-compatible with the sequential fill, so responses
      // still do not depend on the lane width.
      portfolio.build.executor = &executor;
    }
    PortfolioSolver solver(portfolio);
    // Variant dispatch: capacity-restricted instances are solved on their
    // classic min(m, B)-machine twin and lifted back (core/variant.hpp);
    // classic and incremental instances pass through byte-identically.
    result = solve_variant_with(solver, canonical.instance(), context);
  } else {
    ResilientOptions resilient;
    resilient.ptas.epsilon = pending.epsilon;
    resilient.ptas_enabled = tier == Tier::kFull;
    resilient.multifit_iterations = options_.multifit_iterations;
    // The heuristic tier drops the local-search polish too: MULTIFIT/LPT
    // only, the cheapest rung that still returns a valid schedule.
    resilient.local_search_rounds =
        tier == Tier::kHeuristic ? 0 : options_.local_search_rounds;
    if (options_.lane_width > 1) {
      // Parallel engine on the worker's executor; bit-compatible with the
      // sequential bottom-up fill (see tests/ptas_dp_crosscheck_test.cpp),
      // so cache entries and responses do not depend on the lane width.
      resilient.ptas.engine = DpEngine::kParallelBucketed;
      resilient.ptas.executor = &executor;
    }
    ResilientSolver solver(resilient);
    result = solve_variant_with(solver, canonical.instance(), context);
  }

  SolveResponse response;
  response.makespan = result.makespan;
  response.schedule =
      canonical.lift(result.schedule.assignment(canonical.instance()));
  response.algorithm = result.notes["algorithm_used"];
  response.degradation_reason = forced_reason.empty()
                                    ? result.notes["degradation_reason"]
                                    : forced_reason;
  response.degraded = response.degradation_reason != "none";
  response.proven_optimal = result.proven_optimal;
  return response;
}

void SolveService::finish(Pending& pending, SolveResponse response,
                          std::uint64_t dispatch_ns) {
  Shard& shard = shard_for(pending);
  obs::Metrics* metrics = obs::current();
  const std::uint64_t done_ns = obs::monotonic_ns();
  response.id = pending.id;
  response.machines = pending.request.instance.machines();
  response.jobs = pending.request.instance.jobs();
  response.variant = variant_name(pending.request.instance.variant());
  response.tenant = pending.request.tenant;
  response.shard = pending.shard;
  response.queue_seconds = ns_to_seconds(pending.enqueue_ns, dispatch_ns);
  response.solve_seconds = ns_to_seconds(dispatch_ns, done_ns);
  response.seconds = ns_to_seconds(pending.enqueue_ns, done_ns);
  shard.requests.fetch_add(1, std::memory_order_relaxed);
  if (response.degraded) shard.degraded.fetch_add(1, std::memory_order_relaxed);
  if (metrics != nullptr) {
    metrics->add(0, obs::Counter::kServiceRequests);
    if (response.degraded) metrics->add(0, obs::Counter::kServiceDegraded);
    metrics->add_timer(obs::Timer::kServiceRequest, done_ns - dispatch_ns);
    metrics->add_span("service.request", 0, pending.enqueue_ns, done_ns);
  }
  pending.promise.set_value(std::move(response));
}

SolveResponse SolveService::make_shed_response(const Pending& pending,
                                               const std::string& reason,
                                               bool overload) {
  Shard& shard = shard_for(pending);
  const SolveRequest& request = pending.request;
  SolveResponse response;
  response.schedule = Schedule(std::max(1, request.instance.machines()));
  response.variant = variant_name(request.instance.variant());
  response.algorithm = "none";
  response.degradation_reason = reason;
  response.degraded = true;
  response.shed = true;
  response.notes["shed"] = overload ? "overload" : "tenant-quota";
  if (overload) {
    shard.shed_overload.fetch_add(1, std::memory_order_relaxed);
    bump(obs::Counter::kServiceShedOverload);
  } else {
    shard.shed_quota.fetch_add(1, std::memory_order_relaxed);
    bump(obs::Counter::kServiceShedQuota);
  }
  return response;
}

SolveResponse SolveService::internal_error_response(
    const Pending& pending, const std::string& what) {
  const SolveRequest& request = pending.request;
  SolveResponse response;
  response.schedule = Schedule(std::max(1, request.instance.machines()));
  response.variant = variant_name(request.instance.variant());
  response.algorithm = "none";
  response.degradation_reason = "internal-error";
  response.degraded = true;
  response.shed = true;
  response.notes["internal_error"] = what;
  shard_for(pending).internal_errors.fetch_add(1, std::memory_order_relaxed);
  bump(obs::Counter::kServiceInternalErrors);
  return response;
}

}  // namespace pcmax
