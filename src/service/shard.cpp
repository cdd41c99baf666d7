#include "service/shard.hpp"

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

ServiceShard::ServiceShard(int index, const ServiceOptions& options,
                           std::size_t cache_capacity,
                           std::function<std::size_t()> queue_depth)
    : index_(index),
      options_(options),
      breaker_(std::make_unique<CircuitBreaker>(options.breaker)),
      queue_depth_(std::move(queue_depth)) {
  if (cache_capacity > 0) {
    cache_ = std::make_unique<ResultCache>(cache_capacity);
  }
}

ShardStats ServiceShard::stats() const {
  ShardStats stats;
  stats.shard = index_;
  stats.requests = requests_.load(std::memory_order_relaxed);
  stats.degraded = degraded_.load(std::memory_order_relaxed);
  stats.shed_quota = shed_quota_.load(std::memory_order_relaxed);
  stats.shed_overload = shed_overload_.load(std::memory_order_relaxed);
  stats.coalesced = coalesced_.load(std::memory_order_relaxed);
  stats.internal_errors = internal_errors_.load(std::memory_order_relaxed);
  if (cache_ != nullptr) stats.cache = cache_->stats();
  stats.breaker = breaker_->totals();
  return stats;
}

void ServiceShard::process(Pending pending, Executor& executor) {
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
        response = make_shed_response(pending.request,
                                      "shed:resource-exhausted",
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
    response = internal_error_response(pending.request, e.what());
  } catch (...) {
    response = internal_error_response(pending.request, "unknown exception");
  }
  finish(pending, std::move(response), dispatch_ns);
}

std::optional<SolveResponse> ServiceShard::handle(Pending& pending,
                                                  Executor& executor) {
  fault_hit("service.request");
  const CanonicalInstance& canonical = *pending.canonical;
  const Fingerprint& key = pending.key;

  std::string cache_note = cache_ != nullptr ? "miss" : "disabled";
  if (cache_ != nullptr) {
    std::optional<CacheEntry> entry;
    try {
      fault_hit("service.cache");
      entry = cache_->lookup(key, canonical.instance());
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
  BreakerAttempt attempt(*breaker_, solver_key());
  const std::size_t depth = queue_depth_();
  const bool deadline_near =
      pending.deadline.has_limit() &&
      pending.deadline.remaining_seconds() * 1000.0 <
          static_cast<double>(options_.deadline_near_ms);
  if (options_.shed_policy == ShedPolicy::kStatic) {
    // PR 4 semantics: a saturated queue or a nearly-spent deadline sends
    // the request down the cheap path instead of starting a doomed PTAS.
    const std::size_t watermark = options_.saturation_watermark == 0
                                      ? options_.queue_capacity
                                      : options_.saturation_watermark;
    if (depth >= watermark) {
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
      SolveResponse shed = make_shed_response(pending.request, "shed:pressure",
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
  // exhaustive as the PR 7 global one.
  bool leader = false;
  if (tier == Tier::kFull && options_.coalesce) {
    std::lock_guard lock(inflight_mutex_);
    const auto it = inflight_.find(key);
    if (it != inflight_.end()) {
      // The in-flight leader owns the solve and its breaker verdict; this
      // request's own admission ends verdict-less. Release it (a half-open
      // probe slot must not wedge behind a parked follower).
      attempt.abandon();
      // Hit under inflight_mutex_: once a test has seen it, the follower is
      // parked before the leader can conclude.
      fault_hit("service.coalesce");
      it->second.followers.push_back(std::move(pending));
      return std::nullopt;
    }
    inflight_.emplace(key, Inflight{});
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
    if (cache_ != nullptr && response.degradation_reason == "none") {
      try {
        fault_hit("service.cache");
        CacheEntry entry{canonical.instance(),
                         canonical.project(response.schedule),
                         response.makespan, response.algorithm,
                         response.proven_optimal};
        cache_->insert(key, std::move(entry));
      } catch (const ResourceLimitError& e) {
        response.notes["cache"] = std::string("store-skipped: ") + e.what();
      }
    }
  } catch (...) {
    // Leadership must not leak: hand parked followers back to the pipeline
    // (there is no shareable result) before the error propagates.
    if (leader) conclude_leadership(key, canonical, nullptr, executor);
    throw;
  }
  if (leader) conclude_leadership(key, canonical, &response, executor);
  return response;
}

void ServiceShard::conclude_leadership(const Fingerprint& key,
                                       const CanonicalInstance& canonical,
                                       const SolveResponse* response,
                                       Executor& executor) {
  std::vector<Pending> followers;
  {
    std::lock_guard lock(inflight_mutex_);
    const auto it = inflight_.find(key);
    if (it == inflight_.end()) return;
    followers = std::move(it->second.followers);
    inflight_.erase(it);
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
      coalesced_.fetch_add(1, std::memory_order_relaxed);
      bump(obs::Counter::kServiceCoalesced);
      finish(follower, std::move(shared), delivery_ns);
    } catch (...) {
      follower.promise.set_exception(std::current_exception());
    }
  }
}

SolveResponse ServiceShard::cheap_solve(Pending& pending,
                                        const std::string& reason,
                                        Executor& executor) {
  SolveResponse response = run_solver(pending, Tier::kLite, reason, executor);
  response.fingerprint = pending.key;
  response.notes["cache"] = "skipped-degraded";
  return response;
}

SolveResponse ServiceShard::run_solver(Pending& pending, Tier tier,
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

void ServiceShard::finish(Pending& pending, SolveResponse response,
                          std::uint64_t dispatch_ns) {
  obs::Metrics* metrics = obs::current();
  const std::uint64_t done_ns = obs::monotonic_ns();
  response.id = pending.id;
  response.machines = pending.request.instance.machines();
  response.jobs = pending.request.instance.jobs();
  response.variant = variant_name(pending.request.instance.variant());
  response.tenant = pending.request.tenant;
  response.shard = index_;
  response.queue_seconds = ns_to_seconds(pending.enqueue_ns, dispatch_ns);
  response.solve_seconds = ns_to_seconds(dispatch_ns, done_ns);
  response.seconds = ns_to_seconds(pending.enqueue_ns, done_ns);
  requests_.fetch_add(1, std::memory_order_relaxed);
  if (response.degraded) degraded_.fetch_add(1, std::memory_order_relaxed);
  if (metrics != nullptr) {
    metrics->add(0, obs::Counter::kServiceRequests);
    if (response.degraded) metrics->add(0, obs::Counter::kServiceDegraded);
    metrics->add_timer(obs::Timer::kServiceRequest, done_ns - dispatch_ns);
    metrics->add_span("service.request", 0, pending.enqueue_ns, done_ns);
  }
  pending.promise.set_value(std::move(response));
}

SolveResponse ServiceShard::make_shed_response(const SolveRequest& request,
                                               const std::string& reason,
                                               bool overload) {
  SolveResponse response;
  response.schedule = Schedule(std::max(1, request.instance.machines()));
  response.variant = variant_name(request.instance.variant());
  response.algorithm = "none";
  response.degradation_reason = reason;
  response.degraded = true;
  response.shed = true;
  response.notes["shed"] = overload ? "overload" : "tenant-quota";
  if (overload) {
    shed_overload_.fetch_add(1, std::memory_order_relaxed);
    bump(obs::Counter::kServiceShedOverload);
  } else {
    shed_quota_.fetch_add(1, std::memory_order_relaxed);
    bump(obs::Counter::kServiceShedQuota);
  }
  return response;
}

SolveResponse ServiceShard::internal_error_response(
    const SolveRequest& request, const std::string& what) {
  SolveResponse response;
  response.schedule = Schedule(std::max(1, request.instance.machines()));
  response.variant = variant_name(request.instance.variant());
  response.algorithm = "none";
  response.degradation_reason = "internal-error";
  response.degraded = true;
  response.shed = true;
  response.notes["internal_error"] = what;
  internal_errors_.fetch_add(1, std::memory_order_relaxed);
  bump(obs::Counter::kServiceInternalErrors);
  return response;
}

}  // namespace pcmax
