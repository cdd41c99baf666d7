#include "service/solve_service.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "obs/metrics.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"

namespace pcmax {

namespace {

void bump(obs::Counter counter) {
  obs::Metrics* metrics = obs::current();
  if (metrics != nullptr) metrics->add(0, counter);
}

/// This shard's slice of the service-wide cache capacity: an even split,
/// never below 1.
std::size_t slice(std::size_t total, unsigned shards) {
  return std::max<std::size_t>(1, total / shards);
}

}  // namespace

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
  queue_ = std::make_unique<BoundedQueue<ServiceShard::Pending>>(
      options_.queue_capacity);
  shards_.reserve(shards);
  for (unsigned s = 0; s < shards; ++s) {
    shards_.push_back(std::make_unique<ServiceShard>(
        static_cast<int>(s), options_, shard_cache,
        [this] { return queue_->size(); }));
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
    const auto shard = static_cast<std::size_t>(pending->shard);
    shards_[shard]->process(std::move(*pending), executor);
  }
}

ServiceShard::Pending SolveService::make_pending(SolveRequest request) {
  PCMAX_REQUIRE(!shutting_down_.load(std::memory_order_relaxed),
                "service is shutting down");
  ServiceShard::Pending pending{std::move(request)};
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
  ServiceShard::Pending pending = make_pending(std::move(request));
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
  ServiceShard::Pending pending = make_pending(std::move(request));
  pending.canonical.emplace(std::move(canonical));
  bump(obs::Counter::kServiceIncrementalResolves);
  return route_and_enqueue(std::move(pending));
}

SolveFuture SolveService::route_and_enqueue(ServiceShard::Pending pending) {
  pending.key = request_fingerprint(*pending.canonical, pending.epsilon);
  const std::size_t shard = shard_index(pending.key, shards_.size());
  pending.shard = static_cast<int>(shard);
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
    SolveResponse shed =
        shards_[shard]->make_shed_response(pending.request,
                                           "shed:dispatch-fault",
                                           /*overload=*/true);
    shed.fingerprint = pending.key;
    shed.notes["dispatch_fault"] = e.what();
    shards_[shard]->finish(pending, std::move(shed), pending.enqueue_ns);
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
      SolveResponse shed =
          shards_[shard]->make_shed_response(pending.request,
                                             "shed:tenant-quota",
                                             /*overload=*/false);
      shed.fingerprint = pending.key;
      shards_[shard]->finish(pending, std::move(shed), pending.enqueue_ns);
      return future;
    }
    ++queued;
  }

  if (options_.shed_policy == ShedPolicy::kTiered) {
    // Open-loop admission: a full queue sheds instead of blocking the
    // submitter, so the arrival loop stays responsive under a storm.
    std::optional<ServiceShard::Pending> rejected =
        queue_->try_push(std::move(pending));
    if (rejected.has_value()) {
      release_tenant_slot(rejected->request.tenant);
      SolveResponse shed =
          shards_[shard]->make_shed_response(rejected->request,
                                             "shed:queue-full",
                                             /*overload=*/true);
      shed.fingerprint = rejected->key;
      shards_[shard]->finish(*rejected, std::move(shed),
                             rejected->enqueue_ns);
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
  for (const auto& shard : shards_) {
    ShardStats s = shard->stats();
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

}  // namespace pcmax
