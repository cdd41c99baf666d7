// The service's overload layer end to end: tiered load shedding, tenant
// quotas, request coalescing, breaker re-routing, and the structured
// internal-error path — all made deterministic with a gate FaultHandler
// that parks the worker at a chosen fault site while the test arranges the
// queue into the exact pressure state it wants to observe.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/fingerprint.hpp"
#include "core/instance.hpp"
#include "core/instance_gen.hpp"
#include "service/solve_service.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"

namespace pcmax {
namespace {

/// Blocks the FIRST hit of one site until release(); later hits pass. Lets
/// a test freeze a worker mid-request and build queue pressure behind it.
class GateHandler final : public FaultHandler {
 public:
  explicit GateHandler(const char* site) : site_(site) {}

  void on_hit(const char* site) override {
    if (std::strcmp(site, site_) != 0) return;
    std::unique_lock lock(mutex_);
    if (released_ || blocked_) return;
    blocked_ = true;
    entered_.notify_all();
    gate_.wait(lock, [&] { return released_; });
  }

  void wait_until_blocked() {
    std::unique_lock lock(mutex_);
    entered_.wait(lock, [&] { return blocked_; });
  }

  void release() {
    {
      std::lock_guard lock(mutex_);
      released_ = true;
    }
    gate_.notify_all();
  }

 private:
  const char* site_;
  std::mutex mutex_;
  std::condition_variable entered_;
  std::condition_variable gate_;
  bool blocked_ = false;
  bool released_ = false;
};

/// Blocks the FIRST hit of one site until release() (like GateHandler) and
/// throws ResourceLimitError on hits [throw_from, throw_to]; every other
/// hit passes. Lets one test freeze a leader mid-solve AND deterministically
/// fail the requests dispatched behind it.
class GateThenThrowHandler final : public FaultHandler {
 public:
  GateThenThrowHandler(const char* site, std::uint64_t throw_from,
                       std::uint64_t throw_to)
      : site_(site), throw_from_(throw_from), throw_to_(throw_to) {}

  void on_hit(const char* site) override {
    if (std::strcmp(site, site_) != 0) return;
    const std::uint64_t hit =
        hits_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (hit == 1) {
      std::unique_lock lock(mutex_);
      blocked_ = true;
      entered_.notify_all();
      gate_.wait(lock, [&] { return released_; });
      return;
    }
    if (hit >= throw_from_ && hit <= throw_to_) {
      throw ResourceLimitError(resource_limit_message(
          std::string("test fault at '") + site_ + "'", hit - 1, hit));
    }
  }

  void wait_until_blocked() {
    std::unique_lock lock(mutex_);
    entered_.wait(lock, [&] { return blocked_; });
  }

  void release() {
    {
      std::lock_guard lock(mutex_);
      released_ = true;
    }
    gate_.notify_all();
  }

 private:
  const char* site_;
  const std::uint64_t throw_from_;
  const std::uint64_t throw_to_;
  std::atomic<std::uint64_t> hits_{0};
  std::mutex mutex_;
  std::condition_variable entered_;
  std::condition_variable gate_;
  bool blocked_ = false;
  bool released_ = false;
};

/// A GateHandler that also counts the hits of "service.coalesce". That site
/// is hit under the shard's in-flight lock just before a follower parks, so
/// once it has counted k hits, k followers are parked behind the leader.
class CoalesceCountingGate final : public FaultHandler {
 public:
  explicit CoalesceCountingGate(const char* site) : gate_(site) {}

  void on_hit(const char* site) override {
    if (std::strcmp(site, "service.coalesce") == 0) {
      parked_.fetch_add(1, std::memory_order_relaxed);
    }
    gate_.on_hit(site);
  }

  [[nodiscard]] std::uint64_t parked() const {
    return parked_.load(std::memory_order_relaxed);
  }
  void wait_until_blocked() { gate_.wait_until_blocked(); }
  void release() { gate_.release(); }

 private:
  GateHandler gate_;
  std::atomic<std::uint64_t> parked_{0};
};

Instance overload_instance(int seed) {
  return generate_instance(InstanceFamily::kUniform1To100, 3, 12,
                           static_cast<std::uint64_t>(seed), 0);
}

/// Big enough that the PTAS reliably runs its bisection loop — the gated
/// coalescing tests park the leader at the "bisection.probe" site.
Instance ptas_instance(int seed) {
  return generate_instance(InstanceFamily::kUniform1To100, 5, 30,
                           static_cast<std::uint64_t>(seed), 0);
}

// One frozen worker, a full queue behind it, then release: each drained
// request sees a deterministic queue depth, so the tiered admission layer
// walks the whole ladder — shed, heuristic, lite, full — in one cascade.
TEST(ServiceOverload, TieredPressureWalksTheWholeLadder) {
  GateHandler gate("service.request");
  FaultScope scope(gate);
  ServiceOptions options;
  options.workers = 1;
  options.queue_capacity = 4;
  options.shed_policy = ShedPolicy::kTiered;
  options.lite_pressure = 0.5;
  options.heavy_pressure = 0.75;
  options.shed_pressure = 1.0;
  options.breaker_enabled = false;  // isolate the pressure signal
  SolveService service(options);

  std::vector<SolveFuture> futures;
  futures.push_back(service.submit_async(SolveRequest{overload_instance(1)}));
  gate.wait_until_blocked();  // r0 is out of the queue, frozen in handle()
  for (int seed = 2; seed <= 5; ++seed) {  // r1..r4 fill the queue exactly
    futures.push_back(
        service.submit_async(SolveRequest{overload_instance(seed)}));
  }
  // r5 finds the queue full: shed at submit, resolved immediately.
  futures.push_back(service.submit_async(SolveRequest{overload_instance(6)}));
  SolveResponse overflow = futures.back().get();
  EXPECT_TRUE(overflow.shed);
  EXPECT_EQ(overflow.degradation_reason, "shed:queue-full");
  EXPECT_EQ(overflow.algorithm, "none");

  gate.release();
  std::vector<SolveResponse> responses;
  for (std::size_t i = 0; i + 1 < futures.size(); ++i) {
    responses.push_back(futures[i].get());
  }
  // r0 dispatched against depth 4/4 = 1.0 -> shed; r1 against 3/4 ->
  // heuristic; r2 against 2/4 -> lite; r3, r4 against low pressure -> full.
  EXPECT_EQ(responses[0].degradation_reason, "shed:pressure");
  EXPECT_TRUE(responses[0].shed);
  EXPECT_EQ(responses[1].degradation_reason, "pressure-heavy");
  EXPECT_FALSE(responses[1].shed);
  EXPECT_EQ(responses[2].degradation_reason, "pressure-lite");
  EXPECT_EQ(responses[3].degradation_reason, "none");
  EXPECT_EQ(responses[4].degradation_reason, "none");
  for (const SolveResponse& response : responses) {
    if (!response.shed) {
      EXPECT_GT(response.makespan, 0);
    }
  }
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.shed_overload, 2u);  // shed:queue-full + shed:pressure
  EXPECT_EQ(stats.shed_quota, 0u);
  EXPECT_EQ(stats.requests, 6u);
}

TEST(ServiceOverload, TenantQuotaShedsOnlyTheCappedTenant) {
  GateHandler gate("service.request");
  FaultScope scope(gate);
  ServiceOptions options;
  options.workers = 1;
  options.queue_capacity = 8;
  options.tenant_weights = {{"burst", 1}, {"steady", 3}};
  // burst may hold 8*1/4 = 2 queue slots; steady 6; "" stays uncapped.
  SolveService service(options);

  const auto submit = [&](int seed, const std::string& tenant) {
    SolveRequest request{overload_instance(seed)};
    request.tenant = tenant;
    return service.submit_async(std::move(request));
  };
  std::vector<SolveFuture> kept;
  kept.push_back(submit(1, "burst"));
  gate.wait_until_blocked();  // the first burst request left the queue
  kept.push_back(submit(2, "burst"));
  kept.push_back(submit(3, "burst"));  // burst now holds its 2 slots
  SolveFuture over_quota = submit(4, "burst");
  SolveResponse shed = over_quota.get();  // resolved without queueing
  EXPECT_TRUE(shed.shed);
  EXPECT_EQ(shed.degradation_reason, "shed:tenant-quota");
  EXPECT_EQ(shed.tenant, "burst");

  // Other tenants are untouched by burst's quota exhaustion.
  kept.push_back(submit(5, "steady"));
  kept.push_back(submit(6, ""));

  gate.release();
  for (SolveFuture& future : kept) {
    const SolveResponse response = future.get();
    EXPECT_FALSE(response.shed);
    EXPECT_GT(response.makespan, 0);
  }
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.shed_quota, 1u);
  EXPECT_EQ(stats.shed_overload, 0u);
}

// Concurrent duplicates of one fingerprint share the leader's in-flight
// solve, and the shared responses are identical to an unloaded solve of
// the same instance.
TEST(ServiceOverload, CoalescingSharesOneInflightSolve) {
  const Instance instance = ptas_instance(7);

  // The canonical answer, from an idle single-worker service.
  SolveResponse canonical_response;
  {
    ServiceOptions options;
    options.workers = 1;
    SolveService service(options);
    canonical_response =
        service.submit_async(SolveRequest{instance}).get();
    ASSERT_EQ(canonical_response.degradation_reason, "none");
  }

  // Freeze the leader INSIDE its solve: leadership is registered before
  // run_solver, so every duplicate dispatched meanwhile must park. Every
  // duplicate routes to the leader's shard, and every worker serves every
  // shard, so coalescing must fire whenever the service has a second
  // worker — also at one worker per shard.
  struct Arm {
    unsigned shards;
    unsigned workers;
  };
  for (const Arm arm : {Arm{1, 4}, Arm{2, 8}, Arm{2, 2}}) {
    SCOPED_TRACE("shards=" + std::to_string(arm.shards) +
                 " workers=" + std::to_string(arm.workers));
    CoalesceCountingGate gate("bisection.probe");
    FaultScope scope(gate);
    ServiceOptions options;
    options.shards = arm.shards;
    options.workers = arm.workers;
    options.queue_capacity = 32;
    SolveService service(options);

    std::vector<SolveFuture> futures;
    futures.push_back(service.submit_async(SolveRequest{instance}));
    gate.wait_until_blocked();
    constexpr int kFollowers = 7;
    for (int i = 0; i < kFollowers; ++i) {
      futures.push_back(service.submit_async(SolveRequest{instance}));
    }
    // Wait until every follower is parked. A follower that does not park
    // solves and caches the key, so the later ones hit and the count
    // stalls; the wait gives up after 10 s, and the checks below fail
    // instead of the test hanging.
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (gate.parked() < static_cast<std::uint64_t>(kFollowers) &&
           std::chrono::steady_clock::now() < give_up) {
      std::this_thread::yield();
    }
    gate.release();

    int coalesced = 0;
    for (SolveFuture& future : futures) {
      const SolveResponse response = future.get();
      EXPECT_EQ(response.degradation_reason, "none");
      EXPECT_EQ(response.makespan, canonical_response.makespan);
      EXPECT_EQ(response.schedule.assignment(instance),
                canonical_response.schedule.assignment(instance));
      EXPECT_FALSE(response.cache_hit);
      if (response.coalesced) {
        ++coalesced;
        EXPECT_EQ(response.notes.at("cache"), "coalesced");
      }
      response.schedule.validate(instance);
    }
    EXPECT_EQ(coalesced, kFollowers);
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.coalesced, static_cast<std::uint64_t>(kFollowers));
    // One solve, one cache store: misses reflect probes, not extra solves.
    EXPECT_EQ(stats.cache.misses, static_cast<std::uint64_t>(1 + kFollowers));
  }
}

// Every worker serves every shard: a cache hit is answered by an idle
// worker even while another worker is frozen in a miss of the same shard.
TEST(ServiceOverload, HitIsServedWhileAMissOfItsShardIsFrozen) {
  ServiceOptions options;
  options.shards = 2;
  options.workers = 2;
  SolveService service(options);

  // Warm key K.
  const Instance warm = ptas_instance(70);
  ASSERT_FALSE(service.submit_async(SolveRequest{warm}).get().cache_hit);
  const std::size_t home = service.shard_of(
      request_fingerprint(CanonicalInstance(warm), options.epsilon));

  // A miss routed to K's shard.
  int seed = 71;
  while (service.shard_of(request_fingerprint(
             CanonicalInstance(ptas_instance(seed)), options.epsilon)) !=
         home) {
    ++seed;
  }
  GateHandler gate("bisection.probe");
  FaultScope scope(gate);
  SolveFuture miss = service.submit_async(SolveRequest{ptas_instance(seed)});
  gate.wait_until_blocked();

  // A permuted K hits the cache on the other worker while the miss is
  // still frozen.
  std::vector<Time> times(warm.times().begin(), warm.times().end());
  std::reverse(times.begin(), times.end());
  SolveFuture hit =
      service.submit_async(SolveRequest{Instance(warm.machines(), times)});
  const SolveResponse response = hit.get_within_ms(2000);
  EXPECT_TRUE(response.cache_hit) << response.degradation_reason;
  EXPECT_EQ(static_cast<std::size_t>(response.shard), home);
  EXPECT_FALSE(miss.ready());

  gate.release();
  EXPECT_EQ(miss.get().degradation_reason, "none");
}

TEST(ServiceOverload, CoalescingOffSolvesEveryDuplicate) {
  const Instance instance = ptas_instance(8);
  GateHandler gate("bisection.probe");
  FaultScope scope(gate);
  ServiceOptions options;
  options.workers = 2;
  options.coalesce = false;
  options.cache_capacity = 0;  // no dedup at all: every request solves
  SolveService service(options);
  std::vector<SolveFuture> futures;
  futures.push_back(service.submit_async(SolveRequest{instance}));
  gate.wait_until_blocked();
  futures.push_back(service.submit_async(SolveRequest{instance}));
  gate.release();
  for (SolveFuture& future : futures) {
    const SolveResponse response = future.get();
    EXPECT_FALSE(response.coalesced);
    EXPECT_EQ(response.degradation_reason, "none");
  }
  EXPECT_EQ(service.stats().coalesced, 0u);
}

// An unknown (non-pcmax) exception on the worker becomes a structured
// internal-error response — never a dead worker or a hung future.
TEST(ServiceOverload, UnknownExceptionBecomesStructuredResponse) {
  FaultInjector injector("service.request", /*fire_at=*/1,
                         FaultInjector::Action::kThrowUnknown);
  FaultScope scope(injector);
  ServiceOptions options;
  options.workers = 1;
  SolveService service(options);
  const SolveResponse broken =
      service.submit_async(SolveRequest{overload_instance(9)}).get();
  EXPECT_TRUE(injector.fired());
  EXPECT_TRUE(broken.degraded);
  EXPECT_TRUE(broken.shed);
  EXPECT_EQ(broken.degradation_reason, "internal-error");
  EXPECT_NE(broken.notes.at("internal_error").find("injected unknown fault"),
            std::string::npos);

  // The worker survived: the next request is served normally.
  const SolveResponse healthy =
      service.submit_async(SolveRequest{overload_instance(9)}).get();
  EXPECT_EQ(healthy.degradation_reason, "none");
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.internal_errors, 1u);
  EXPECT_EQ(stats.requests, 2u);
}

// Typed pcmax errors still propagate through the future: the service must
// not convert caller bugs into results.
TEST(ServiceOverload, TypedErrorsStillPropagateThroughTheFuture) {
  ServiceOptions options;
  options.workers = 1;
  SolveService service(options);
  SolveRequest request{overload_instance(10)};
  // k = ceil(1/eps) = 100 blows the PTAS accuracy bound (< 64):
  // InvalidArgumentError from the worker thread.
  request.epsilon = 0.01;
  auto future = service.submit_async(std::move(request));
  EXPECT_THROW((void)future.get(), InvalidArgumentError);
  EXPECT_EQ(service.stats().internal_errors, 0u);
}

// Consecutive resource failures trip the breaker, open-breaker requests
// re-route to the cheap rung up front, and a probe closes it again.
TEST(ServiceOverload, BreakerTripsReroutesAndRecovers) {
  ServiceOptions options;
  options.workers = 1;
  options.cache_capacity = 0;  // every request must attempt a solve
  options.breaker.failure_threshold = 2;
  options.breaker.open_rejects = 2;
  SolveService service(options);

  const auto degrade_reason = [&](int seed) {
    return service.submit_async(SolveRequest{ptas_instance(seed)})
        .get()
        .degradation_reason;
  };

  // Two full-fidelity attempts whose PTAS rung blows a resource limit:
  // the ladder degrades each to MULTIFIT/LPT with a "resource-limit: ..."
  // reason, which is exactly what feeds the breaker's failure streak.
  for (int i = 0; i < 2; ++i) {
    FaultInjector injector("bisection.probe", /*fire_at=*/1,
                           FaultInjector::Action::kThrow);
    FaultScope scope(injector);
    const SolveResponse response =
        service.submit_async(SolveRequest{ptas_instance(20 + i)}).get();
    EXPECT_TRUE(injector.fired());
    EXPECT_TRUE(response.degraded);
    EXPECT_EQ(response.degradation_reason.rfind("resource-limit", 0), 0u);
  }
  EXPECT_EQ(service.breaker().state("ptas"), BreakerState::kOpen);
  EXPECT_GE(service.stats().breaker.trips, 1u);

  // While open, full-fidelity requests are re-routed without an attempt.
  EXPECT_EQ(degrade_reason(30), "breaker-open:ptas");
  EXPECT_EQ(degrade_reason(31), "breaker-open:ptas");
  // Cooldown (2 rejects) served: the next request probes and succeeds.
  EXPECT_EQ(service.breaker().state("ptas"), BreakerState::kHalfOpen);
  EXPECT_EQ(degrade_reason(32), "none");
  EXPECT_EQ(service.breaker().state("ptas"), BreakerState::kClosed);
  EXPECT_GE(service.stats().breaker.closes, 1u);
}

// A half-open probe that dies to a NON-resource exception must abandon its
// probe slot (the BreakerAttempt guard), never leak it: before the guard,
// the leaked slot made allow() reject every future attempt, disabling the
// full-fidelity tier forever.
TEST(ServiceOverload, UnknownExceptionDuringProbeReleasesTheSlot) {
  ServiceOptions options;
  options.workers = 1;
  options.cache_capacity = 0;  // every request must attempt a solve
  options.breaker.failure_threshold = 2;
  options.breaker.open_rejects = 2;
  SolveService service(options);

  // Trip: two resource failures on the PTAS rung.
  for (int i = 0; i < 2; ++i) {
    FaultInjector injector("bisection.probe", /*fire_at=*/1,
                           FaultInjector::Action::kThrow);
    FaultScope scope(injector);
    (void)service.submit_async(SolveRequest{ptas_instance(40 + i)}).get();
  }
  ASSERT_EQ(service.breaker().state("ptas"), BreakerState::kOpen);
  // Serve the cooldown: two rerouted requests.
  for (int seed = 42; seed <= 43; ++seed) {
    (void)service.submit_async(SolveRequest{ptas_instance(seed)}).get();
  }
  ASSERT_EQ(service.breaker().state("ptas"), BreakerState::kHalfOpen);

  // The probe throws an unknown (non-pcmax) exception mid-solve: the
  // request resolves as a structured internal error, and the probe slot is
  // abandoned, not leaked.
  {
    FaultInjector injector("bisection.probe", /*fire_at=*/1,
                           FaultInjector::Action::kThrowUnknown);
    FaultScope scope(injector);
    const SolveResponse broken =
        service.submit_async(SolveRequest{ptas_instance(44)}).get();
    EXPECT_EQ(broken.degradation_reason, "internal-error");
  }
  EXPECT_EQ(service.breaker().state("ptas"), BreakerState::kHalfOpen);
  EXPECT_GE(service.breaker().stats("ptas").abandons, 1u);

  // The slot is free: the next attempt probes, succeeds, and closes.
  const SolveResponse healthy =
      service.submit_async(SolveRequest{ptas_instance(45)}).get();
  EXPECT_EQ(healthy.degradation_reason, "none");
  EXPECT_EQ(service.breaker().state("ptas"), BreakerState::kClosed);
}

// A duplicate admitted as the half-open PROBE that then parks behind an
// in-flight leader must release its probe slot as it parks — the leader
// owns the solve's verdict, and a parked follower reports none.
TEST(ServiceOverload, ParkedFollowerReleasesItsHalfOpenProbeSlot) {
  // Hit 1 of bisection.probe freezes the leader mid-solve; hits 2-3 throw,
  // tripping the breaker behind it; later hits pass.
  GateThenThrowHandler handler("bisection.probe", /*throw_from=*/2,
                               /*throw_to=*/3);
  FaultScope scope(handler);
  ServiceOptions options;
  options.workers = 2;
  options.cache_capacity = 0;
  options.breaker.failure_threshold = 2;
  options.breaker.open_rejects = 2;
  SolveService service(options);

  // The leader is admitted while the breaker is CLOSED and freezes inside
  // its solve, holding leadership of its fingerprint.
  const Instance shared = ptas_instance(50);
  SolveFuture leader = service.submit_async(SolveRequest{shared});
  handler.wait_until_blocked();

  // Two resource failures behind it trip the breaker...
  for (int seed = 51; seed <= 52; ++seed) {
    const SolveResponse failed =
        service.submit_async(SolveRequest{ptas_instance(seed)}).get();
    EXPECT_EQ(failed.degradation_reason.rfind("resource-limit", 0), 0u);
  }
  ASSERT_EQ(service.breaker().state("ptas"), BreakerState::kOpen);
  // ...and two rerouted requests serve the cooldown.
  for (int seed = 53; seed <= 54; ++seed) {
    EXPECT_EQ(service.submit_async(SolveRequest{ptas_instance(seed)})
                  .get()
                  .degradation_reason,
              "breaker-open:ptas");
  }
  ASSERT_EQ(service.breaker().state("ptas"), BreakerState::kHalfOpen);

  // The duplicate is admitted as probe #1, finds the frozen leader in
  // flight, and parks — abandoning the probe slot on the way.
  SolveFuture follower = service.submit_async(SolveRequest{shared});
  while (service.breaker().stats("ptas").abandons == 0) {
    std::this_thread::yield();
  }
  EXPECT_EQ(service.breaker().state("ptas"), BreakerState::kHalfOpen);

  // The slot is free again: a fresh request is admitted as probe #2,
  // succeeds, and closes the breaker (with the leak, every attempt from
  // here on was rejected with "breaker-open:ptas").
  const SolveResponse probe =
      service.submit_async(SolveRequest{ptas_instance(55)}).get();
  EXPECT_EQ(probe.degradation_reason, "none");
  EXPECT_EQ(service.breaker().state("ptas"), BreakerState::kClosed);
  EXPECT_EQ(service.breaker().stats("ptas").probes, 2u);

  handler.release();
  const SolveResponse led = leader.get();
  EXPECT_EQ(led.degradation_reason, "none");
  const SolveResponse shared_result = follower.get();
  EXPECT_TRUE(shared_result.coalesced);
  EXPECT_EQ(shared_result.makespan, led.makespan);
}

// Under the tiered policy a nearly spent deadline weighs at least
// lite_pressure: the request degrades itself ("deadline-near", like the
// static policy) instead of launching a doomed PTAS whose certain failure
// would feed the breaker's streak and trip it for everyone else.
TEST(ServiceOverload, TieredDeadlineNearDegradesWithoutFeedingTheBreaker) {
  ServiceOptions options;
  options.workers = 1;
  options.cache_capacity = 0;
  options.shed_policy = ShedPolicy::kTiered;
  options.deadline_near_ms = 1'000'000;  // any finite budget is "near"
  SolveService service(options);
  for (int seed = 60; seed < 63; ++seed) {
    SolveRequest request{overload_instance(seed)};
    request.time_limit_ms = 5;
    const SolveResponse response =
        service.submit_async(std::move(request)).get();
    EXPECT_EQ(response.degradation_reason, "deadline-near");
    EXPECT_FALSE(response.shed);
    EXPECT_GT(response.makespan, 0);
  }
  // The doomed requests never reached the full-fidelity rung: no failure
  // streak, no trip — the breaker stays closed for everyone else.
  const BreakerKeyStats breaker = service.breaker().stats("ptas");
  EXPECT_EQ(breaker.failures, 0u);
  EXPECT_EQ(breaker.trips, 0u);
  EXPECT_EQ(service.breaker().state("ptas"), BreakerState::kClosed);
}

}  // namespace
}  // namespace pcmax
