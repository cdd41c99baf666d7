// Concurrency stress for the batch service: many submitter threads against
// few workers, a small queue (real backpressure), a small cache (real
// evictions), mixed budgets and cancels. Run under TSan via the `sanitize`
// label (PCMAX_SANITIZE=thread build).
//
// Invariants: every future resolves, no response is lost or duplicated,
// every schedule is valid for the instance that was submitted, counters add
// up, and destruction drains the queue instead of abandoning it.
#include <gtest/gtest.h>

#include <algorithm>
#include <future>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/instance_gen.hpp"
#include "service/solve_service.hpp"

namespace pcmax {
namespace {

std::vector<Instance> instance_pool() {
  std::vector<Instance> pool;
  for (std::uint64_t index = 0; index < 6; ++index) {
    pool.push_back(generate_instance(InstanceFamily::kUniform1To10, 3, 12, 61,
                                     index));
  }
  // Permuted twins of the first three, so the pool dedups to 6 fingerprints.
  for (std::uint64_t index = 0; index < 3; ++index) {
    std::vector<Time> times(pool[index].times().begin(),
                            pool[index].times().end());
    std::rotate(times.begin(), times.begin() + 5, times.end());
    pool.emplace_back(pool[index].machines(), std::move(times));
  }
  return pool;
}

TEST(ServiceStress, ConcurrentSubmittersLoseNoResponses) {
  constexpr int kSubmitters = 4;
  constexpr int kPerSubmitter = 12;
  ServiceOptions options;
  options.workers = 4;
  options.lane_width = 1;
  options.queue_capacity = 4;  // small: submitters block on backpressure
  options.cache_capacity = 4;  // small: real evictions under load
  options.epsilon = 0.5;
  const std::vector<Instance> pool = instance_pool();

  std::mutex mutex;
  std::vector<std::pair<std::size_t, SolveResponse>> collected;
  {
    SolveService service(options);
    std::vector<std::thread> submitters;
    submitters.reserve(kSubmitters);
    for (int t = 0; t < kSubmitters; ++t) {
      submitters.emplace_back([&, t] {
        std::vector<std::pair<std::size_t, SolveFuture>> local;
        for (int i = 0; i < kPerSubmitter; ++i) {
          const std::size_t pool_index =
              static_cast<std::size_t>(t * kPerSubmitter + i) % pool.size();
          SolveRequest request{pool[pool_index]};
          if (i % 5 == 4) request.epsilon = 0.8;  // a second request key
          local.emplace_back(pool_index,
                             service.submit_async(std::move(request)));
        }
        for (auto& [pool_index, future] : local) {
          SolveResponse response = future.get();
          response.schedule.validate(pool[pool_index]);
          std::lock_guard lock(mutex);
          collected.emplace_back(pool_index, std::move(response));
        }
      });
    }
    for (std::thread& submitter : submitters) submitter.join();

    const ServiceStats stats = service.stats();
    constexpr std::uint64_t kTotal =
        static_cast<std::uint64_t>(kSubmitters) * kPerSubmitter;
    EXPECT_EQ(stats.requests, kTotal);
    // Every request probed the cache exactly once (the probe precedes the
    // admission decision), so hit + miss accounting must close.
    EXPECT_EQ(stats.cache.hits + stats.cache.misses, kTotal);
    EXPECT_LE(stats.queue_high_watermark, options.queue_capacity);
    EXPECT_GT(stats.cache.hits, 0u);
    std::uint64_t degraded = 0;
    for (const auto& [pool_index, response] : collected) {
      if (response.degraded) ++degraded;
    }
    EXPECT_EQ(stats.degraded, degraded);
  }

  ASSERT_EQ(collected.size(),
            static_cast<std::size_t>(kSubmitters) * kPerSubmitter);
  std::set<std::uint64_t> ids;
  for (const auto& [pool_index, response] : collected) {
    EXPECT_TRUE(ids.insert(response.id).second)
        << "duplicated response id " << response.id;
  }
  // The tiny queue makes the "queue-saturated" admission gate fire for real
  // under submitter pressure; degraded responses carry the fallback ladder's
  // answer, so only non-degraded responses (full canonical solves and cache
  // hits — pure functions of the problem) must agree per fingerprint.
  std::map<std::string, Time> by_key;
  for (const auto& [pool_index, response] : collected) {
    if (response.degraded) {
      EXPECT_EQ(response.degradation_reason, "queue-saturated");
      continue;
    }
    const auto [it, inserted] = by_key.emplace(response.fingerprint.to_hex(),
                                               response.makespan);
    if (!inserted) {
      EXPECT_EQ(it->second, response.makespan);
    }
  }
}

TEST(ServiceStress, DestructionDrainsEveryQueuedRequest) {
  ServiceOptions options;
  options.workers = 2;
  options.queue_capacity = 32;
  options.epsilon = 0.5;
  const std::vector<Instance> pool = instance_pool();
  std::vector<SolveFuture> futures;
  {
    SolveService service(options);
    for (int i = 0; i < 16; ++i) {
      futures.push_back(service.submit_async(
          SolveRequest{pool[static_cast<std::size_t>(i) % pool.size()]}));
    }
    // Destroy immediately: close + drain, no abandoned futures.
  }
  for (auto& future : futures) {
    const SolveResponse response = future.get();
    EXPECT_GT(response.makespan, 0);
  }
}

TEST(ServiceStress, PreCancelledRequestsDegradeInsteadOfHanging) {
  ServiceOptions options;
  options.workers = 2;
  options.epsilon = 0.5;
  const Instance instance =
      generate_instance(InstanceFamily::kUniform1To100, 3, 15, 71, 0);
  SolveService service(options);
  SolveRequest request{instance};
  request.cancel = CancellationToken::make();
  request.cancel.request_cancel();
  const SolveResponse response = service.submit_async(std::move(request)).get();
  response.schedule.validate(instance);
  EXPECT_TRUE(response.degraded);
  EXPECT_EQ(response.degradation_reason, "cancelled");
  // A cancelled request's (degraded) result must not poison the cache.
  const SolveResponse healthy =
      service.submit_async(SolveRequest{instance}).get();
  EXPECT_FALSE(healthy.cache_hit);
  EXPECT_FALSE(healthy.degraded);
}

TEST(ServiceStress, TinyBudgetsAlwaysResolveWithValidSchedules) {
  // Deadline pressure from admission: some requests degrade ("deadline-near"
  // or mid-solve trips) but every future resolves with a complete schedule.
  ServiceOptions options;
  options.workers = 2;
  options.queue_capacity = 4;
  options.epsilon = 0.3;
  options.deadline_near_ms = 1'000'000;  // any finite budget is "near"
  const std::vector<Instance> pool = instance_pool();
  SolveService service(options);
  std::vector<std::pair<std::size_t, SolveFuture>> futures;
  for (int i = 0; i < 12; ++i) {
    const std::size_t pool_index =
        static_cast<std::size_t>(i) % pool.size();
    SolveRequest request{pool[pool_index]};
    request.time_limit_ms = 5;  // finite => degrades at dispatch
    futures.emplace_back(pool_index, service.submit_async(std::move(request)));
  }
  int degraded = 0;
  for (auto& [pool_index, future] : futures) {
    const SolveResponse response = future.get();
    response.schedule.validate(pool[pool_index]);
    if (response.degraded) ++degraded;
    if (!response.cache_hit) {
      // Cache hits short-circuit before the admission check; everything
      // else must have degraded under this configuration.
      EXPECT_TRUE(response.degraded) << response.degradation_reason;
    }
  }
  EXPECT_GT(degraded, 0);
  EXPECT_EQ(service.stats().degraded, static_cast<std::uint64_t>(degraded));
}

}  // namespace
}  // namespace pcmax
