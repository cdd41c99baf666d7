// Chaos soak: a live service stormed by a deterministic multi-site fault
// schedule while 8 concurrent submitters flood it with a duplicate-heavy
// mix. The acceptance bar is absolute: the soak completes (no crash, no
// hang, no dead worker), and EVERY submitted request resolves with either
// a valid schedule or structured degraded/shed/internal-error provenance.
// Runs under the `chaos` ctest label and, TSan-instrumented, under
// `sanitize` (tools/check.sh).

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/instance.hpp"
#include "core/instance_gen.hpp"
#include "service/solve_service.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"

namespace pcmax {
namespace {

// A ChaosInjector's fire schedule is a pure function of (seed, site): two
// identical single-threaded runs fire at identical hit ordinals, and every
// gap between fires stays inside [min_gap, max_gap].
TEST(ChaosInjector, ScheduleReplaysBitIdenticallyFromTheSeed) {
  ChaosOptions options;
  options.seed = 7;
  options.min_gap = 4;
  options.max_gap = 9;
  const auto run = [&options] {
    ChaosInjector chaos(options, {"soak.alpha", "soak.beta"});
    FaultScope scope(chaos);
    std::vector<std::vector<std::uint64_t>> fired_at(2);
    for (std::uint64_t i = 1; i <= 300; ++i) {
      const char* const sites[] = {"soak.alpha", "soak.beta"};
      for (std::size_t s = 0; s < 2; ++s) {
        try {
          fault_hit(sites[s]);
        } catch (const ResourceLimitError&) {
          fired_at[s].push_back(i);  // i == this site's own hit ordinal
        }
      }
    }
    return fired_at;
  };
  const std::vector<std::vector<std::uint64_t>> first = run();
  EXPECT_EQ(first, run());
  for (const std::vector<std::uint64_t>& site_fires : first) {
    ASSERT_GE(site_fires.size(), 2u);
    EXPECT_GE(site_fires.front(), options.min_gap);
    EXPECT_LE(site_fires.front(), options.max_gap);
    for (std::size_t i = 1; i < site_fires.size(); ++i) {
      const std::uint64_t gap = site_fires[i] - site_fires[i - 1];
      EXPECT_GE(gap, options.min_gap);
      EXPECT_LE(gap, options.max_gap);
    }
  }
  // The two sites run INDEPENDENT streams: they must not fire in lockstep.
  EXPECT_NE(first[0], first[1]);
}

// Concurrency regression: while one thread fires and republishes the next
// fire point, the others keep claiming hit ordinals. With an EQUALITY
// comparison the new fire point could be claimed before the store became
// visible, and the site then never fired again. The >=-based schedule
// guarantees the next fire point always stays within max_gap of the
// ordinals already claimed — so after any amount of concurrent hammering,
// one single-threaded burst of max_gap + 1 hits must produce a fire.
TEST(ChaosInjector, ConcurrentHammerNeverSilencesASite) {
  ChaosOptions options;
  options.seed = 11;
  options.min_gap = 2;
  options.max_gap = 8;
  ChaosInjector chaos(options, {"soak.hammer"});
  constexpr int kThreads = 8;
  constexpr std::uint64_t kHitsPerThread = 20'000;
  std::vector<std::thread> hammers;
  hammers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    hammers.emplace_back([&chaos] {
      for (std::uint64_t i = 0; i < kHitsPerThread; ++i) {
        try {
          chaos.on_hit("soak.hammer");
        } catch (const ResourceLimitError&) {
        }
      }
    });
  }
  for (std::thread& hammer : hammers) hammer.join();
  EXPECT_EQ(chaos.hits("soak.hammer"), kThreads * kHitsPerThread);
  EXPECT_GT(chaos.total_fires(), 0u);

  const std::uint64_t fires_before = chaos.fires("soak.hammer");
  bool fired = false;
  for (std::uint64_t i = 0; i <= options.max_gap && !fired; ++i) {
    try {
      chaos.on_hit("soak.hammer");
    } catch (const ResourceLimitError&) {
      fired = true;
    }
  }
  EXPECT_TRUE(fired) << "site went permanently quiet after the hammer";
  EXPECT_EQ(chaos.fires("soak.hammer"), fires_before + 1);
}

TEST(ChaosInjector, DifferentSeedsProduceDifferentSchedules) {
  const auto fires = [](std::uint64_t seed) {
    ChaosOptions options;
    options.seed = seed;
    options.min_gap = 2;
    options.max_gap = 40;
    ChaosInjector chaos(options, {"soak.gamma"});
    FaultScope scope(chaos);
    std::vector<std::uint64_t> fired_at;
    for (std::uint64_t i = 1; i <= 400; ++i) {
      try {
        fault_hit("soak.gamma");
      } catch (const ResourceLimitError&) {
        fired_at.push_back(i);
      }
    }
    return fired_at;
  };
  EXPECT_NE(fires(1), fires(2));
}

TEST(ChaosSoak, ServiceSurvivesAStormAcrossEveryRegisteredSite) {
  // Warm the site registry: one clean pass through the service touches
  // every site on the serving path (service.shard.dispatch, service.request,
  // service.cache, breaker.allow, service.future, and the solver-internal
  // sites below them).
  {
    ServiceOptions options;
    options.workers = 2;
    SolveService service(options);
    for (int seed = 0; seed < 3; ++seed) {
      const SolveResponse response =
          service
              .submit(SolveRequest{generate_instance(
                  InstanceFamily::kUniform1To100, 4, 20,
                  static_cast<std::uint64_t>(seed), 0)})
              .get();
      ASSERT_EQ(response.degradation_reason, "none");
    }
  }
  const std::vector<std::string> sites = fault_sites();
  for (const char* required :
       {"service.request", "service.cache", "breaker.allow",
        "bisection.probe", "service.shard.dispatch", "service.future"}) {
    EXPECT_NE(std::find(sites.begin(), sites.end(), required), sites.end())
        << "missing site " << required;
  }

  // Storm the full registry: every instrumented path can now throw.
  ChaosOptions chaos_options;
  chaos_options.seed = 2026;
  chaos_options.min_gap = 8;
  chaos_options.max_gap = 96;
  ChaosInjector chaos(chaos_options, sites);
  FaultScope scope(chaos);

  ServiceOptions options;
  options.shards = 4;  // soak the sharded dispatch path, not just one shard
  options.workers = 4;
  options.queue_capacity = 32;
  options.cache_capacity = 64;
  options.shed_policy = ShedPolicy::kTiered;
  options.breaker.failure_threshold = 2;
  options.breaker.open_rejects = 4;
  SolveService service(options);

  constexpr int kSubmitters = 8;
  constexpr int kPerSubmitter = 30;
  std::atomic<int> structured{0};
  std::atomic<int> solved{0};
  std::vector<std::thread> submitters;
  submitters.reserve(kSubmitters);
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&, s] {
      for (int i = 0; i < kPerSubmitter; ++i) {
        // Duplicate-heavy mix: 8 distinct problems across the whole soak,
        // so coalescing and the cache are constantly in play.
        const Instance instance = generate_instance(
            InstanceFamily::kUniform1To100, 3, 14,
            static_cast<std::uint64_t>((s + i) % 8), 0);
        const SolveResponse response =
            service.submit(SolveRequest{instance}).get();
        ASSERT_FALSE(response.degradation_reason.empty());
        if (response.shed) {
          // Structured reject: provenance instead of a schedule.
          ASSERT_TRUE(
              response.degradation_reason.rfind("shed:", 0) == 0 ||
              response.degradation_reason == "internal-error")
              << response.degradation_reason;
          structured.fetch_add(1, std::memory_order_relaxed);
        } else {
          // Anything else must carry a complete valid schedule, degraded
          // or not.
          ASSERT_NO_THROW(response.schedule.validate(instance))
              << response.degradation_reason;
          ASSERT_GT(response.makespan, 0);
          solved.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& submitter : submitters) submitter.join();

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.requests,
            static_cast<std::uint64_t>(kSubmitters * kPerSubmitter));
  EXPECT_EQ(solved.load() + structured.load(), kSubmitters * kPerSubmitter);
  // The storm actually stormed: chaos fired, and the service absorbed it.
  EXPECT_GT(chaos.total_fires(), 0u);
  EXPECT_GT(solved.load(), 0);
}

}  // namespace
}  // namespace pcmax
