// Differential tests of the batch service against fresh solves.
//
// The service contract: a response is a pure function of the PROBLEM
// (machines, job multiset, epsilon) — it solves the canonical twin and lifts
// the schedule through the request's sort permutation. So the reference a
// response must match byte-for-byte is "canonicalize, solve fresh with the
// same resilient ladder, lift" — for misses AND hits alike, in any job
// order, at any worker count.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "core/fingerprint.hpp"
#include "core/instance_gen.hpp"
#include "core/resilient_solver.hpp"
#include "service/solve_service.hpp"

namespace pcmax {
namespace {

struct Reference {
  Time makespan;
  Schedule schedule;
  std::string algorithm;
};

/// What the service must reproduce: fresh single-threaded resilient solve of
/// the canonical twin, lifted back through the request's permutation.
Reference reference_solve(const Instance& instance,
                          const ServiceOptions& options) {
  const CanonicalInstance canonical(instance);
  ResilientOptions resilient;
  resilient.ptas.epsilon = options.epsilon;
  resilient.multifit_iterations = options.multifit_iterations;
  resilient.local_search_rounds = options.local_search_rounds;
  SolverResult result = ResilientSolver(resilient).solve(canonical.instance());
  Schedule lifted =
      canonical.lift(result.schedule.assignment(canonical.instance()));
  return Reference{result.makespan, std::move(lifted),
                   result.notes.at("algorithm_used")};
}

Instance permuted(const Instance& instance, std::uint64_t seed) {
  std::vector<Time> times(instance.times().begin(), instance.times().end());
  std::mt19937_64 rng(seed);
  std::shuffle(times.begin(), times.end(), rng);
  return Instance(instance.machines(), std::move(times));
}

/// Generous admission so nothing in these tests ever degrades.
ServiceOptions lenient_options(unsigned workers) {
  ServiceOptions options;
  options.workers = workers;
  options.queue_capacity = 256;
  options.cache_capacity = 256;
  options.epsilon = 0.3;
  return options;
}

TEST(ServiceDifferential, MissesMatchFreshCanonicalSolvesByteForByte) {
  const ServiceOptions options = lenient_options(1);
  SolveService service(options);
  for (const InstanceFamily family : all_families()) {
    for (const auto& [m, n] : {std::pair{3, 12}, std::pair{5, 24}}) {
      const Instance instance = generate_instance(family, m, n, 17, 0);
      const SolveResponse response =
          service.submit_async(SolveRequest{instance}).get();
      const Reference expected = reference_solve(instance, options);
      EXPECT_FALSE(response.cache_hit) << family_name(family);
      EXPECT_FALSE(response.degraded) << response.degradation_reason;
      EXPECT_EQ(response.makespan, expected.makespan) << family_name(family);
      EXPECT_EQ(response.schedule, expected.schedule) << family_name(family);
      EXPECT_EQ(response.algorithm, expected.algorithm);
      response.schedule.validate(instance);
    }
  }
}

TEST(ServiceDifferential, HitsAreIndistinguishableFromMisses) {
  const ServiceOptions options = lenient_options(1);
  SolveService service(options);
  const Instance instance =
      generate_instance(InstanceFamily::kUniform1To100, 4, 20, 23, 0);
  const Reference expected = reference_solve(instance, options);
  const SolveResponse first =
      service.submit_async(SolveRequest{instance}).get();
  EXPECT_FALSE(first.cache_hit);
  EXPECT_EQ(first.makespan, expected.makespan);
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const Instance twin = permuted(instance, seed);
    const SolveResponse response =
        service.submit_async(SolveRequest{twin}).get();
    EXPECT_TRUE(response.cache_hit) << "seed " << seed;
    EXPECT_EQ(response.fingerprint, first.fingerprint);
    EXPECT_EQ(response.makespan, expected.makespan);
    EXPECT_EQ(response.algorithm, expected.algorithm);
    response.schedule.validate(twin);
    // The twin's schedule must also be the reference schedule of the twin
    // itself: canonical solving makes hit/miss content identical.
    const Reference twin_expected = reference_solve(twin, options);
    EXPECT_EQ(response.makespan, twin_expected.makespan);
    EXPECT_EQ(response.schedule, twin_expected.schedule);
  }
  EXPECT_EQ(service.stats().cache.hits, 4u);
}

TEST(ServiceDifferential, ResponsesAreWorkerCountInvariant) {
  // Concurrency changes who computes, never what: a 4-worker service must
  // produce the same content as a 1-worker service for the same batch.
  std::vector<Instance> instances;
  for (std::uint64_t index = 0; index < 6; ++index) {
    instances.push_back(generate_instance(InstanceFamily::kUniform1To10, 3, 15,
                                          31, index));
    instances.push_back(permuted(instances.back(), index + 100));
  }
  std::vector<std::vector<SolveResponse>> arms;
  for (const unsigned workers : {1u, 4u}) {
    SolveService service(lenient_options(workers));
    std::vector<SolveRequest> batch;
    for (const Instance& instance : instances) {
      batch.push_back(SolveRequest{instance});
    }
    arms.push_back(service.solve_batch(std::move(batch)));
  }
  ASSERT_EQ(arms[0].size(), arms[1].size());
  for (std::size_t i = 0; i < arms[0].size(); ++i) {
    EXPECT_EQ(arms[0][i].makespan, arms[1][i].makespan) << i;
    EXPECT_EQ(arms[0][i].schedule, arms[1][i].schedule) << i;
    EXPECT_EQ(arms[0][i].fingerprint, arms[1][i].fingerprint) << i;
    EXPECT_FALSE(arms[1][i].degraded) << arms[1][i].degradation_reason;
  }
}

TEST(ServiceDifferential, FingerprintsArePermutationInvariantAndCollisionFree) {
  const ServiceOptions options = lenient_options(2);
  SolveService service(options);
  std::vector<SolveRequest> batch;
  std::vector<Instance> submitted;
  for (const InstanceFamily family : all_families()) {
    for (std::uint64_t index = 0; index < 3; ++index) {
      const Instance instance = generate_instance(family, 3, 10, 47, index);
      submitted.push_back(instance);
      submitted.push_back(permuted(instance, index + 1));
    }
  }
  for (const Instance& instance : submitted) {
    batch.push_back(SolveRequest{instance});
  }
  const std::vector<SolveResponse> responses =
      service.solve_batch(std::move(batch));
  // One fingerprint <=> one canonical problem; equal fingerprints must
  // report identical makespans (hit or miss, either order).
  std::map<std::string, std::pair<Instance, Time>> by_key;
  for (std::size_t i = 0; i < responses.size(); ++i) {
    const CanonicalInstance canonical(submitted[i]);
    EXPECT_EQ(responses[i].fingerprint,
              request_fingerprint(canonical, options.epsilon));
    const auto [it, inserted] = by_key.emplace(
        responses[i].fingerprint.to_hex(),
        std::pair{canonical.instance(), responses[i].makespan});
    if (!inserted) {
      EXPECT_EQ(it->second.first, canonical.instance()) << "collision at " << i;
      EXPECT_EQ(it->second.second, responses[i].makespan) << i;
    }
  }
  // Every pair (original, twin) collapsed to one key.
  EXPECT_EQ(by_key.size(), submitted.size() / 2);
}

TEST(ServiceDifferential, BatchPreservesRequestOrder) {
  SolveService service(lenient_options(3));
  std::vector<SolveRequest> batch;
  std::vector<int> expected_jobs;
  for (int n = 5; n < 17; ++n) {
    batch.push_back(SolveRequest{generate_instance(
        InstanceFamily::kUniform1To10, 2, n, 53, static_cast<std::uint64_t>(n))});
    expected_jobs.push_back(n);
  }
  const std::vector<SolveResponse> responses =
      service.solve_batch(std::move(batch));
  ASSERT_EQ(responses.size(), expected_jobs.size());
  for (std::size_t i = 0; i < responses.size(); ++i) {
    EXPECT_EQ(responses[i].jobs, expected_jobs[i]) << i;
  }
}

}  // namespace
}  // namespace pcmax
