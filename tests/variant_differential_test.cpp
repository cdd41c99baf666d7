// Differential suites for the problem variants (ctest labels: variants,
// service).
//
//  * Capacity: the min(m, B) reduction (core/variant.hpp) against the
//    independent raw-enumeration reference (CapacityBruteForceSolver prunes
//    >B active machines on all m machines and never reduces) — equal optima
//    on exhaustive tiny sweeps, plus the PTAS-through-adapter staying inside
//    its (1 + eps) bound of the TRUE capacity optimum.
//  * Incremental: the O(1) commutative-lane fingerprint against full
//    re-canonicalization after every delta of randomized add/remove
//    sequences, and IncrementalSession's prepared-submission fast path
//    against a fresh from-scratch submit of the same multiset.
#include <gtest/gtest.h>

#include <random>
#include <set>
#include <vector>

#include "algo/ptas/ptas.hpp"
#include "core/fingerprint.hpp"
#include "core/instance.hpp"
#include "core/instance_gen.hpp"
#include "core/solver_registry.hpp"
#include "core/variant.hpp"
#include "exact/brute_force.hpp"
#include "service/incremental.hpp"
#include "service/solve_service.hpp"
#include "util/error.hpp"

namespace pcmax {
namespace {

// --- capacity: reduction vs raw enumeration ---

TEST(VariantDifferential, CapacityOptimumEqualsReducedClassicOptimum) {
  int cases = 0;
  for (int m = 2; m <= 4; ++m) {
    for (Time b = 1; b <= m; ++b) {
      for (int n = 5; n <= 7; ++n) {
        for (std::uint64_t seed : {11ULL, 29ULL}) {
          const Instance base = generate_instance(
              InstanceFamily::kUniform1To10, m, n, seed, 0);
          const Instance capped = Instance::capacity_restricted(
              m, std::vector<Time>(base.times().begin(), base.times().end()),
              b);
          // The raw reference never reduces; the twin path is the reduction.
          const Time raw = capacity_brute_force_optimum(capped);
          const Time reduced = brute_force_optimum(variant_classic_twin(capped));
          EXPECT_EQ(raw, reduced)
              << "m=" << m << " B=" << b << " n=" << n << " seed=" << seed;
          ++cases;
        }
      }
    }
  }
  EXPECT_EQ(cases, 54);
}

TEST(VariantDifferential, CapacityBruteSolverScheduleIsOptimalAndFeasible) {
  for (int m = 2; m <= 4; ++m) {
    for (Time b = 1; b <= m; ++b) {
      const Instance base =
          generate_instance(InstanceFamily::kUniform1To10, m, 6, 3, 0);
      const Instance capped = Instance::capacity_restricted(
          m, std::vector<Time>(base.times().begin(), base.times().end()), b);
      const SolverResult result =
          SolverRegistry::global()
              .create_for("capacity-brute", SolverBuild{}, capped)
              ->solve(capped);
      validate_variant_schedule(capped, result.schedule);
      EXPECT_TRUE(result.proven_optimal);
      EXPECT_EQ(result.makespan, capacity_brute_force_optimum(capped));
    }
  }
}

TEST(VariantDifferential, PtasThroughAdapterStaysInsideItsBound) {
  const double epsilon = 0.25;
  for (int m = 3; m <= 4; ++m) {
    for (Time b = 1; b <= m; ++b) {
      for (std::uint64_t seed : {5ULL, 17ULL}) {
        const Instance base = generate_instance(
            InstanceFamily::kUniform1To10, m, 7, seed, 1);
        const Instance capped = Instance::capacity_restricted(
            m, std::vector<Time>(base.times().begin(), base.times().end()), b);
        const Time optimum = capacity_brute_force_optimum(capped);
        PtasOptions options;
        options.epsilon = epsilon;
        PtasSolver ptas(options);
        const SolverResult result = solve_variant_with(ptas, capped);
        validate_variant_schedule(capped, result.schedule);
        EXPECT_GE(result.makespan, optimum);
        EXPECT_LE(static_cast<double>(result.makespan),
                  (1.0 + epsilon) * static_cast<double>(optimum) + 1e-9)
            << "m=" << m << " B=" << b << " seed=" << seed;
      }
    }
  }
}

// --- incremental: O(1) fingerprint vs full re-canonicalization ---

TEST(VariantDifferential, IncrementalFingerprintTracksFullRecanonicalization) {
  for (const std::uint64_t seed : {1ULL, 77ULL, 4242ULL}) {
    std::mt19937_64 rng(seed);
    std::uniform_int_distribution<Time> draw(1, 50);
    const int machines = 1 + static_cast<int>(rng() % 8);
    std::multiset<Time> times;
    std::vector<Time> initial;
    for (int j = 0; j < 6; ++j) {
      const Time t = draw(rng);
      times.insert(t);
      initial.push_back(t);
    }
    IncrementalFingerprint incremental(
        machines, std::span<const Time>(initial.data(), initial.size()));
    for (int op = 0; op < 200; ++op) {
      if (times.size() >= 2 && rng() % 3 == 0) {
        // Remove a uniformly chosen existing job.
        auto it = times.begin();
        std::advance(it, static_cast<std::ptrdiff_t>(rng() % times.size()));
        incremental.remove_job(*it);
        times.erase(it);
      } else {
        const Time t = draw(rng);
        incremental.add_job(t);
        times.insert(t);
      }
      const Instance full = Instance::incremental(
          machines, std::vector<Time>(times.begin(), times.end()));
      const CanonicalInstance canonical(full);
      ASSERT_EQ(incremental.fingerprint(), canonical.fingerprint())
          << "seed=" << seed << " op=" << op;
      ASSERT_EQ(incremental.jobs(), full.jobs());
    }
    // Order independence: a fresh accumulator over the final multiset lands
    // on the same lanes whatever the insertion history was.
    const std::vector<Time> final_times(times.begin(), times.end());
    const IncrementalFingerprint fresh(
        machines, std::span<const Time>(final_times.data(), final_times.size()));
    EXPECT_EQ(fresh.fingerprint(), incremental.fingerprint());
    // Cross-variant separation: the classic fingerprint of the same multiset
    // lives in a different domain.
    const CanonicalInstance classic(Instance(machines, final_times));
    EXPECT_FALSE(classic.fingerprint() == incremental.fingerprint());
  }
}

TEST(VariantDifferential, IncrementalFingerprintRejectsBadDeltas) {
  IncrementalFingerprint fingerprint(2, std::vector<Time>{3, 4});
  EXPECT_THROW(fingerprint.add_job(0), InvalidArgumentError);
  fingerprint.remove_job(3);
  EXPECT_THROW(fingerprint.remove_job(4), InvalidArgumentError);  // last job
}

// --- incremental: the prepared-submission service fast path ---

TEST(VariantDifferential, IncrementalSessionResolveMatchesFreshSubmit) {
  ServiceOptions options;
  options.workers = 2;
  SolveService service(options);
  IncrementalSession session(service, /*machines=*/3, {4, 8, 15, 16, 23, 42});
  std::mt19937_64 rng(99);
  std::uniform_int_distribution<Time> draw(1, 30);
  for (int round = 0; round < 6; ++round) {
    if (round % 2 == 0) {
      session.add_job(draw(rng));
    } else if (session.jobs() >= 2) {
      // Remove the job the materialized instance lists first.
      session.remove_job(session.instance().time(0));
    }
    const SolveResponse prepared = session.resolve().get();
    EXPECT_EQ(prepared.variant, "incremental");
    EXPECT_FALSE(prepared.shed);

    // A from-scratch service fed the same (unsorted-equivalent) multiset
    // must produce the same fingerprint, makespan, and schedule: the
    // prepared path changes cost, never answers.
    SolveService fresh_service(options);
    const SolveResponse fresh =
        fresh_service.submit_async(SolveRequest{session.instance()}).get();
    EXPECT_EQ(prepared.fingerprint, fresh.fingerprint);
    EXPECT_EQ(prepared.makespan, fresh.makespan);
    EXPECT_TRUE(prepared.schedule == fresh.schedule);
  }
  EXPECT_EQ(session.resolves(), 6u);
  // Same multiset, same service: the second resolve is a cache hit.
  const SolveResponse again = session.resolve().get();
  EXPECT_TRUE(again.cache_hit);
}

TEST(VariantDifferential, SessionFingerprintMatchesServiceRouting) {
  ServiceOptions options;
  options.workers = 1;
  SolveService service(options);
  IncrementalSession session(service, 4, {9, 8, 7});
  session.add_job(6);
  session.remove_job(9);
  const CanonicalInstance canonical(session.instance());
  EXPECT_EQ(session.instance_fingerprint(), canonical.fingerprint());
  // The response carries the REQUEST fingerprint: canonical instance plus
  // the effective epsilon (the session left it 0, so the service default).
  const SolveResponse response = session.resolve().get();
  EXPECT_EQ(response.fingerprint,
            request_fingerprint(canonical, options.epsilon));
}

TEST(VariantDifferential, SubmitPreparedRejectsDesyncedCanonicalForms) {
  ServiceOptions options;
  options.workers = 1;
  SolveService service(options);
  const Instance a = Instance::incremental(3, {1, 2, 3});
  const Instance b = Instance::incremental(4, {1, 2, 3});
  EXPECT_THROW(
      (void)service.submit_prepared(SolveRequest{a}, CanonicalInstance(b)),
      InvalidArgumentError);
  const Instance classic(3, {1, 2, 3});
  EXPECT_THROW((void)service.submit_prepared(SolveRequest{a},
                                             CanonicalInstance(classic)),
               InvalidArgumentError);
}

}  // namespace
}  // namespace pcmax
