// Failure-injection tests: resource budgets tripping mid-algorithm, hostile
// executors, and deterministic FaultInjector-driven cancellation must surface
// as typed exceptions (or anytime incumbents), never as corrupted results or
// hangs.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <future>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "algo/lpt.hpp"
#include "algo/ptas/dp_parallel.hpp"
#include "algo/ptas/ptas.hpp"
#include "core/bounds.hpp"
#include "core/instance_gen.hpp"
#include "core/portfolio.hpp"
#include "core/solve_context.hpp"
#include "mip/pcmax_ip.hpp"
#include "service/solve_service.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"

namespace pcmax {
namespace {

/// A U(1,100) m=6 n=40 instance whose pigeonhole bound stays below its LPT
/// makespan, so the PTAS cannot certify LPT and must build DP tables. The
/// budget tests assert that first, so they cannot pass without a probe.
Instance must_probe_instance() {
  return generate_instance(InstanceFamily::kUniform1To100, 6, 40, 2, 0);
}

TEST(FailureInjection, TableBudgetTripsDuringTheBisection) {
  const Instance instance = must_probe_instance();
  ASSERT_LT(improved_lower_bound(instance), LptSolver().solve(instance).makespan);
  PtasOptions options;
  options.limits.max_table_entries = 4;  // guaranteed to trip at some probe
  PtasSolver solver(options);
  EXPECT_THROW((void)solver.solve(instance), ResourceLimitError);
}

TEST(FailureInjection, ConfigBudgetTripsDuringTheBisection) {
  const Instance instance = must_probe_instance();
  ASSERT_LT(improved_lower_bound(instance), LptSolver().solve(instance).makespan);
  PtasOptions options;
  options.limits.max_configs = 1;
  PtasSolver solver(options);
  EXPECT_THROW((void)solver.solve(instance), ResourceLimitError);
}

TEST(FailureInjection, BudgetErrorsReportLimitAndDemand) {
  // Satellite: every ResourceLimitError message names both the configured
  // limit and the observed demand, in the uniform
  // "<what>: demand [at least] D exceeds limit L" format.
  const Instance instance = must_probe_instance();
  ASSERT_LT(improved_lower_bound(instance), LptSolver().solve(instance).makespan);
  PtasOptions options;
  options.limits.max_table_entries = 4;
  try {
    (void)PtasSolver(options).solve(instance);
    FAIL() << "expected ResourceLimitError";
  } catch (const ResourceLimitError& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("demand"), std::string::npos) << message;
    EXPECT_NE(message.find("exceeds limit 4"), std::string::npos) << message;
  }
}

/// An executor that fails a configurable number of calls in.
class FlakyExecutor final : public Executor {
 public:
  explicit FlakyExecutor(int fail_after) : remaining_(fail_after) {}

  [[nodiscard]] unsigned concurrency() const override { return 1; }
  [[nodiscard]] std::string name() const override { return "flaky"; }

  void parallel_for_ranges(std::size_t n, const WorkStealingPool::RangeBody& body,
                           std::size_t, const CancellationToken& cancel) override {
    if (remaining_-- <= 0) throw std::runtime_error("injected executor failure");
    if (cancel.valid() && cancel.cancel_requested()) cancel.check();
    if (n > 0) body(0, n, 0);
  }

  void run_team(const WorkStealingPool::TeamBody& body,
                const CancellationToken& cancel) override {
    if (remaining_-- <= 0) throw std::runtime_error("injected executor failure");
    if (cancel.valid() && cancel.cancel_requested()) cancel.check();
    body(0);
  }

 private:
  int remaining_;
};

TEST(FailureInjection, ExecutorFailurePropagatesThroughTheParallelDp) {
  const Instance instance =
      generate_instance(InstanceFamily::kUniform1To100, 4, 20, 2, 0);
  FlakyExecutor executor(/*fail_after=*/3);
  PtasOptions options;
  options.engine = DpEngine::kParallelBucketed;
  options.executor = &executor;
  PtasSolver solver(options);
  EXPECT_THROW((void)solver.solve(instance), std::runtime_error);
}

TEST(FailureInjection, HealthyExecutorAfterFailureStillWorks) {
  // A pool that has propagated an exception must remain usable — the PTAS
  // retried on the same executor succeeds.
  const Instance instance =
      generate_instance(InstanceFamily::kUniform1To100, 4, 20, 2, 0);
  WorkStealingExecutor executor(2);
  // Inject one failing region directly, then reuse the pool for a solve.
  EXPECT_THROW(executor.parallel_for_ranges(
                   1,
                   [](std::size_t, std::size_t, unsigned) {
                     throw std::runtime_error("boom");
                   },
                   /*chunk=*/0, CancellationToken{}),
               std::runtime_error);

  PtasOptions options;
  options.engine = DpEngine::kParallelBucketed;
  options.executor = &executor;
  const SolverResult result = PtasSolver(options).solve(instance);
  result.schedule.validate(instance);
  EXPECT_EQ(result.makespan, PtasSolver(PtasOptions{}).solve(instance).makespan);
}

TEST(FailureInjection, GenerousBudgetsDoNotTrip) {
  const Instance instance =
      generate_instance(InstanceFamily::kUniform1To100, 4, 20, 2, 0);
  PtasOptions options;  // default budgets
  EXPECT_NO_THROW((void)PtasSolver(options).solve(instance));
}

// --- deterministic FaultInjector-driven cancellation ---

Instance fault_instance() {
  return generate_instance(InstanceFamily::kUniform1To100, 5, 30, 3, 0);
}

// At eps = 0.2 every probe of this shape but the first two is above
// kTeamFillMinWork, so the team engine (bucketed) sweeps its levels and
// hits "dp.level". fault_instance()'s fills are all below the cut: that
// engine fills it inline with dp_bottom_up, which has no level site.
Instance above_cutoff_instance() {
  return generate_instance(InstanceFamily::kUniform1To100, 10, 50, 3, 0);
}
constexpr double kAboveCutoffEpsilon = 0.2;

TEST(FaultInjection, CancelAtNthDpLevelAbortsTheSolve) {
  {
    const Instance instance = fault_instance();
    WorkStealingExecutor executor(2);
    for (DpEngine engine : {DpEngine::kParallelScan, DpEngine::kParallelBucketed}) {
      CancellationToken token = CancellationToken::make();
      FaultInjector injector("dp.level", /*fire_at=*/2,
                             FaultInjector::Action::kCancel, token);
      FaultScope scope(injector);
      PtasOptions options;
      options.engine = engine;
      options.executor = &executor;
      if (engine == DpEngine::kParallelScan) {
        EXPECT_THROW((void)PtasSolver(options).solve(
                         instance, SolveContext::with_token(token)),
                     CancelledError);
        EXPECT_TRUE(injector.fired());
      } else {
        // Every fill runs inline: no level is swept, nothing cancels.
        const SolverResult result =
            PtasSolver(options).solve(instance, SolveContext::with_token(token));
        result.schedule.validate(instance);
        EXPECT_FALSE(injector.fired()) << "engine " << static_cast<int>(engine);
      }
    }
  }
  const Instance instance = above_cutoff_instance();
  WorkStealingExecutor executor(2);
  for (DpEngine engine : {DpEngine::kParallelScan, DpEngine::kParallelBucketed}) {
    CancellationToken token = CancellationToken::make();
    FaultInjector injector("dp.level", /*fire_at=*/2,
                           FaultInjector::Action::kCancel, token);
    FaultScope scope(injector);
    PtasOptions options;
    options.epsilon = kAboveCutoffEpsilon;
    options.engine = engine;
    options.executor = &executor;
    EXPECT_THROW((void)PtasSolver(options).solve(
                     instance, SolveContext::with_token(token)),
                 CancelledError)
        << "engine " << static_cast<int>(engine);
    EXPECT_TRUE(injector.fired()) << "engine " << static_cast<int>(engine);
  }
}

TEST(FaultInjection, CancelAtNthBisectionProbeAbortsTheSolve) {
  const Instance instance = fault_instance();
  CancellationToken token = CancellationToken::make();
  FaultInjector injector("bisection.probe", /*fire_at=*/2,
                         FaultInjector::Action::kCancel, token);
  FaultScope scope(injector);
  PtasOptions options;
  EXPECT_THROW((void)PtasSolver(options).solve(instance,
                                               SolveContext::with_token(token)),
               CancelledError);
  EXPECT_TRUE(injector.fired());
}

TEST(FaultInjection, ThrowAtNthExecutorTaskPropagatesAndPoolSurvives) {
  const Instance instance = fault_instance();
  WorkStealingExecutor executor(2);
  {
    FaultInjector injector("pool.task", /*fire_at=*/4,
                           FaultInjector::Action::kThrow);
    FaultScope scope(injector);
    PtasOptions options;
    options.engine = DpEngine::kParallelScan;
    options.executor = &executor;
    EXPECT_THROW((void)PtasSolver(options).solve(instance), ResourceLimitError);
    EXPECT_TRUE(injector.fired());
  }
  // Scope removed the injector; the same pool must finish a clean solve.
  PtasOptions options;
  options.engine = DpEngine::kParallelScan;
  options.executor = &executor;
  const SolverResult result = PtasSolver(options).solve(instance);
  result.schedule.validate(instance);
}

TEST(FaultInjection, CancelMidDpLeavesThePoolReusable) {
  {
    // fault_instance() fills inline: the injector never fires, the solve
    // completes, and the pool it never used stays usable.
    const Instance instance = fault_instance();
    WorkStealingExecutor executor(2);
    {
      CancellationToken token = CancellationToken::make();
      FaultInjector injector("dp.level", /*fire_at=*/3,
                             FaultInjector::Action::kCancel, token);
      FaultScope scope(injector);
      PtasOptions options;
      options.engine = DpEngine::kParallelBucketed;
      options.executor = &executor;
      PtasSolver(options)
          .solve(instance, SolveContext::with_token(token))
          .schedule.validate(instance);
      EXPECT_FALSE(injector.fired());
    }
    PtasOptions options;
    options.engine = DpEngine::kParallelBucketed;
    options.executor = &executor;
    const SolverResult result = PtasSolver(options).solve(instance);
    result.schedule.validate(instance);
  }
  const Instance instance = above_cutoff_instance();
  PtasOptions reference;
  reference.epsilon = kAboveCutoffEpsilon;
  const Time expected = PtasSolver(reference).solve(instance).makespan;
  WorkStealingExecutor executor(2);
  PtasOptions options;
  options.epsilon = kAboveCutoffEpsilon;
  options.engine = DpEngine::kParallelBucketed;
  options.executor = &executor;
  {
    CancellationToken token = CancellationToken::make();
    FaultInjector injector("dp.level", /*fire_at=*/3,
                           FaultInjector::Action::kCancel, token);
    FaultScope scope(injector);
    EXPECT_THROW((void)PtasSolver(options).solve(
                     instance, SolveContext::with_token(token)),
                 CancelledError);
    EXPECT_TRUE(injector.fired());
  }
  const SolverResult result = PtasSolver(options).solve(instance);
  result.schedule.validate(instance);
  EXPECT_EQ(result.makespan, expected);
}

TEST(FaultInjection, CancelAtNthMipNodeReturnsIncumbent) {
  // The B&B is anytime: a cancel mid-search returns the best incumbent with
  // proven_optimal=false instead of throwing.
  const Instance instance =
      generate_instance(InstanceFamily::kUniform1To100, 3, 14, 7, 0);
  CancellationToken token = CancellationToken::make();
  FaultInjector injector("mip.node", /*fire_at=*/5,
                         FaultInjector::Action::kCancel, token);
  FaultScope scope(injector);
  MipOptions options;
  const SolverResult result =
      PcmaxIpSolver(options).solve(instance, SolveContext::with_token(token));
  EXPECT_TRUE(injector.fired());
  EXPECT_FALSE(result.proven_optimal);
  result.schedule.validate(instance);
  ASSERT_TRUE(result.notes.count("limit_reason"));
  EXPECT_EQ(result.notes.at("limit_reason"), "cancelled");
}

// --- batch-service fault sites ---

TEST(FaultInjection, ServiceRequestFaultDegradesWithProvenance) {
  // An injected ResourceLimitError at the request site must answer via the
  // degraded path (valid schedule, honest reason), never via the future's
  // exception — and the degraded result must never be cached.
  const Instance instance = fault_instance();
  ServiceOptions options;
  options.workers = 1;
  FaultInjector injector("service.request", /*fire_at=*/1,
                         FaultInjector::Action::kThrow);
  FaultScope scope(injector);
  SolveService service(options);
  const SolveResponse faulted = service.submit(SolveRequest{instance}).get();
  EXPECT_TRUE(injector.fired());
  faulted.schedule.validate(instance);
  EXPECT_TRUE(faulted.degraded);
  EXPECT_EQ(faulted.degradation_reason.find("resource-limit"), 0u)
      << faulted.degradation_reason;
  EXPECT_FALSE(faulted.cache_hit);
  // The follow-up must MISS (no poisoned cache), solve healthily, and only
  // then seed the cache.
  const SolveResponse fresh = service.submit(SolveRequest{instance}).get();
  EXPECT_FALSE(fresh.cache_hit);
  EXPECT_FALSE(fresh.degraded) << fresh.degradation_reason;
  const SolveResponse cached = service.submit(SolveRequest{instance}).get();
  EXPECT_TRUE(cached.cache_hit);
  EXPECT_EQ(cached.makespan, fresh.makespan);
}

TEST(FaultInjection, ServiceCacheLookupFaultBypassesToARecompute) {
  // A failing cache lookup costs a recompute, never availability — and the
  // response stays full-fidelity (not degraded).
  const Instance instance = fault_instance();
  ServiceOptions options;
  options.workers = 1;
  FaultInjector injector("service.cache", /*fire_at=*/1,
                         FaultInjector::Action::kThrow);
  FaultScope scope(injector);
  SolveService service(options);
  const SolveResponse bypassed = service.submit(SolveRequest{instance}).get();
  EXPECT_TRUE(injector.fired());
  bypassed.schedule.validate(instance);
  EXPECT_FALSE(bypassed.degraded) << bypassed.degradation_reason;
  EXPECT_FALSE(bypassed.cache_hit);
  ASSERT_TRUE(bypassed.notes.count("cache"));
  EXPECT_EQ(bypassed.notes.at("cache").find("lookup-bypassed"), 0u)
      << bypassed.notes.at("cache");
  // The store after the bypassed lookup succeeded: next request hits.
  const SolveResponse hit = service.submit(SolveRequest{instance}).get();
  EXPECT_TRUE(hit.cache_hit);
  EXPECT_EQ(hit.makespan, bypassed.makespan);
}

TEST(FaultInjection, ServiceCacheStoreFaultSkipsCachingButAnswers) {
  // Hit ordering on the "service.cache" site: hit 1 = first request's
  // lookup, hit 2 = its store. Firing at the store must deliver the healthy
  // answer and simply leave the cache cold.
  const Instance instance = fault_instance();
  ServiceOptions options;
  options.workers = 1;
  FaultInjector injector("service.cache", /*fire_at=*/2,
                         FaultInjector::Action::kThrow);
  FaultScope scope(injector);
  SolveService service(options);
  const SolveResponse skipped = service.submit(SolveRequest{instance}).get();
  EXPECT_TRUE(injector.fired());
  skipped.schedule.validate(instance);
  EXPECT_FALSE(skipped.degraded) << skipped.degradation_reason;
  ASSERT_TRUE(skipped.notes.count("cache"));
  EXPECT_EQ(skipped.notes.at("cache").find("store-skipped"), 0u)
      << skipped.notes.at("cache");
  // Nothing was cached: the next request misses, solves, and stores.
  const SolveResponse fresh = service.submit(SolveRequest{instance}).get();
  EXPECT_FALSE(fresh.cache_hit);
  EXPECT_EQ(fresh.makespan, skipped.makespan);
  EXPECT_TRUE(service.submit(SolveRequest{instance}).get().cache_hit);
}

TEST(FaultInjection, ServiceQueueDrainsUnderARequestFault) {
  // One fault in the middle of a batch must not stall the queue: every
  // future resolves, exactly one response is degraded.
  const Instance instance = fault_instance();
  ServiceOptions options;
  options.workers = 2;
  options.cache_capacity = 0;  // force every request through a full solve
  FaultInjector injector("service.request", /*fire_at=*/3,
                         FaultInjector::Action::kThrow);
  FaultScope scope(injector);
  int degraded = 0;
  {
    SolveService service(options);
    std::vector<SolveFuture> futures;
    for (int i = 0; i < 6; ++i) {
      futures.push_back(service.submit(SolveRequest{instance}));
    }
    for (auto& future : futures) {
      const SolveResponse response = future.get();
      response.schedule.validate(instance);
      if (response.degraded) ++degraded;
    }
  }
  EXPECT_TRUE(injector.fired());
  EXPECT_EQ(degraded, 1);
}

TEST(FaultInjection, ServiceShardDispatchFaultShedsStructurally) {
  // Site "service.shard.dispatch" fires on the SUBMITTER thread, after the
  // request is fingerprinted and routed but before it takes a queue slot. The
  // future must resolve to a structured shed carrying the routing identity —
  // and the shard must stay fully serviceable afterwards (no leaked slot, no
  // poisoned state).
  const Instance instance = fault_instance();
  ServiceOptions options;
  options.workers = 1;
  FaultInjector injector("service.shard.dispatch", /*fire_at=*/1,
                         FaultInjector::Action::kThrow);
  FaultScope scope(injector);
  SolveService service(options);
  const SolveResponse shed = service.submit(SolveRequest{instance}).get();
  EXPECT_TRUE(injector.fired());
  EXPECT_TRUE(shed.shed);
  EXPECT_EQ(shed.degradation_reason, "shed:dispatch-fault");
  ASSERT_TRUE(shed.notes.count("dispatch_fault"));
  // The shed response carries the identity the router computed.
  EXPECT_EQ(shed.fingerprint,
            request_fingerprint(CanonicalInstance(instance), options.epsilon));
  EXPECT_EQ(static_cast<std::size_t>(shed.shard),
            service.shard_of(shed.fingerprint));
  // The injector is spent: the identical follow-up flows through the full
  // pipeline, misses (the shed was never cached), solves, and seeds the
  // cache — proving no queue slot or coalescing entry leaked.
  const SolveResponse fresh = service.submit(SolveRequest{instance}).get();
  EXPECT_FALSE(fresh.shed);
  EXPECT_FALSE(fresh.degraded) << fresh.degradation_reason;
  EXPECT_FALSE(fresh.cache_hit);
  fresh.schedule.validate(instance);
  EXPECT_TRUE(service.submit(SolveRequest{instance}).get().cache_hit);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.requests, 3);
  EXPECT_EQ(stats.shed_overload, 1);
}

TEST(FaultInjection, ServiceFutureFaultNeverLosesTheResponse) {
  // Site "service.future" fires inside promise delivery, AFTER the response
  // has been computed. Losing the answer there would strand the waiter — the
  // fault must be absorbed into provenance, with the full-fidelity response
  // still delivered.
  const Instance instance = fault_instance();
  ServiceOptions options;
  options.workers = 1;
  FaultInjector injector("service.future", /*fire_at=*/1,
                         FaultInjector::Action::kThrow);
  FaultScope scope(injector);
  SolveService service(options);
  const SolveResponse survived = service.submit(SolveRequest{instance}).get();
  EXPECT_TRUE(injector.fired());
  survived.schedule.validate(instance);
  EXPECT_FALSE(survived.shed);
  EXPECT_FALSE(survived.degraded) << survived.degradation_reason;
  ASSERT_TRUE(survived.notes.count("future_fault"));
  EXPECT_EQ(survived.notes.at("future_fault").find("survived"), 0u)
      << survived.notes.at("future_fault");
  // Delivery completed normally: the future is repeatable and the cache was
  // seeded by the same healthy pipeline pass.
  const SolveResponse hit = service.submit(SolveRequest{instance}).get();
  EXPECT_TRUE(hit.cache_hit);
  EXPECT_EQ(hit.makespan, survived.makespan);
  EXPECT_FALSE(hit.notes.count("future_fault"));
}

TEST(FaultInjection, PortfolioRacerFaultDegradesToTheSurvivors) {
  // Site "portfolio.racer" fires in run_racer before the solver is even
  // constructed: the first racer (lpt, list order) crashes, the race
  // continues on the survivors, and the crash is recorded as provenance.
  const Instance instance = fault_instance();
  PortfolioOptions options;
  options.racers = {"lpt", "multifit", "ptas"};
  options.max_concurrent = 1;
  FaultInjector injector("portfolio.racer", /*fire_at=*/1,
                         FaultInjector::Action::kThrow);
  FaultScope scope(injector);
  const PortfolioResult result =
      PortfolioSolver(options).race(instance, SolveContext::unlimited());
  EXPECT_TRUE(injector.fired());
  result.schedule.validate(instance);
  EXPECT_NE(result.winner, "lpt");
  const std::string& provenance = result.notes.at("racer.lpt");
  EXPECT_NE(provenance.find("failed: resource-limit"), std::string::npos)
      << provenance;
}

TEST(FaultInjection, PortfolioIncumbentFaultCrashesOnlyThePublisher) {
  // Site "portfolio.incumbent" fires inside IncumbentBoard::publish — the
  // first racer dies exactly at its publication point, after a full solve.
  // Survivors publish unharmed (the injector fires once) and win the race.
  const Instance instance = fault_instance();
  PortfolioOptions options;
  options.racers = {"lpt", "multifit", "ptas"};
  options.max_concurrent = 1;
  FaultInjector injector("portfolio.incumbent", /*fire_at=*/1,
                         FaultInjector::Action::kThrow);
  FaultScope scope(injector);
  const PortfolioResult result =
      PortfolioSolver(options).race(instance, SolveContext::unlimited());
  EXPECT_TRUE(injector.fired());
  result.schedule.validate(instance);
  EXPECT_NE(result.winner, "lpt");
  EXPECT_NE(result.notes.at("racer.lpt").find("failed: resource-limit"),
            std::string::npos);
  // The survivors' publishes went through: the board saw real updates.
  EXPECT_GE(result.stats.at("incumbent_updates"), 1.0);
}

TEST(FaultInjection, InjectorFiresExactlyOnce) {
  CancellationToken token = CancellationToken::make();
  FaultInjector injector("dp.level", /*fire_at=*/1,
                         FaultInjector::Action::kCancel, token);
  FaultScope scope(injector);
  fault_hit("dp.level");
  fault_hit("dp.level");
  fault_hit("bisection.probe");  // different site: not counted
  EXPECT_EQ(injector.hits(), 2u);
  EXPECT_TRUE(injector.fired());
  EXPECT_TRUE(token.cancel_requested());
}

// Sites self-register on first hit, so the registry reflects what THIS
// process actually executed (ctest runs every gtest case in its own
// process — nothing from the suites above carries over). The test first
// drives one clean pass through each instrumented subsystem, then asserts
// the registry enumerates every site those paths hit. This is what keeps
// the chaos harness's programmatically enumerated site list (fault_sites)
// from silently going stale when a new fault_hit site is added:
// arm-everything soaks arm what the binary actually has, not a
// hand-maintained copy.
TEST(FaultSiteRegistry, EnumeratesEverySiteTheSubsystemsHit) {
  const Instance instance = fault_instance();
  {
    // Parallel PTAS: bisection.probe, dp.level, pool.task.
    WorkStealingExecutor executor(2);
    PtasOptions options;
    options.engine = DpEngine::kParallelScan;
    options.executor = &executor;
    PtasSolver(options).solve(instance).schedule.validate(instance);
  }
  {
    // Branch-and-bound: mip.node.
    const Instance small =
        generate_instance(InstanceFamily::kUniform1To100, 3, 10, 7, 0);
    PcmaxIpSolver(MipOptions{}).solve(small).schedule.validate(small);
  }
  {
    // Service front end: service.shard.dispatch, service.request,
    // service.cache, breaker.allow, service.future.
    SolveService service(ServiceOptions{});
    (void)service.submit(SolveRequest{instance}).get();
  }
  {
    // Portfolio race: portfolio.racer, portfolio.incumbent.
    PortfolioOptions options;
    options.racers = {"lpt", "multifit"};
    options.max_concurrent = 1;
    PortfolioSolver(options)
        .race(instance, SolveContext::unlimited())
        .schedule.validate(instance);
  }

  const std::vector<std::string> sites = fault_sites();
  for (const char* expected :
       {"dp.level", "bisection.probe", "pool.task", "mip.node",
        "service.request", "service.cache", "service.shard.dispatch",
        "service.future", "portfolio.racer", "portfolio.incumbent",
        "breaker.allow"}) {
    EXPECT_NE(std::find(sites.begin(), sites.end(), expected), sites.end())
        << "site '" << expected << "' missing from the registry";
  }
  // A ChaosInjector armed from the registry covers exactly these names.
  ChaosInjector chaos(ChaosOptions{}, sites);
  EXPECT_EQ(chaos.sites(), sites);
}

}  // namespace
}  // namespace pcmax
