#include "core/portfolio.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <thread>
#include <utility>

#include "algo/lpt.hpp"
#include "core/bounds.hpp"
#include "obs/metrics.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/stopwatch.hpp"

namespace pcmax {

namespace {

/// Tier-0 racers: O(n log n)-ish constructive heuristics that run
/// synchronously before the heavy tier to seed the incumbent board.
bool is_tier0(const std::string& name) {
  return name == "lpt" || name == "ls" || name == "ldm" || name == "multifit";
}

/// What a certifying racer proved the optimum to be, or kNone.
Time certified_value_of(const SolverResult& result, Time global_lb) {
  if (result.makespan == global_lb) return global_lb;
  if (result.proven_optimal) return result.makespan;
  const auto it = result.notes.find("certified_value");
  if (it != result.notes.end()) {
    return static_cast<Time>(std::stoll(it->second));
  }
  return IncumbentBoard::kNone;
}

/// Shared mutable race state touched by racer threads.
struct RaceState {
  std::shared_ptr<IncumbentBoard> board;
  CancellationToken race_token;  ///< controller-owned; cancelled on a proof
  Time global_lb = 0;
  std::atomic<bool> certified{false};
  /// Smallest optimum value any racer has proven (kNone until certified).
  std::atomic<Time> proof{IncumbentBoard::kNone};
};

struct RacerRun {
  SolverResult result;
  bool ok = false;
};

}  // namespace

std::vector<std::string> select_racers(const Instance& instance,
                                       const PortfolioOptions& options) {
  std::vector<std::string> names{"lpt", "multifit", "ptas"};
  if (options.build.executor != nullptr) names.emplace_back("parallel-ptas");
  if (instance.jobs() <= options.milp_max_jobs &&
      instance.machines() <= options.milp_max_machines) {
    names.emplace_back("milp");
  }
  if (instance.machines() <= 3) {
    // The subset-DP's table budget is total bits for m <= 2 but total^2 for
    // m = 3 (see exact/subset_dp.hpp) — gate on what the solver will demand.
    const Time total = instance.total_time();
    const Time cells = instance.machines() == 3 ? total * total : total;
    if (cells <= options.build.subset_dp_max_total) {
      names.emplace_back("subset-dp");
    }
  }
  return names;
}

PortfolioSolver::PortfolioSolver(PortfolioOptions options)
    : options_(std::move(options)) {}

SolverResult PortfolioSolver::solve(const Instance& instance) {
  return race(instance, SolveContext::unlimited());
}

SolverResult PortfolioSolver::solve(const Instance& instance,
                                    const SolveContext& context) {
  return race(instance, context);
}

namespace {

/// Runs one racer start to finish: create from the registry, solve under
/// the race context, publish the makespan. Any resource-shaped throw —
/// including a fault fired inside the solver or at the publish site — marks
/// the racer failed; the race continues on the survivors.
RacerRun run_racer(const SolverRegistry& registry, const std::string& name,
                   const SolverBuild& build, const Instance& instance,
                   const SolveContext& context, RaceState& race,
                   RacerReport& report) {
  RacerRun run;
  Stopwatch sw;
  report.start_bound = race.board->best();
  const std::uint64_t begin_ns = obs::monotonic_ns();
  try {
    fault_hit("portfolio.racer");
    const std::unique_ptr<Solver> solver = registry.create(name, build);
    run.result = solver->solve(instance, context);
    race.board->publish(run.result.makespan);
    run.ok = true;
    report.status = "ok";
    report.makespan = run.result.makespan;
  } catch (const DeadlineExceededError&) {
    report.status = "failed: deadline";
  } catch (const CancelledError&) {
    report.status = "failed: cancelled";
  } catch (const ResourceLimitError& e) {
    report.status = std::string("failed: resource-limit: ") + e.what();
  } catch (const InvalidArgumentError& e) {
    // A racer that cannot handle this instance shape (subset-dp beyond
    // m = 3, MILP beyond 64 machines) loses the race instead of failing it:
    // an explicit racer list should not have to predicate on the shape.
    report.status = std::string("failed: invalid-argument: ") + e.what();
  }
  report.seconds = sw.elapsed_seconds();

  if (run.ok) {
    const Time proof = certified_value_of(run.result, race.global_lb);
    if (proof != IncumbentBoard::kNone) {
      // First proof wins; keep the smallest proven value either way.
      Time prev = race.proof.load(std::memory_order_relaxed);
      while (proof < prev && !race.proof.compare_exchange_weak(
                                 prev, proof, std::memory_order_relaxed)) {
      }
      report.certified = true;
      race.certified.store(true, std::memory_order_release);
      race.race_token.request_cancel();
    }
  }
  if (obs::Metrics* metrics = obs::current()) {
    metrics->add(0, obs::Counter::kPortfolioRacers);
    metrics->add_span("portfolio.racer", 0, begin_ns, obs::monotonic_ns());
  }
  return run;
}

}  // namespace

PortfolioResult PortfolioSolver::race(const Instance& instance,
                                      const SolveContext& context) {
  Stopwatch sw;
  const ContextScopes scopes(context);
  obs::Metrics* metrics = obs::current();
  const std::uint64_t race_begin = metrics != nullptr ? obs::monotonic_ns() : 0;
  if (metrics != nullptr) metrics->add(0, obs::Counter::kPortfolioRaces);

  const SolverRegistry& registry = options_.registry != nullptr
                                       ? *options_.registry
                                       : SolverRegistry::global();
  const std::vector<std::string> names =
      options_.racers.empty() ? select_racers(instance, options_)
                              : options_.racers;
  PCMAX_REQUIRE(!names.empty(), "portfolio needs at least one racer");

  RaceState race;
  // The caller's board when provided (an outer driver observing the race),
  // else a fresh one — racers always see a board.
  race.board = context.incumbent != nullptr
                   ? context.incumbent
                   : std::make_shared<IncumbentBoard>();
  race.global_lb = improved_lower_bound(instance);

  // Racers run under a controller-owned token linked beneath the caller's
  // effective signal: a certification cancels the remaining racers without
  // ever mutating the caller's token.
  SolveContext inner = context.without_scopes();
  inner.incumbent = race.board;
  race.race_token = CancellationToken::linked(inner.effective_token(), Deadline());
  SolveContext racer_context = inner;
  racer_context.cancel = race.race_token;
  racer_context.deadline = Deadline();  // already folded into race_token

  std::vector<RacerReport> reports(names.size());
  std::vector<RacerRun> runs(names.size());
  std::vector<std::size_t> heavy;
  for (std::size_t i = 0; i < names.size(); ++i) {
    reports[i].name = names[i];
    reports[i].status = "cancelled";  // overwritten by run_racer when run
    if (!is_tier0(names[i])) heavy.push_back(i);
  }

  // Tier 0: synchronous, in list order — seeds the board so every heavy
  // racer starts from a certified upper bound.
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (is_tier0(names[i])) {
      runs[i] = run_racer(registry, names[i], options_.build, instance,
                          racer_context, race, reports[i]);
    }
  }

  // Heavy tier: skipped wholesale when tier 0 already certified optimality.
  std::uint64_t cancelled_racers = 0;
  if (!race.certified.load(std::memory_order_acquire)) {
    const unsigned width =
        options_.max_concurrent == 0
            ? static_cast<unsigned>(heavy.size())
            : std::min<unsigned>(options_.max_concurrent,
                                 static_cast<unsigned>(heavy.size()));
    if (width <= 1) {
      // Sequential mode: deterministic; later racers see earlier results
      // through the board and a proof skips the rest.
      for (const std::size_t i : heavy) {
        if (race.certified.load(std::memory_order_acquire)) {
          ++cancelled_racers;
          continue;  // report stays "cancelled"
        }
        runs[i] = run_racer(registry, names[i], options_.build, instance,
                            racer_context, race, reports[i]);
      }
    } else {
      std::atomic<std::size_t> next{0};
      std::vector<std::thread> threads;
      threads.reserve(width);
      for (unsigned t = 0; t < width; ++t) {
        threads.emplace_back([&] {
          for (;;) {
            const std::size_t slot = next.fetch_add(1);
            if (slot >= heavy.size()) return;
            const std::size_t i = heavy[slot];
            // A proof that landed before this racer started skips it; a
            // proof mid-run reaches it through the cancelled race token.
            if (race.certified.load(std::memory_order_acquire)) continue;
            runs[i] = run_racer(registry, names[i], options_.build, instance,
                                racer_context, race, reports[i]);
          }
        });
      }
      for (std::thread& thread : threads) thread.join();
      for (const std::size_t i : heavy) {
        if (reports[i].status == "cancelled") ++cancelled_racers;
      }
    }
  } else {
    cancelled_racers += heavy.size();
  }
  // Racers that died to the race token being cancelled after a proof are
  // cancellations, not failures, for accounting purposes.
  for (const std::size_t i : heavy) {
    if (race.certified.load(std::memory_order_acquire) && !runs[i].ok &&
        reports[i].status == "failed: cancelled") {
      ++cancelled_racers;
    }
  }
  if (metrics != nullptr && cancelled_racers > 0) {
    metrics->add(0, obs::Counter::kPortfolioRacersCancelled, cancelled_racers);
  }

  // Winner: minimum makespan among the finishers, ties to list order.
  std::size_t winner = names.size();
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (!runs[i].ok) continue;
    if (winner == names.size() ||
        runs[i].result.makespan < runs[winner].result.makespan) {
      winner = i;
    }
  }

  PortfolioResult out;
  std::string reason = "none";
  if (winner == names.size()) {
    // Every racer failed (only reachable under fault injection or an
    // already-stopped caller token): same availability contract as the
    // resilient ladder — fall back to bare LPT, never throw.
    static_cast<SolverResult&>(out) = LptSolver().solve(instance);
    out.winner = "lpt-fallback";
    out.proven_optimal = out.makespan == race.global_lb;
    reason = "portfolio-all-failed";
  } else {
    static_cast<SolverResult&>(out) = std::move(runs[winner].result);
    out.winner = names[winner];
    reports[winner].status = "won";
    const Time proof = race.proof.load(std::memory_order_relaxed);
    out.proven_optimal =
        out.proven_optimal ||
        (proof != IncumbentBoard::kNone && out.makespan <= proof);
    // Heavy racers all killed by the caller's budget with no proof and a
    // tier-0 winner: the caller should know the race was budget-bound.
    bool heavy_budget_killed = !heavy.empty();
    for (const std::size_t i : heavy) {
      if (runs[i].ok || (reports[i].status != "failed: deadline" &&
                         reports[i].status != "failed: cancelled" &&
                         reports[i].status != "cancelled")) {
        heavy_budget_killed = false;
      }
    }
    if (heavy_budget_killed && !race.certified.load(std::memory_order_acquire)) {
      reason = "portfolio-budget";
    }
  }

  out.racers = reports;
  out.seconds = sw.elapsed_seconds();
  out.notes["winner"] = out.winner;
  out.notes["algorithm_used"] = out.winner;
  out.notes["degradation_reason"] = reason;
  for (const RacerReport& report : reports) {
    out.notes["racer." + report.name] =
        report.status + ";makespan=" + std::to_string(report.makespan) +
        ";seconds=" + std::to_string(report.seconds) + ";start_bound=" +
        (report.start_bound == IncumbentBoard::kNone
             ? std::string("none")
             : std::to_string(report.start_bound));
  }
  out.stats["racers"] = static_cast<double>(names.size());
  out.stats["racers_cancelled"] = static_cast<double>(cancelled_racers);
  out.stats["incumbent_updates"] = static_cast<double>(race.board->updates());
  out.stats["lower_bound"] = static_cast<double>(race.global_lb);

  if (metrics != nullptr) {
    metrics->note("portfolio.last_race", out.winner + ";" + reason);
    metrics->add_span("portfolio.race", 0, race_begin, obs::monotonic_ns());
  }
  return out;
}

}  // namespace pcmax
