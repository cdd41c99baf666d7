// pcmax — command-line front end to the library.
//
//   pcmax generate --family "U(1,100)" --m 10 --n 50 --count 20 --out set.txt
//   pcmax solve    --file set.txt --solver parallel-ptas --epsilon 0.3
//   pcmax race     --file set.txt --racers lpt,multifit,ptas,milp --report
//   pcmax batch    --file set.txt --workers 4 --repeat 2 --json report.json
//   pcmax info     --file set.txt
//
// `solve` prints one result line per instance and (with --schedules) the
// full schedules in the text format of core/io. `batch` pushes the file
// through the SolveService (fingerprint dedup cache, bounded queue,
// admission control) and can emit the pcmax.batch.v1 JSON report.
#include <algorithm>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <random>

#include "pcmax.hpp"
#include "core/io.hpp"
#include "obs/metrics.hpp"
#include "obs/metrics_json.hpp"

using namespace pcmax;

namespace {

InstanceFamily family_by_name(const std::string& name) {
  for (const InstanceFamily family : all_families()) {
    if (family_name(family) == name) return family;
  }
  throw InvalidArgumentError(
      "unknown family '" + name +
      "' (expect one of: U(1,100), U(1,10), U(1,10n), U(1,2m-1), U(m,2m-1), "
      "U(95,105))");
}

int cmd_generate(int argc, const char* const* argv) {
  CliParser cli("pcmax generate: write a random instance set to a file.");
  cli.add_string("family", "U(1,100)", "distribution family (paper notation)");
  cli.add_string("variant", "classic",
                 "problem variant to tag instances with: classic, capacity "
                 "(draws B from U(1,m) per instance), or incremental; "
                 "non-classic sets serialize in the pcmax.instance.v2 form");
  cli.add_int("m", 10, "machines per instance");
  cli.add_int("n", 50, "jobs per instance");
  cli.add_int("count", 20, "number of instances");
  cli.add_int("seed", 42, "base RNG seed");
  cli.add_string("out", "", "output path (empty = stdout)");
  if (!cli.parse(argc, argv)) return 0;

  const ProblemVariant variant = variant_from_name(cli.get_string("variant"));
  const InstanceFamily family = family_by_name(cli.get_string("family"));
  const int count = static_cast<int>(cli.get_int("count"));
  PCMAX_REQUIRE(count >= 0, "instance count must be non-negative");
  std::vector<Instance> instances;
  instances.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    instances.push_back(generate_variant_instance(
        variant, family, static_cast<int>(cli.get_int("m")),
        static_cast<int>(cli.get_int("n")),
        static_cast<std::uint64_t>(cli.get_int("seed")),
        static_cast<std::uint64_t>(i)));
  }
  if (cli.get_string("out").empty()) {
    write_instances(std::cout, instances);
  } else {
    write_instances_file(cli.get_string("out"), instances);
    std::cerr << "wrote " << instances.size() << " instances to "
              << cli.get_string("out") << "\n";
  }
  return 0;
}

/// Shared construction flags -> the registry's SolverBuild. The exact
/// solvers are anytime: a wall-clock limit caps their budget so they return
/// the incumbent rather than throwing.
SolverBuild build_from_cli(double epsilon, Executor* executor,
                           double exact_seconds, std::int64_t time_limit_ms) {
  SolverBuild build;
  build.epsilon = epsilon;
  build.executor = executor;
  build.exact_seconds =
      time_limit_ms > 0
          ? std::min(exact_seconds, static_cast<double>(time_limit_ms) / 1000.0)
          : exact_seconds;
  return build;
}

std::string registered_solvers_help() {
  std::string help = "one of:";
  for (const std::string& name : SolverRegistry::global().names()) {
    help += " " + name;
  }
  return help;
}

bool is_ptas_family(const std::string& name) {
  return name == "ptas" || name == "parallel-ptas";
}

/// Constructs the requested solver from the global registry. PTAS-family
/// solvers with --on-limit=fallback ride as the resilient ladder's stage-1
/// rung (never throw for resource reasons; degrade MULTIFIT -> LPT + local
/// search); everything else is the registry solver unwrapped, with the
/// per-instance budget delivered through the SolveContext at solve time.
std::unique_ptr<Solver> make_solver(const std::string& name,
                                    const SolverBuild& build, bool fallback) {
  const SolverRegistry& registry = SolverRegistry::global();
  std::unique_ptr<Solver> solver = registry.create(name, build);
  if (fallback && is_ptas_family(name)) {
    struct ResilientWrapper final : Solver {
      ResilientWrapper(std::unique_ptr<Solver> stage1, const SolverBuild& b)
          : preferred(std::move(stage1)) {
        ResilientOptions options;
        options.preferred = preferred.get();
        options.multifit_iterations = b.multifit_iterations;
        options.local_search_rounds = b.local_search_rounds;
        ladder = std::make_unique<ResilientSolver>(std::move(options));
      }
      [[nodiscard]] std::string name() const override { return ladder->name(); }
      SolverResult solve(const Instance& instance) override {
        return ladder->solve(instance);
      }
      SolverResult solve(const Instance& instance,
                         const SolveContext& context) override {
        return ladder->solve(instance, context);
      }
      std::unique_ptr<Solver> preferred;  // stage 1, owned (ladder borrows it)
      std::unique_ptr<ResilientSolver> ladder;
    };
    return std::make_unique<ResilientWrapper>(std::move(solver), build);
  }
  return solver;
}

int cmd_solve(int argc, const char* const* argv) {
  CliParser cli("pcmax solve: run a solver over an instance file.");
  cli.add_string("file", "", "instance file (required)");
  cli.add_string("solver", "parallel-ptas", registered_solvers_help());
  cli.add_double("epsilon", 0.3, "PTAS accuracy");
  cli.add_int("threads", 0, "worker threads (0 = hardware concurrency)");
  cli.add_double("exact-seconds", 60.0, "budget for the exact solvers");
  cli.add_bool("schedules", false, "also print the full schedules");
  cli.add_int("limit", 0, "solve only the first N instances (0 = all)");
  cli.add_int("time-limit-ms", 0,
              "wall-clock budget per instance in ms (0 = unlimited)");
  cli.add_string("on-limit", "fallback",
                 "what a tripped budget does to PTAS-family solvers: "
                 "'fallback' degrades to MULTIFIT/LPT + local search, "
                 "'throw' raises the typed error");
  cli.add_string("metrics", "",
                 "write a JSON runtime-metrics profile (counters, timers, "
                 "per-level DP timings) to this path");
  if (!cli.parse(argc, argv)) return 0;
  PCMAX_REQUIRE(!cli.get_string("file").empty(), "--file is required");
  PCMAX_REQUIRE(cli.get_int("time-limit-ms") >= 0,
                "--time-limit-ms must be non-negative");
  const std::string on_limit = cli.get_string("on-limit");
  PCMAX_REQUIRE(on_limit == "fallback" || on_limit == "throw",
                "--on-limit must be 'fallback' or 'throw'");

  auto instances = read_instances_file(cli.get_string("file"));
  if (cli.get_int("limit") > 0 &&
      instances.size() > static_cast<std::size_t>(cli.get_int("limit"))) {
    instances.erase(
        instances.begin() + static_cast<std::ptrdiff_t>(cli.get_int("limit")),
        instances.end());
  }
  const unsigned threads =
      cli.get_int("threads") > 0 ? static_cast<unsigned>(cli.get_int("threads"))
                                 : hardware_threads();
  WorkStealingExecutor executor(threads);
  const std::int64_t time_limit_ms = cli.get_int("time-limit-ms");
  const SolverBuild build =
      build_from_cli(cli.get_double("epsilon"), &executor,
                     cli.get_double("exact-seconds"), time_limit_ms);
  const std::unique_ptr<Solver> solver =
      make_solver(cli.get_string("solver"), build, on_limit == "fallback");

  const std::string metrics_path = cli.get_string("metrics");
  std::optional<obs::Metrics> metrics;
  // A unique_ptr, not a std::optional: GCC 12 reads a disengaged optional
  // scope's pointer as maybe-uninitialized (-Wmaybe-uninitialized).
  std::unique_ptr<obs::MetricsScope> metrics_scope;
  if (!metrics_path.empty()) {
    metrics.emplace(threads);
    metrics_scope = std::make_unique<obs::MetricsScope>(*metrics);
  }

  TablePrinter table({"#", "m", "n", "LB", "makespan", "UB", "seconds",
                      "certified", "algorithm", "degraded"});
  for (std::size_t i = 0; i < instances.size(); ++i) {
    const Instance& instance = instances[i];
    // A fresh per-instance context: each instance gets the full wall-clock
    // budget (0 = unlimited).
    const SolverResult result =
        solver->solve(instance, SolveContext::with_time_limit_ms(time_limit_ms));
    result.schedule.validate(instance);
    // Provenance from the graceful-degradation driver (or the anytime exact
    // solvers' limit reason); plain solvers report their own name.
    const auto note = [&](const char* key) -> std::string {
      const auto it = result.notes.find(key);
      return it != result.notes.end() ? it->second : std::string();
    };
    std::string algorithm = note("algorithm_used");
    if (algorithm.empty()) algorithm = solver->name();
    std::string degraded = note("degradation_reason");
    if (degraded.empty()) degraded = note("limit_reason");
    if (degraded.empty() || degraded == "none") degraded = "-";
    table.add_row({std::to_string(i), std::to_string(instance.machines()),
                   std::to_string(instance.jobs()),
                   std::to_string(makespan_lower_bound(instance)),
                   std::to_string(result.makespan),
                   std::to_string(makespan_upper_bound(instance)),
                   TablePrinter::fmt(result.seconds, 4),
                   result.proven_optimal ? "yes" : "-", algorithm, degraded});
    if (cli.get_bool("schedules")) {
      std::cout << "# instance " << i << "\n"
                << schedule_to_text(instance, result.schedule);
    }
  }
  if (metrics.has_value()) {
    metrics_scope.reset();  // stop collecting before exporting
    obs::write_metrics_file(metrics_path, *metrics);
    std::cerr << "wrote metrics profile to " << metrics_path << "\n";
  }
  std::cout << "solver: " << solver->name() << "\n" << table.to_string();
  return 0;
}

int cmd_race(int argc, const char* const* argv) {
  CliParser cli(
      "pcmax race: race a portfolio of solvers over a shared incumbent "
      "bound (core/portfolio). Tier-0 heuristics seed the board, heavy "
      "racers tighten against it, and a certified optimum cancels the rest.");
  cli.add_string("file", "", "instance file (required)");
  cli.add_string("racers", "",
                 "comma-separated racer list (empty = auto-select per "
                 "instance); " +
                     registered_solvers_help());
  cli.add_double("epsilon", 0.3, "PTAS accuracy");
  cli.add_int("threads", 0, "executor threads (0 = hardware concurrency)");
  cli.add_int("concurrent", 0,
              "max concurrently running heavy racers (0 = all at once, "
              "1 = deterministic sequential race)");
  cli.add_double("exact-seconds", 60.0, "budget for the exact racers");
  cli.add_int("time-limit-ms", 0,
              "wall-clock budget per instance in ms (0 = unlimited)");
  cli.add_int("limit", 0, "race only the first N instances (0 = all)");
  cli.add_bool("report", false, "also print the per-racer reports");
  cli.add_string("metrics", "",
                 "write a JSON runtime-metrics profile to this path");
  if (!cli.parse(argc, argv)) return 0;
  PCMAX_REQUIRE(!cli.get_string("file").empty(), "--file is required");
  PCMAX_REQUIRE(cli.get_int("time-limit-ms") >= 0,
                "--time-limit-ms must be non-negative");

  auto instances = read_instances_file(cli.get_string("file"));
  if (cli.get_int("limit") > 0 &&
      instances.size() > static_cast<std::size_t>(cli.get_int("limit"))) {
    instances.erase(
        instances.begin() + static_cast<std::ptrdiff_t>(cli.get_int("limit")),
        instances.end());
  }

  const unsigned threads =
      cli.get_int("threads") > 0 ? static_cast<unsigned>(cli.get_int("threads"))
                                 : hardware_threads();
  WorkStealingExecutor executor(threads);
  const std::int64_t time_limit_ms = cli.get_int("time-limit-ms");

  PortfolioOptions options;
  options.build = build_from_cli(cli.get_double("epsilon"), &executor,
                                 cli.get_double("exact-seconds"), time_limit_ms);
  options.max_concurrent = static_cast<unsigned>(cli.get_int("concurrent"));
  const std::string racers = cli.get_string("racers");
  for (std::size_t begin = 0; begin < racers.size();) {
    std::size_t end = racers.find(',', begin);
    if (end == std::string::npos) end = racers.size();
    if (end > begin) options.racers.push_back(racers.substr(begin, end - begin));
    begin = end + 1;
  }
  PortfolioSolver solver(options);

  const std::string metrics_path = cli.get_string("metrics");
  std::optional<obs::Metrics> metrics;
  std::unique_ptr<obs::MetricsScope> metrics_scope;
  if (!metrics_path.empty()) {
    metrics.emplace(threads);
    metrics_scope = std::make_unique<obs::MetricsScope>(*metrics);
  }

  TablePrinter table({"#", "m", "n", "LB", "makespan", "winner", "certified",
                      "racers", "cancelled", "seconds"});
  for (std::size_t i = 0; i < instances.size(); ++i) {
    const Instance& instance = instances[i];
    const PortfolioResult result = solver.race(
        instance, SolveContext::with_time_limit_ms(time_limit_ms));
    result.schedule.validate(instance);
    table.add_row({std::to_string(i), std::to_string(instance.machines()),
                   std::to_string(instance.jobs()),
                   std::to_string(makespan_lower_bound(instance)),
                   std::to_string(result.makespan), result.winner,
                   result.proven_optimal ? "yes" : "-",
                   std::to_string(result.racers.size()),
                   TablePrinter::fmt(result.stats.at("racers_cancelled"), 0),
                   TablePrinter::fmt(result.seconds, 4)});
    if (cli.get_bool("report")) {
      std::cout << "# instance " << i << "\n";
      for (const RacerReport& report : result.racers) {
        std::cout << "  " << report.name << ": " << report.status
                  << "  makespan=" << report.makespan
                  << "  seconds=" << TablePrinter::fmt(report.seconds, 4)
                  << "  start_bound="
                  << (report.start_bound == IncumbentBoard::kNone
                          ? std::string("none")
                          : std::to_string(report.start_bound))
                  << (report.certified ? "  [certified]" : "") << "\n";
      }
    }
  }
  if (metrics.has_value()) {
    metrics_scope.reset();  // stop collecting before exporting
    obs::write_metrics_file(metrics_path, *metrics);
    std::cerr << "wrote metrics profile to " << metrics_path << "\n";
  }
  std::cout << table.to_string();
  return 0;
}

int cmd_batch(int argc, const char* const* argv) {
  CliParser cli(
      "pcmax batch: run an instance file through the batch solve service "
      "(fingerprint dedup cache, bounded queue, admission control).");
  cli.add_string("file", "", "instance file (required)");
  cli.add_int("workers", 2, "service worker threads");
  cli.add_int("shards", 1,
              "service shards (fingerprint-routed caches, coalescing maps, "
              "breakers)");
  cli.add_int("async-window", 0,
              "submit through submit_async with at most N requests in "
              "flight, harvesting futures in submission order (0 = "
              "blocking solve_batch)");
  cli.add_int("lane-width", 1,
              "per-request parallelism cap (each worker's executor width)");
  cli.add_int("queue", 64, "bounded request-queue capacity");
  cli.add_int("cache", 1024, "result-cache capacity in entries (0 disables)");
  cli.add_string("mode", "resilient",
                 "full-fidelity solver stack: 'resilient' (degradation "
                 "ladder) or 'portfolio' (sequential racer portfolio)");
  cli.add_double("epsilon", 0.3, "PTAS accuracy");
  cli.add_int("time-limit-ms", 0,
              "per-request budget from admission in ms (0 = unlimited)");
  cli.add_string("shed-policy", "static",
                 "admission policy: 'static' (block when full, degrade on "
                 "saturation) or 'tiered' (pressure-tiered load shedding)");
  cli.add_bool("coalesce", true,
               "share one in-flight solve among concurrent duplicate "
               "fingerprints");
  cli.add_bool("breaker", true,
               "circuit-break the full-fidelity rung after consecutive "
               "resource failures");
  cli.add_string("tenant", "",
                 "tenant id stamped on every submitted request (admission "
                 "quotas; empty = default tenant)");
  cli.add_int("limit", 0, "use only the first N instances (0 = all)");
  cli.add_int("repeat", 1,
              "submit the file N times; repeats permute each job vector, so "
              "they dedup against the first pass via the fingerprint cache");
  cli.add_int("seed", 42, "RNG seed for the repeat permutations");
  cli.add_string("variant-mix", "",
                 "tag the instance pool with problem variants, round-robin "
                 "by weight, e.g. 'classic=2,capacity=1,incremental=1' "
                 "(empty = leave instances as loaded)");
  cli.add_string("json", "", "write the pcmax.batch.v1 report to this path");
  cli.add_string("metrics", "",
                 "write a JSON runtime-metrics profile to this path");
  if (!cli.parse(argc, argv)) return 0;
  PCMAX_REQUIRE(!cli.get_string("file").empty(), "--file is required");
  PCMAX_REQUIRE(cli.get_int("repeat") >= 1, "--repeat must be at least 1");

  auto instances = read_instances_file(cli.get_string("file"));
  if (cli.get_int("limit") > 0 &&
      instances.size() > static_cast<std::size_t>(cli.get_int("limit"))) {
    instances.erase(
        instances.begin() + static_cast<std::ptrdiff_t>(cli.get_int("limit")),
        instances.end());
  }
  if (!cli.get_string("variant-mix").empty()) {
    const VariantMix mix = parse_variant_mix(cli.get_string("variant-mix"));
    for (std::size_t i = 0; i < instances.size(); ++i) {
      instances[i] =
          apply_variant_mix(mix, instances[i],
                            static_cast<std::uint64_t>(cli.get_int("seed")), i);
    }
  }
  std::vector<SolveRequest> requests;
  requests.reserve(instances.size() *
                   static_cast<std::size_t>(cli.get_int("repeat")));
  std::mt19937_64 rng(static_cast<std::uint64_t>(cli.get_int("seed")));
  for (std::int64_t r = 0; r < cli.get_int("repeat"); ++r) {
    for (const Instance& instance : instances) {
      if (r == 0) {
        requests.push_back(SolveRequest{instance});
      } else {
        // A permuted twin: same job multiset, different order — exercises
        // the canonicalization layer, hits the cache. The variant tag and
        // payload carry over so the twin coalesces with pass 0 (variant is
        // part of the canonical identity: a permuted capacity twin must
        // dedup against its original, never against a classic sibling).
        std::vector<Time> times(instance.times().begin(),
                                instance.times().end());
        std::shuffle(times.begin(), times.end(), rng);
        requests.push_back(SolveRequest{Instance::with_variant(
            Instance(instance.machines(), std::move(times)),
            instance.variant(), instance.payload())});
      }
    }
  }

  const std::string mode = cli.get_string("mode");
  PCMAX_REQUIRE(mode == "resilient" || mode == "portfolio",
                "--mode must be 'resilient' or 'portfolio'");
  ServiceOptions options;
  options.mode =
      mode == "portfolio" ? ServiceMode::kPortfolio : ServiceMode::kResilient;
  options.workers = static_cast<unsigned>(cli.get_int("workers"));
  PCMAX_REQUIRE(cli.get_int("shards") >= 1, "--shards must be at least 1");
  PCMAX_REQUIRE(cli.get_int("async-window") >= 0,
                "--async-window must be non-negative");
  options.shards = static_cast<unsigned>(cli.get_int("shards"));
  options.lane_width = static_cast<unsigned>(cli.get_int("lane-width"));
  options.queue_capacity = static_cast<std::size_t>(cli.get_int("queue"));
  options.cache_capacity = static_cast<std::size_t>(cli.get_int("cache"));
  options.epsilon = cli.get_double("epsilon");
  options.default_time_limit_ms = cli.get_int("time-limit-ms");
  const std::string shed_policy = cli.get_string("shed-policy");
  PCMAX_REQUIRE(shed_policy == "static" || shed_policy == "tiered",
                "--shed-policy must be 'static' or 'tiered'");
  options.shed_policy =
      shed_policy == "tiered" ? ShedPolicy::kTiered : ShedPolicy::kStatic;
  options.coalesce = cli.get_bool("coalesce");
  options.breaker_enabled = cli.get_bool("breaker");
  if (!cli.get_string("tenant").empty()) {
    for (SolveRequest& request : requests) {
      request.tenant = cli.get_string("tenant");
    }
  }

  const std::string metrics_path = cli.get_string("metrics");
  std::optional<obs::Metrics> metrics;
  std::unique_ptr<obs::MetricsScope> metrics_scope;
  if (!metrics_path.empty()) {
    metrics.emplace(options.workers);
    metrics_scope = std::make_unique<obs::MetricsScope>(*metrics);
  }

  std::vector<SolveResponse> responses;
  ServiceStats stats;
  const std::uint64_t begin_ns = obs::monotonic_ns();
  double total_seconds = 0.0;
  {
    SolveService service(options);
    const std::size_t window =
        static_cast<std::size_t>(cli.get_int("async-window"));
    if (window == 0) {
      responses = service.solve_batch(std::move(requests));
    } else {
      // Windowed async submission: keep at most `window` requests in
      // flight, harvesting in submission order so the report stays aligned
      // with the input file.
      std::vector<SolveFuture> futures;
      futures.reserve(requests.size());
      responses.reserve(requests.size());
      std::size_t harvested = 0;
      for (SolveRequest& request : requests) {
        futures.push_back(service.submit_async(std::move(request)));
        while (futures.size() - harvested >= window) {
          responses.push_back(futures[harvested++].get());
        }
      }
      while (harvested < futures.size()) {
        responses.push_back(futures[harvested++].get());
      }
    }
    total_seconds =
        static_cast<double>(obs::monotonic_ns() - begin_ns) * 1e-9;
    stats = service.stats();
  }

  if (metrics.has_value()) {
    metrics_scope.reset();  // stop collecting before exporting
    obs::write_metrics_file(metrics_path, *metrics);
    std::cerr << "wrote metrics profile to " << metrics_path << "\n";
  }

  const JsonValue report = batch_report(options, responses, stats, total_seconds);
  if (!cli.get_string("json").empty()) {
    std::ofstream out(cli.get_string("json"));
    PCMAX_REQUIRE(out.good(), "cannot open --json path for writing");
    out << report.dump(/*pretty=*/true) << "\n";
    std::cerr << "wrote batch report to " << cli.get_string("json") << "\n";
  }

  const bool show_variant =
      std::any_of(responses.begin(), responses.end(),
                  [](const SolveResponse& r) { return r.variant != "classic"; });
  std::vector<std::string> header = {"#", "m", "n", "makespan", "algorithm",
                                     "cache", "degraded", "seconds"};
  if (show_variant) header.insert(header.begin() + 3, "variant");
  TablePrinter table(header);
  for (std::size_t i = 0; i < responses.size(); ++i) {
    const SolveResponse& response = responses[i];
    std::vector<std::string> row = {
        std::to_string(i), std::to_string(response.machines),
        std::to_string(response.jobs), std::to_string(response.makespan),
        response.algorithm, response.cache_hit ? "hit" : "miss",
        response.degraded ? response.degradation_reason : "-",
        TablePrinter::fmt(response.seconds, 4)};
    if (show_variant) row.insert(row.begin() + 3, response.variant);
    table.add_row(row);
  }
  std::cout << table.to_string();
  const JsonValue& summary = report.at("summary");
  std::cout << "requests: " << summary.at("requests").as_int()
            << "  cache hits: " << summary.at("cache_hits").as_int()
            << "  misses: " << summary.at("cache_misses").as_int()
            << "  degraded: " << summary.at("degraded").as_int()
            << "  shed: "
            << summary.at("shed_quota").as_int() +
                   summary.at("shed_overload").as_int()
            << "  coalesced: " << summary.at("coalesced").as_int()
            << "  breaker trips: " << summary.at("breaker_trips").as_int()
            << "  unique: " << summary.at("unique_fingerprints").as_int()
            << "  throughput: "
            << TablePrinter::fmt(summary.at("throughput_rps").as_double(), 2)
            << " req/s\n";
  return 0;
}

int cmd_info(int argc, const char* const* argv) {
  CliParser cli("pcmax info: summarise an instance file.");
  cli.add_string("file", "", "instance file (required)");
  if (!cli.parse(argc, argv)) return 0;
  PCMAX_REQUIRE(!cli.get_string("file").empty(), "--file is required");

  const auto instances = read_instances_file(cli.get_string("file"));
  TablePrinter table({"#", "m", "n", "min t", "max t", "total", "LB", "UB"});
  for (std::size_t i = 0; i < instances.size(); ++i) {
    const Instance& instance = instances[i];
    Time min_t = instance.max_time();
    for (Time t : instance.times()) min_t = std::min(min_t, t);
    table.add_row({std::to_string(i), std::to_string(instance.machines()),
                   std::to_string(instance.jobs()), std::to_string(min_t),
                   std::to_string(instance.max_time()),
                   std::to_string(instance.total_time()),
                   std::to_string(makespan_lower_bound(instance)),
                   std::to_string(makespan_upper_bound(instance))});
  }
  std::cout << table.to_string();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string usage =
      "usage: pcmax <generate|solve|race|batch|info> [flags]   (--help per "
      "subcommand)\n";
  if (argc < 2) {
    std::cerr << usage;
    return 2;
  }
  const std::string command = argv[1];
  return run_main([&] {
    if (command == "generate") return cmd_generate(argc - 1, argv + 1);
    if (command == "solve") return cmd_solve(argc - 1, argv + 1);
    if (command == "race") return cmd_race(argc - 1, argv + 1);
    if (command == "batch") return cmd_batch(argc - 1, argv + 1);
    if (command == "info") return cmd_info(argc - 1, argv + 1);
    std::cerr << "unknown command '" << command << "'\n" << usage;
    return 2;
  });
}
