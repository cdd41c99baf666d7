// Portfolio race matrix: the six instance families x four size points
// (24 entries), racing the auto-selected portfolio against each racer run
// standalone. Verifies, per entry:
//
//   * the portfolio makespan is <= every racer's standalone makespan
//     (racing with a shared incumbent never loses to any single solver);
//   * the winning racer, re-run standalone under a fresh board seeded with
//     its recorded start bound, reproduces the portfolio schedule
//     byte-identically (the deterministic replay contract);
//   * the sequential race's wall clock stays within 1.15x of the sum of the
//     standalone racer times plus a 5 ms scheduling grace (bound clamping
//     and certification skips make the raced runs cheaper, not dearer).
//
// `--json <path>` writes a pcmax.bench.portfolio.v1 document; the tracked
// snapshot is BENCH_portfolio.json in the repo root.
#include <algorithm>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/bounds.hpp"
#include "core/instance_gen.hpp"
#include "core/portfolio.hpp"
#include "core/solver_registry.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/stopwatch.hpp"
#include "util/table_printer.hpp"

using namespace pcmax;

namespace {

struct StandaloneRun {
  std::string name;
  Time makespan = 0;
  double seconds = 0.0;
};

const RacerReport* report_of(const PortfolioResult& result,
                             const std::string& name) {
  for (const RacerReport& report : result.racers) {
    if (report.name == name) return &report;
  }
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli(
      "Portfolio racing (shared incumbent, sequential mode) vs each racer "
      "standalone, across the paper's instance families.");
  cli.add_int("seed", 42, "base RNG seed");
  cli.add_double("epsilon", 0.3, "PTAS accuracy");
  cli.add_double("exact-seconds", 5.0, "budget for the exact racers");
  cli.add_int("limit-sizes", 0, "use only the first N size points (0 = all)");
  cli.add_string("json", "", "write pcmax.bench.portfolio.v1 JSON here");
  if (!cli.parse(argc, argv)) return 0;

  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  std::vector<std::pair<int, int>> sizes{{3, 12}, {5, 20}, {10, 50}, {20, 100}};
  if (cli.get_int("limit-sizes") > 0 &&
      sizes.size() > static_cast<std::size_t>(cli.get_int("limit-sizes"))) {
    sizes.resize(static_cast<std::size_t>(cli.get_int("limit-sizes")));
  }

  JsonValue root = JsonValue::make_object();
  root["schema"] = "pcmax.bench.portfolio.v1";
  JsonValue& params = root["params"];
  params["seed"] = static_cast<std::int64_t>(seed);
  params["epsilon"] = cli.get_double("epsilon");
  params["exact_seconds"] = cli.get_double("exact-seconds");
  JsonValue entries = JsonValue::make_array();

  TablePrinter table({"family", "m", "n", "LB", "portfolio", "winner",
                      "best racer", "replay", "wall", "seconds"});
  int failures = 0;
  double worst_wall_ratio = 0.0;

  for (const InstanceFamily family : all_families()) {
    for (const auto& [m, n] : sizes) {
      const Instance instance = generate_instance(family, m, n, seed, 0);

      PortfolioOptions options;
      options.build.epsilon = cli.get_double("epsilon");
      options.build.exact_seconds = cli.get_double("exact-seconds");
      options.max_concurrent = 1;  // deterministic sequential race
      const std::vector<std::string> names = select_racers(instance, options);

      // Each racer standalone: fresh unlimited context, no board.
      std::vector<StandaloneRun> standalone;
      Time best_racer = IncumbentBoard::kNone;
      double sum_seconds = 0.0;
      for (const std::string& name : names) {
        Stopwatch sw;
        try {
          const auto solver =
              SolverRegistry::global().create(name, options.build);
          const SolverResult result =
              solver->solve(instance, SolveContext::unlimited());
          result.schedule.validate(instance);
          StandaloneRun run{name, result.makespan, sw.elapsed_seconds()};
          best_racer = std::min(best_racer, run.makespan);
          sum_seconds += run.seconds;
          standalone.push_back(std::move(run));
        } catch (const Error&) {
          // A racer that cannot handle this shape loses the race inside the
          // portfolio too; it simply does not participate in the baselines.
          sum_seconds += sw.elapsed_seconds();
        }
      }

      // The race itself.
      Stopwatch race_sw;
      const PortfolioResult raced =
          PortfolioSolver(options).race(instance, SolveContext::unlimited());
      const double race_seconds = race_sw.elapsed_seconds();
      raced.schedule.validate(instance);

      // Invariant 1: never worse than any standalone racer.
      const bool min_ok = raced.makespan <= best_racer;

      // Invariant 2: deterministic replay — the winner standalone, under a
      // fresh board seeded with its recorded start bound, reproduces the
      // raced schedule byte for byte.
      bool replay_ok = false;
      if (const RacerReport* winner = report_of(raced, raced.winner)) {
        SolveContext replay_context;
        replay_context.incumbent = std::make_shared<IncumbentBoard>();
        if (winner->start_bound != IncumbentBoard::kNone) {
          replay_context.incumbent->publish(winner->start_bound);
        }
        const auto solo =
            SolverRegistry::global().create(raced.winner, options.build);
        const SolverResult replay = solo->solve(instance, replay_context);
        replay_ok = replay.makespan == raced.makespan &&
                    replay.schedule == raced.schedule;
      }

      // Invariant 3: racing costs at most 1.15x of running every racer
      // yourself, plus a 5 ms grace for thread/board bookkeeping.
      const double wall_budget = 1.15 * sum_seconds + 0.005;
      const bool wall_ok = race_seconds <= wall_budget;
      const double wall_ratio =
          sum_seconds > 0 ? race_seconds / sum_seconds : 0.0;
      worst_wall_ratio = std::max(worst_wall_ratio, wall_ratio);

      if (!min_ok || !replay_ok || !wall_ok) ++failures;

      table.add_row(
          {family_name(family), std::to_string(m), std::to_string(n),
           std::to_string(improved_lower_bound(instance)),
           std::to_string(raced.makespan) + (min_ok ? "" : " (WORSE!)"),
           raced.winner, std::to_string(best_racer),
           replay_ok ? "identical" : "MISMATCH",
           (wall_ok ? "" : "OVER ") + TablePrinter::fmt(wall_ratio, 2) + "x",
           TablePrinter::fmt(race_seconds, 4)});

      JsonValue entry = JsonValue::make_object();
      entry["family"] = family_name(family);
      entry["m"] = m;
      entry["n"] = n;
      entry["lower_bound"] = improved_lower_bound(instance);
      JsonValue racer_array = JsonValue::make_array();
      for (const StandaloneRun& run : standalone) {
        JsonValue racer = JsonValue::make_object();
        racer["name"] = run.name;
        racer["makespan"] = run.makespan;
        racer["seconds"] = run.seconds;
        racer_array.append(std::move(racer));
      }
      entry["racers_standalone"] = std::move(racer_array);
      JsonValue& portfolio = entry["portfolio"];
      portfolio["makespan"] = raced.makespan;
      portfolio["winner"] = raced.winner;
      portfolio["proven_optimal"] = raced.proven_optimal;
      portfolio["seconds"] = race_seconds;
      portfolio["racers_cancelled"] = raced.stats.at("racers_cancelled");
      portfolio["incumbent_updates"] = raced.stats.at("incumbent_updates");
      entry["makespan_le_every_racer"] = min_ok;
      entry["replay_identical"] = replay_ok;
      entry["wall_ratio_vs_sum"] = wall_ratio;
      entry["wall_within_budget"] = wall_ok;
      entries.append(std::move(entry));
    }
  }

  root["entries"] = std::move(entries);
  JsonValue& summary = root["summary"];
  summary["entries"] = static_cast<std::int64_t>(
      root.at("entries").size());
  summary["failures"] = failures;
  summary["worst_wall_ratio_vs_sum"] = worst_wall_ratio;

  std::cout << table.to_string() << "entries: " << root.at("entries").size()
            << "  failures: " << failures << "  worst wall ratio: "
            << TablePrinter::fmt(worst_wall_ratio, 2) << "x (budget 1.15x "
            << "of the standalone sum + 5 ms grace)\n";

  const std::string json_path = cli.get_string("json");
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out.good()) {
      std::cerr << "cannot open --json output file '" << json_path << "'\n";
      return 1;
    }
    out << root.dump(/*pretty=*/true) << "\n";
    std::cout << "wrote " << json_path << "\n";
  }
  return failures == 0 ? 0 : 1;
}
