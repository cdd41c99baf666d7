// Library arm: `ptas` and `parallel-ptas` (2-thread work-stealing executor)
// over one instance set in a closed loop.
//
// Untraced, it times whole solves. Traced, it also replays every probe the
// solve's public bisection trace recorded, calling each PTAS phase function
// in its own span, and counts executor regions and parks of the parallel
// solve through an obs::MetricsScope.
#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "algo/ptas/config_enum.hpp"
#include "algo/ptas/dp_parallel.hpp"
#include "algo/ptas/dp_sequential.hpp"
#include "algo/ptas/ptas.hpp"
#include "algo/ptas/reconstruct.hpp"
#include "algo/ptas/rounding.hpp"
#include "algo/ptas/state_space.hpp"
#include "arms.hpp"
#include "core/bounds.hpp"
#include "obs/metrics.hpp"

namespace pcmaxbench {
namespace {

using pcmax::SolverResult;

/// One timed solve; false (and a failed operation) when it throws.
bool timed_solve(pcmax::Solver& solver, const Instance& instance, SolverResult& out,
                 double& wall, double& cpu, Tally& tally) {
  ++tally.attempted;
  const double c0 = cpu_s();
  const double t0 = now_s();
  try {
    out = solver.solve(instance);
  } catch (const std::exception& e) {
    tally.fail(solver.name() + " threw: " + e.what());
    return false;
  }
  wall = now_s() - t0;
  cpu = cpu_s() - c0;
  return true;
}

void check_pair(const Generated& g, double eps, const SolverResult& seq,
                const SolverResult& par, Tally& tally) {
  for (const SolverResult* r : {&seq, &par}) {
    std::string verdict = check_schedule(g.instance, r->schedule, r->makespan);
    if (verdict.empty()) verdict = check_bounds(g.instance, r->makespan, g.opt, eps);
    if (!verdict.empty()) tally.error(verdict);
  }
  const std::string verdict = check_agreement(seq.makespan, par.makespan);
  if (!verdict.empty()) tally.error(verdict);
}

/// Per-layer accumulators of the traced run.
struct LayerCounts {
  std::vector<double> probes;        ///< trace length per solve
  std::vector<double> configs;       ///< |C| per probe
  std::vector<double> entries;       ///< sum of sigma per solve
  std::vector<double> table_mib;     ///< largest table per solve
  std::vector<double> par_cpu_ms;    ///< parallel fill CPU per probe
  std::vector<double> speedup;       ///< sequential / parallel fill per probe
  std::vector<double> regions;       ///< pool.regions per parallel solve
  std::vector<double> parks;         ///< pool.parks per parallel solve
  double scans = 0.0;
  double computed = 0.0;
};

/// Replays the probes of one traced solve, each phase in its own span.
void replay_probes(const Generated& g, pcmax::PtasSolver& traced, pcmax::Executor& executor,
                   const pcmax::PtasResult& result, std::size_t solve_span,
                   std::uint64_t op, Tracer& tracer, LayerCounts& counts, Tally& tally) {
  const Instance& instance = g.instance;
  const int k = traced.k();
  const pcmax::DpLimits& limits = traced.options().limits;
  const auto& trace = result.bisection.trace;
  double entries = 0.0;
  double table_bytes = 0.0;
  for (std::size_t p = 0; p < trace.size(); ++p) {
    const bool final_probe = p + 1 == trace.size();
    const std::size_t probe = tracer.open("ptas.probe", solve_span, op);
    const auto params = pcmax::RoundingParams::make(trace[p].target, k);

    double t0 = now_s();
    const pcmax::JobPartition partition = pcmax::partition_jobs(instance, params);
    pcmax::RoundedInstance rounded = pcmax::round_long_jobs(instance, partition, params);
    tracer.add("ptas.round", t0, now_s(), probe, op);

    t0 = now_s();
    pcmax::StateSpace space(rounded.class_count, limits.max_table_entries);
    pcmax::ConfigSet configs = pcmax::enumerate_configs(rounded, space, limits.max_configs);
    tracer.add("ptas.config_enum", t0, now_s(), probe, op);
    counts.configs.push_back(static_cast<double>(configs.count()));

    pcmax::DpOptions values_only;
    values_only.mode = pcmax::DpTableMode::kValuesOnly;
    t0 = now_s();
    const pcmax::DpRun seq_run = pcmax::dp_bottom_up(rounded, space, configs, values_only);
    const double seq_fill = now_s() - t0;
    tracer.add("ptas.dp_fill", t0, t0 + seq_fill, probe, op);

    pcmax::ParallelDpOptions parallel;
    parallel.executor = &executor;
    parallel.table_mode = pcmax::DpTableMode::kValuesOnly;
    const double c0 = cpu_s();
    t0 = now_s();
    const pcmax::DpRun par_run = pcmax::dp_parallel(rounded, space, configs, parallel);
    const double par_fill = now_s() - t0;
    counts.par_cpu_ms.push_back((cpu_s() - c0) * 1e3);
    tracer.add("parallel.dp_fill", t0, t0 + par_fill, probe, op);
    if (par_fill > 0.0) counts.speedup.push_back(seq_fill / par_fill);

    const bool feasible = seq_run.machines_needed <= instance.machines();
    if (feasible != trace[p].feasible || par_run.machines_needed != seq_run.machines_needed) {
      tally.error("probe replay at T=" + std::to_string(trace[p].target) +
                  " disagrees with the solve's trace");
    }
    counts.scans += static_cast<double>(seq_run.stats.config_scans);
    counts.computed += static_cast<double>(seq_run.stats.entries_computed);
    entries += static_cast<double>(seq_run.stats.table_size);
    // Probe tables hold one int32 value per entry; the final run keeps an
    // int32 choice beside it.
    const double width = final_probe ? 8.0 : 4.0;
    table_bytes = std::max(table_bytes, static_cast<double>(space.size()) * width);

    if (final_probe) {
      t0 = now_s();
      pcmax::DpRun full = pcmax::dp_bottom_up(rounded, space, configs, pcmax::DpOptions{});
      tracer.add("ptas.dp_fill_final", t0, now_s(), probe, op);
      const pcmax::DpAtTarget at{std::move(rounded), std::move(space), std::move(configs),
                                 std::move(full)};
      t0 = now_s();
      const Schedule schedule = pcmax::reconstruct_full_schedule(instance, at);
      tracer.add("ptas.reconstruct", t0, now_s(), probe, op);
      const std::string verdict = check_schedule(instance, schedule, result.makespan);
      if (!verdict.empty()) tally.error("replayed reconstruction: " + verdict);
    }
    tracer.close(probe);
  }
  counts.probes.push_back(static_cast<double>(trace.size()));
  counts.entries.push_back(entries);
  counts.table_mib.push_back(table_bytes / (1024.0 * 1024.0));
}

/// Number of shapes the set is made of; set index i has shape i / per-shape.
std::size_t strata(const Workload& workload) {
  return workload.lib_over_keys ? 1 : workload.lib_shapes.size();
}

/// Round-robin over the shapes, each shape's instances in seeded random
/// order, so that however far a timed run gets, every shape has been visited
/// equally often give or take one.
std::vector<std::size_t> visit_order(std::size_t size, std::size_t shapes, std::uint64_t seed) {
  const std::size_t per_shape = size / shapes;
  Rng rng(mix_seed(seed, 0x6f72646572));
  std::vector<std::vector<std::size_t>> by_shape(shapes);
  for (std::size_t s = 0; s < shapes; ++s) {
    for (std::size_t j = 0; j < per_shape; ++j) by_shape[s].push_back(s * per_shape + j);
    for (std::size_t i = per_shape; i > 1; --i) {
      std::swap(by_shape[s][i - 1],
                by_shape[s][static_cast<std::size_t>(rng.uniform(0, static_cast<Time>(i) - 1))]);
    }
  }
  std::vector<std::size_t> order;
  for (std::size_t j = 0; j < per_shape; ++j) {
    for (std::size_t s = 0; s < shapes; ++s) order.push_back(by_shape[s][j]);
  }
  return order;
}

/// Solves per second at the geometric mean solve time. Solve times over a
/// set span three orders of magnitude, and a plain count / total-time rate
/// follows the one or two slowest instances a seed happens to draw.
double geomean_rate(const std::vector<double>& ms) {
  double log_sum = 0.0;
  for (const double t : ms) log_sum += std::log(t * 1e-3);
  return ms.empty() ? 0.0 : std::exp(-log_sum / static_cast<double>(ms.size()));
}

/// The finite entries of a best-of-visits vector.
std::vector<double> visited(const std::vector<double>& best) {
  std::vector<double> out;
  for (const double t : best) {
    if (std::isfinite(t)) out.push_back(t);
  }
  return out;
}

double mean(const std::vector<double>& v) {
  return v.empty() ? 0.0 : std::accumulate(v.begin(), v.end(), 0.0) / static_cast<double>(v.size());
}

}  // namespace

struct LibraryArm::State {
  State(const Workload& w, Session& s, Tracer* t, Tally& ta)
      : workload(w),
        session(s),
        tracer(t),
        tally(ta),
        set(w.lib_over_keys ? s.keys : s.lib_set),
        refs(w.lib_over_keys ? s.key_refs : s.lib_refs) {}

  const Workload& workload;
  Session& session;
  Tracer* tracer;
  Tally& tally;
  const std::vector<Generated>& set;
  const std::vector<Time>& refs;  ///< reference `ptas` makespan per set index
  std::vector<std::size_t> order;
  std::unique_ptr<pcmax::PtasSolver> traced;  ///< same options, keeps its trace
  std::uint64_t visit = 0;
  std::vector<bool> seen;  ///< approx ratio taken once per instance
  // Best (lowest) of each instance's visits: wall ms of `ptas` and of
  // `parallel-ptas`, and CPU ms of `parallel-ptas`.
  std::vector<double> best_seq;
  std::vector<double> best_par;
  std::vector<double> best_cpu;
  std::vector<double> ratios;
  LayerCounts counts;

  void visit_one();
};

LibraryArm::LibraryArm(const Workload& workload, Session& session, const RunOptions& options,
                       Tracer* tracer, Tally& tally)
    : state_(std::make_unique<State>(workload, session, tracer, tally)) {
  State& st = *state_;
  st.order = visit_order(st.set.size(), strata(workload), options.seed);
  st.seen.assign(st.set.size(), false);
  const double none = std::numeric_limits<double>::infinity();
  st.best_seq.assign(st.set.size(), none);
  st.best_par.assign(st.set.size(), none);
  st.best_cpu.assign(st.set.size(), none);
  if (tracer != nullptr) {
    pcmax::PtasOptions opts = dynamic_cast<pcmax::PtasSolver&>(*session.seq).options();
    opts.keep_trace = true;
    st.traced = std::make_unique<pcmax::PtasSolver>(opts);
  }
}

LibraryArm::~LibraryArm() = default;

void LibraryArm::run(double seconds) {
  const double end = now_s() + seconds;
  do {
    state_->visit_one();
  } while (now_s() < end);
}

void LibraryArm::State::visit_one() {
  const std::uint64_t v = visit++;
  const std::size_t index = order[v % order.size()];
  const Generated& g = set[index];
  SolverResult seq;
  SolverResult par;
  bool seq_ok = false;
  bool par_ok = false;
  if (tracer == nullptr) {
    const bool seq_first = v % 2 == 0;
    for (int turn = 0; turn < 2; ++turn) {
      double wall = 0.0;
      double cpu = 0.0;
      if ((turn == 0) == seq_first) {
        seq_ok = timed_solve(*session.seq, g.instance, seq, wall, cpu, tally);
        if (seq_ok) best_seq[index] = std::min(best_seq[index], wall * 1e3);
      } else {
        par_ok = timed_solve(*session.par, g.instance, par, wall, cpu, tally);
        if (par_ok) {
          best_par[index] = std::min(best_par[index], wall * 1e3);
          best_cpu[index] = std::min(best_cpu[index], cpu * 1e3);
        }
      }
    }
  } else {
    const std::size_t solve = tracer->open("solve", Tracer::kNoParent, v);
    double t0 = now_s();
    const Time lb = pcmax::makespan_lower_bound(g.instance);
    const Time ub = pcmax::makespan_upper_bound(g.instance);
    tracer->add("core.bounds", t0, now_s(), solve, v);
    if (lb > ub) tally.error("library bounds inverted");
    ++tally.attempted;
    pcmax::PtasResult result;
    t0 = now_s();
    try {
      result = traced->solve_with_trace(g.instance);
      seq = result;
      seq_ok = true;
    } catch (const std::exception& e) {
      tally.fail(std::string("ptas threw: ") + e.what());
    }
    tracer->add("ptas.solve", t0, now_s(), solve, v);
    if (seq_ok) {
      replay_probes(g, *traced, *session.executor, result, solve, v, *tracer, counts, tally);
    }
    pcmax::obs::Metrics pool_metrics(4);
    double wall = 0.0;
    double cpu = 0.0;
    t0 = now_s();
    {
      const pcmax::obs::MetricsScope scope(pool_metrics);
      par_ok = timed_solve(*session.par, g.instance, par, wall, cpu, tally);
    }
    tracer->add("parallel.solve", t0, now_s(), solve, v);
    counts.regions.push_back(
        static_cast<double>(pool_metrics.counter_total(pcmax::obs::Counter::kPoolRegions)));
    counts.parks.push_back(
        static_cast<double>(pool_metrics.counter_total(pcmax::obs::Counter::kPoolParks)));
    for (int h = 0; h < 16; ++h) {
      t0 = now_s();
      session.executor->parallel_for(2, [](std::size_t) {});
      tracer->add("parallel.handoff", t0, now_s(), solve, v);
    }
    tracer->close(solve);
  }
  if (seq_ok && par_ok) check_pair(g, workload.lib_eps, seq, par, tally);
  if (seq_ok && seq.makespan != refs[index]) {
    tally.error("ptas makespan " + std::to_string(seq.makespan) + " differs from its reference solve " +
                std::to_string(refs[index]));
  }
  if (seq_ok && !seen[index]) {
    seen[index] = true;
    ratios.push_back(static_cast<double>(seq.makespan) /
                     static_cast<double>(lower_bound(g.instance)));
  }
}

void LibraryArm::report(Metrics& metrics) const {
  const State& st = *state_;
  if (st.tracer == nullptr) {
    const std::vector<double> seq = visited(st.best_seq);
    const std::vector<double> par = visited(st.best_par);
    metrics["seq_solves_per_s"] = {geomean_rate(seq), "1/s"};
    metrics["seq_solve_ms_p50"] = {quantile(seq, 0.5), "ms"};
    metrics["par_solves_per_s"] = {geomean_rate(par), "1/s"};
    metrics["par_solve_ms_p50"] = {quantile(par, 0.5), "ms"};
    metrics["par_cpu_ms_per_solve"] = {quantile(visited(st.best_cpu), 0.5), "ms"};
    metrics["approx_ratio_mean"] = {mean(st.ratios), "ratio"};
    return;
  }
  const Tracer& tracer = *st.tracer;
  const LayerCounts& counts = st.counts;
  const auto us = [&](const char* span) { return quantile(tracer.durations(span), 0.5) * 1e6; };
  metrics["core.bounds_us"] = {us("core.bounds"), "us"};
  metrics["ptas.probes_per_solve"] = {mean(counts.probes), "count"};
  metrics["ptas.round_us"] = {us("ptas.round"), "us"};
  metrics["ptas.config_enum_us"] = {us("ptas.config_enum"), "us"};
  metrics["ptas.configs_per_probe"] = {mean(counts.configs), "count"};
  metrics["ptas.dp_fill_ms"] = {us("ptas.dp_fill") / 1e3, "ms"};
  metrics["ptas.dp_entries_per_solve"] = {mean(counts.entries), "count"};
  metrics["ptas.dp_scans_per_entry"] = {counts.computed > 0 ? counts.scans / counts.computed : 0.0,
                                        "count"};
  metrics["ptas.dp_table_mib"] = {mean(counts.table_mib), "MiB"};
  metrics["ptas.reconstruct_us"] = {us("ptas.reconstruct"), "us"};
  metrics["parallel.dp_fill_ms"] = {us("parallel.dp_fill") / 1e3, "ms"};
  metrics["parallel.dp_fill_cpu_ms"] = {quantile(counts.par_cpu_ms, 0.5), "ms"};
  metrics["parallel.dp_speedup"] = {quantile(counts.speedup, 0.5), "ratio"};
  metrics["parallel.handoff_us"] = {us("parallel.handoff"), "us"};
  metrics["parallel.regions_per_solve"] = {mean(counts.regions), "count"};
  metrics["parallel.parks_per_solve"] = {mean(counts.parks), "count"};
}


}  // namespace pcmaxbench
