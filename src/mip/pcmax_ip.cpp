#include "mip/pcmax_ip.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "algo/lpt.hpp"
#include "core/bounds.hpp"
#include "obs/metrics.hpp"
#include "util/deadline.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/stopwatch.hpp"

namespace pcmax {

LpProblem build_root_relaxation(const Instance& instance) {
  const int m = instance.machines();
  const int n = instance.jobs();
  LpProblem lp;
  lp.num_vars = m * n + 1;  // x_ij row-major by machine, then C last
  lp.objective.assign(static_cast<std::size_t>(lp.num_vars), 0.0);
  lp.objective.back() = 1.0;  // min C

  // Assignment equalities.
  for (int j = 0; j < n; ++j) {
    LpConstraint con;
    con.coeffs.assign(static_cast<std::size_t>(lp.num_vars), 0.0);
    for (int i = 0; i < m; ++i) {
      con.coeffs[static_cast<std::size_t>(i * n + j)] = 1.0;
    }
    con.relation = Relation::kEqual;
    con.rhs = 1.0;
    lp.constraints.push_back(std::move(con));
  }
  // Machine capacity rows.
  for (int i = 0; i < m; ++i) {
    LpConstraint con;
    con.coeffs.assign(static_cast<std::size_t>(lp.num_vars), 0.0);
    for (int j = 0; j < n; ++j) {
      con.coeffs[static_cast<std::size_t>(i * n + j)] =
          static_cast<double>(instance.time(j));
    }
    con.coeffs.back() = -1.0;  // ... - C <= 0
    con.relation = Relation::kLessEqual;
    con.rhs = 0.0;
    lp.constraints.push_back(std::move(con));
  }
  return lp;
}

namespace {

/// Search state of the branch-and-bound: per-job fixed machine (-1 = free)
/// and per-job bitmask of forbidden machines.
struct NodeState {
  std::vector<int> fixed;               // fixed[j] = machine or -1
  std::vector<std::uint64_t> forbidden; // forbidden[j] bit i => x_ij = 0
};

/// Column map of a node LP: free jobs get contiguous slots.
struct NodeLp {
  std::vector<int> free_jobs;  // job index per free slot
  int machines = 0;
  LpProblem lp;

  [[nodiscard]] int var(int machine, int slot) const {
    return machine * static_cast<int>(free_jobs.size()) + slot;
  }
  [[nodiscard]] int c_var() const {
    return machines * static_cast<int>(free_jobs.size());
  }
};

/// Builds the LP relaxation of a node: fixed jobs are substituted into the
/// machine rows; forbidden x_ij are pinned to 0 via equality with 0 —
/// cheaper: simply force their coefficient pattern by an equality row.
/// We instead drop them from the assignment row and cap them with x_ij = 0
/// by excluding the column (coefficients all zero and objective zero keeps
/// them at 0 in any vertex the simplex visits, because increasing them
/// cannot improve the objective nor feasibility).
NodeLp build_node_lp(const Instance& instance, const NodeState& state) {
  NodeLp node;
  const int m = instance.machines();
  node.machines = m;
  std::vector<Time> fixed_load(static_cast<std::size_t>(m), 0);
  for (int j = 0; j < instance.jobs(); ++j) {
    if (state.fixed[static_cast<std::size_t>(j)] >= 0) {
      fixed_load[static_cast<std::size_t>(state.fixed[static_cast<std::size_t>(j)])] +=
          instance.time(j);
    } else {
      node.free_jobs.push_back(j);
    }
  }

  const int F = static_cast<int>(node.free_jobs.size());
  LpProblem& lp = node.lp;
  lp.num_vars = m * F + 1;
  lp.objective.assign(static_cast<std::size_t>(lp.num_vars), 0.0);
  lp.objective.back() = 1.0;

  for (int f = 0; f < F; ++f) {
    const int job = node.free_jobs[static_cast<std::size_t>(f)];
    LpConstraint con;
    con.coeffs.assign(static_cast<std::size_t>(lp.num_vars), 0.0);
    for (int i = 0; i < m; ++i) {
      if (state.forbidden[static_cast<std::size_t>(job)] &
          (std::uint64_t{1} << i)) {
        continue;  // x_ij fixed to 0: column stays out of the row
      }
      con.coeffs[static_cast<std::size_t>(node.var(i, f))] = 1.0;
    }
    con.relation = Relation::kEqual;
    con.rhs = 1.0;
    lp.constraints.push_back(std::move(con));
  }
  for (int i = 0; i < m; ++i) {
    LpConstraint con;
    con.coeffs.assign(static_cast<std::size_t>(lp.num_vars), 0.0);
    for (int f = 0; f < F; ++f) {
      const int job = node.free_jobs[static_cast<std::size_t>(f)];
      if (state.forbidden[static_cast<std::size_t>(job)] &
          (std::uint64_t{1} << i)) {
        continue;
      }
      con.coeffs[static_cast<std::size_t>(node.var(i, f))] =
          static_cast<double>(instance.time(job));
    }
    con.coeffs.back() = -1.0;
    con.relation = Relation::kLessEqual;
    con.rhs = -static_cast<double>(fixed_load[static_cast<std::size_t>(i)]);
    lp.constraints.push_back(std::move(con));
  }
  return node;
}

struct MipSearch {
  /// How often the steady clock is sampled, in nodes. The token *flag* is
  /// polled every node (one relaxed load); the clock read is amortised.
  static constexpr std::uint64_t kClockPeriod = 32;

  const Instance& instance;
  const MipOptions& options;
  Deadline deadline;
  /// Effective stop signal: the context's effective_token().
  CancellationToken stop;
  /// Shared incumbent board from the context; publish-side handle.
  std::shared_ptr<IncumbentBoard> board;
  /// Read-once snapshot of the board at search start (kNone without one).
  /// Reading once keeps the node sequence a pure function of
  /// (instance, options, snapshot) — a portfolio race stays replayable.
  Time external_cutoff = IncumbentBoard::kNone;

  Time incumbent_makespan;
  std::vector<int> incumbent_assignment;
  Time global_lb;
  std::uint64_t nodes = 0;
  std::uint64_t lp_solves = 0;
  bool budget_exhausted = false;
  const char* limit_reason = "";  // set when budget_exhausted

  MipSearch(const Instance& inst, const MipOptions& opts,
            const SolveContext& context)
      : instance(inst), options(opts),
        deadline(Deadline::after_seconds(opts.max_seconds)),
        stop(context.effective_token()), board(context.incumbent) {
    SolverResult lpt = LptSolver().solve(inst);
    incumbent_makespan = lpt.makespan;
    incumbent_assignment = lpt.schedule.assignment(inst);
    global_lb = improved_lower_bound(inst);
    if (board != nullptr && board->has_value()) {
      external_cutoff = board->best();
      if (external_cutoff < incumbent_makespan) {
        if (obs::Metrics* metrics = obs::current()) {
          metrics->add(0, obs::Counter::kPortfolioBoundTightenings);
        }
      }
    }
  }

  /// Prune cutoff: no node whose bound reaches this value can improve on
  /// what some cooperating solver already holds.
  [[nodiscard]] Time cutoff() const {
    return std::min(incumbent_makespan, external_cutoff);
  }

  /// True once any budget has tripped; records why. The search is anytime:
  /// a stop (including a cancelled token) keeps the incumbent — it never
  /// throws for resource reasons.
  bool out_of_budget() {
    if (budget_exhausted) return true;
    if (nodes > options.max_nodes) {
      limit_reason = "node-budget";
    } else if (stop.valid() && stop.cancel_requested()) {
      limit_reason = "cancelled";
    } else if (nodes % kClockPeriod == 0 &&
               (deadline.expired() || (stop.valid() && stop.should_stop()))) {
      limit_reason = deadline.expired() ? "deadline" : "cancelled";
    } else {
      return false;
    }
    budget_exhausted = true;
    return true;
  }

  void dfs(NodeState& state) {
    if (budget_exhausted) return;
    if (cutoff() <= global_lb) return;  // cutoff certified optimal already
    ++nodes;
    fault_hit("mip.node");
    if (obs::Metrics* metrics = obs::current()) {
      metrics->add(0, obs::Counter::kMipNodes);
    }
    if (out_of_budget()) return;

    const NodeLp node = build_node_lp(instance, state);
    ++lp_solves;
    const LpSolution relax = solve_lp(node.lp, options.lp);
    if (relax.status == LpStatus::kInfeasible) return;
    if (relax.status != LpStatus::kOptimal) {
      // Iteration limit or numerical trouble: treat the node as unresolved
      // and stop claiming optimality rather than risk wrong pruning.
      budget_exhausted = true;
      limit_reason = "lp-unresolved";
      return;
    }

    // Integral bound: all processing times are integers, so C* >= ceil(z).
    const Time bound = std::max<Time>(
        global_lb, static_cast<Time>(std::ceil(relax.objective - 1e-6)));
    if (bound >= cutoff()) return;  // cannot strictly improve on the cutoff

    // Find the most fractional assignment variable.
    const int F = static_cast<int>(node.free_jobs.size());
    int branch_machine = -1;
    int branch_job = -1;
    double best_score = -1.0;
    for (int i = 0; i < node.machines; ++i) {
      for (int f = 0; f < F; ++f) {
        const double v = relax.x[static_cast<std::size_t>(node.var(i, f))];
        const double frac = std::min(v, 1.0 - v);
        if (frac > 1e-6 && frac > best_score) {
          best_score = frac;
          branch_machine = i;
          branch_job = node.free_jobs[static_cast<std::size_t>(f)];
        }
      }
    }

    if (branch_machine < 0) {
      // Integral relaxation: extract the assignment as a new incumbent.
      std::vector<int> assignment = state.fixed;
      for (int f = 0; f < F; ++f) {
        const int job = node.free_jobs[static_cast<std::size_t>(f)];
        for (int i = 0; i < node.machines; ++i) {
          if (relax.x[static_cast<std::size_t>(node.var(i, f))] > 0.5) {
            assignment[static_cast<std::size_t>(job)] = i;
            break;
          }
        }
        PCMAX_CHECK(assignment[static_cast<std::size_t>(job)] >= 0,
                    "integral LP left a job unassigned");
      }
      const Schedule schedule =
          Schedule::from_assignment(instance.machines(), assignment);
      const Time makespan = schedule.makespan(instance);
      if (makespan < incumbent_makespan) {
        incumbent_makespan = makespan;
        incumbent_assignment = std::move(assignment);
        if (board != nullptr) board->publish(makespan);
      }
      return;
    }

    const auto job_index = static_cast<std::size_t>(branch_job);
    // Dive: x_ij = 1 first (fix the job on the machine).
    state.fixed[job_index] = branch_machine;
    dfs(state);
    state.fixed[job_index] = -1;

    // Then x_ij = 0.
    state.forbidden[job_index] |= std::uint64_t{1} << branch_machine;
    // If every machine is now forbidden for this job the branch is dead.
    const std::uint64_t all =
        instance.machines() == 64
            ? ~std::uint64_t{0}
            : ((std::uint64_t{1} << instance.machines()) - 1);
    if ((state.forbidden[job_index] & all) != all) dfs(state);
    state.forbidden[job_index] &= ~(std::uint64_t{1} << branch_machine);
  }
};

}  // namespace

PcmaxIpSolver::PcmaxIpSolver(MipOptions options) : options_(options) {}

SolverResult PcmaxIpSolver::solve(const Instance& instance) {
  return solve(instance, SolveContext{});
}

SolverResult PcmaxIpSolver::solve(const Instance& instance,
                                  const SolveContext& context) {
  if (instance.machines() > 64) {
    // The forbidden sets are 64-bit masks; more machines than bits is a
    // structural capacity limit, reported in the uniform format.
    throw ResourceLimitError(resource_limit_message(
        "MILP machines (forbidden-set bitmask width)", 64,
        static_cast<std::uint64_t>(instance.machines())));
  }
  Stopwatch sw;
  const ContextScopes scopes(context);
  MipSearch search(instance, options_, context);

  NodeState state;
  state.fixed.assign(static_cast<std::size_t>(instance.jobs()), -1);
  state.forbidden.assign(static_cast<std::size_t>(instance.jobs()), 0);
  search.dfs(state);

  SolverResult result;
  result.schedule =
      Schedule::from_assignment(instance.machines(), search.incumbent_assignment);
  result.makespan = result.schedule.makespan(instance);
  result.seconds = sw.elapsed_seconds();
  result.stats["nodes"] = static_cast<double>(search.nodes);
  result.stats["lp_solves"] = static_cast<double>(search.lp_solves);
  // A complete search proved OPT >= cutoff(). With no external snapshot the
  // cutoff IS the incumbent, so this reduces to the pre-v2 semantics; with
  // one, the cutoff VALUE is certified optimal even when the certifying
  // schedule lives with another cooperating solver.
  const bool complete = !search.budget_exhausted;
  result.proven_optimal =
      complete && search.incumbent_makespan <= search.external_cutoff;
  if (search.budget_exhausted) result.notes["limit_reason"] = search.limit_reason;
  if (search.external_cutoff != IncumbentBoard::kNone) {
    result.stats["external_cutoff"] = static_cast<double>(search.external_cutoff);
    if (complete) {
      result.notes["certified_value"] = std::to_string(search.cutoff());
    }
  }
  return result;
}

}  // namespace pcmax
