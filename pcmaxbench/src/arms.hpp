// The two arms every workload runs: the library arm (`ptas` and
// `parallel-ptas` through SolverRegistry) and the service arm
// (SolveService::submit_async), plus the set-up they share.
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "common.hpp"
#include "core/solver.hpp"
#include "parallel/executor.hpp"
#include "service/solve_service.hpp"

namespace pcmaxbench {

/// Everything built before the first timed operation.
struct Session {
  std::vector<Generated> lib_set;  ///< library-arm instances
  std::vector<Time> lib_refs;      ///< reference `ptas` makespan of each lib_set instance
  std::vector<Generated> keys;     ///< service key set, in canonical (sorted) order
  std::vector<Time> key_refs;      ///< reference `ptas` makespan of each key
  std::unique_ptr<pcmax::Executor> executor;  ///< 2-thread work-stealing executor
  std::unique_ptr<pcmax::Solver> seq;         ///< registry "ptas"
  std::unique_ptr<pcmax::Solver> par;         ///< registry "parallel-ptas"
  std::unique_ptr<pcmax::SolveService> service;
};

/// The service's Zipf-ranked key set, in canonical (sorted) job order; rank r
/// is key r.
std::vector<Generated> make_keys(const Workload& workload, std::uint64_t seed);

/// Generates the inputs from the seed, creates the solvers, starts the
/// executor and the service, and warms the parallel solver.
Session make_session(const Workload& workload, const RunOptions& options);

/// Solves every library-set instance and every key once with `ptas`, for the
/// checks (lib_refs, key_refs).
void solve_references(const Workload& workload, Session& session);

/// Closed loop over the library set: each instance solved by both solvers
/// back to back, alternating which goes first. run() continues the loop, so
/// a run can be split into slices spread over the whole measurement.
class LibraryArm {
 public:
  LibraryArm(const Workload& workload, Session& session, const RunOptions& options,
             Tracer* tracer, Tally& tally);
  ~LibraryArm();
  LibraryArm(const LibraryArm&) = delete;
  LibraryArm& operator=(const LibraryArm&) = delete;

  /// Visits instances for `seconds` (at least one).
  void run(double seconds);
  /// The end-to-end library metrics, or the per-layer ones when traced.
  void report(Metrics& metrics) const;

 private:
  struct State;
  std::unique_ptr<State> state_;
};

/// One submitting thread against the session's service: closed() runs
/// phase 1 (a fixed window of outstanding futures), open() phase 2 (Poisson
/// arrivals at the workload's fixed rate). Both continue where the previous
/// slice stopped.
class ServiceArm {
 public:
  ServiceArm(const Workload& workload, Session& session, const RunOptions& options,
             Tracer* tracer, Tally& tally);
  ~ServiceArm();
  ServiceArm(const ServiceArm&) = delete;
  ServiceArm& operator=(const ServiceArm&) = delete;

  void closed(double seconds);
  void open(double seconds);
  /// Checks every response against a direct `ptas` solve of its canonical
  /// instance, then reports the end-to-end service metrics, or the per-layer
  /// ones when traced.
  void finish(Metrics& metrics);

 private:
  struct State;
  std::unique_ptr<State> state_;
};

}  // namespace pcmaxbench
