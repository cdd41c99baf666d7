// Calibration of the simulated-multicore cost model on the host machine.
//
// The simulator charges two things: per-entry DP compute (measured per
// probe) and a per-level synchronisation cost. The former is taken from
// real runs; the latter depends on the runtime (fork-join vs barrier) and
// the host. This module measures both on the actual machine so benches can
// pass `--barrier-us auto`-style values instead of guessing:
//
//  * fork-join cost: median wall time of an empty work-stealing pool episode;
//  * barrier cost: median round-trip of a P-participant Barrier cycle,
//    measured inside an SPMD region. Barrier spins for up to
//    Barrier::kSpinBudget before it blocks, so this figure includes the
//    spin phase: on an idle core it is the spinning release (~1 us), and it
//    only reaches the blocking wake-up cost when participants outnumber the
//    cores;
//  * per-entry cost: a reference DP probe timed and divided by its size.
#pragma once

#include "harness/simmachine.hpp"

namespace pcmax {

/// Measured runtime costs on this host.
struct CalibrationResult {
  double forkjoin_seconds = 0.0;   ///< empty pool region, P workers
  double barrier_seconds = 0.0;    ///< one barrier cycle, P participants
  double dp_entry_seconds = 0.0;   ///< per-entry cost of a reference DP
  unsigned threads = 1;

  /// A SimMachineModel using the measured synchronisation cost (fork-join:
  /// the simulator replays the paper's Algorithm 3, one parallel-for per
  /// level; the library's own team sweep pays a barrier cycle instead).
  [[nodiscard]] SimMachineModel to_model(double work_scale = 1.0) const;
};

/// Runs the calibration with `threads` workers. Takes a few milliseconds.
CalibrationResult calibrate_machine(unsigned threads);

}  // namespace pcmax
