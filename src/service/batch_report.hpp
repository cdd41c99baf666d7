// The "pcmax.batch.v1" machine-readable batch report.
//
// One schema shared by the CLI (`pcmax batch --json`) and the golden-file
// test (tests/service_golden_test.cpp), so the report layout is pinned in
// exactly one place. Key order is insertion order (util/json keeps
// objects ordered), which is what makes the dump golden-testable.
//
// Layout:
//   schema   "pcmax.batch.v1"
//   config   service knobs that shaped the run (incl. shed_policy,
//            coalesce, breaker_enabled)
//   summary  batch-level counters + throughput, plus the overload layer:
//            shed_quota / shed_overload / coalesced / internal_errors and
//            breaker_trips / _open_rejects / _probes / _closes
//   requests one object per response, in request order (incl. tenant,
//            shed, coalesced)
//
// New fields are APPENDED within each object, so pre-existing fields stay
// byte-stable across schema growth.
#pragma once

#include <vector>

#include "service/solve_service.hpp"
#include "util/json.hpp"

namespace pcmax {

/// Builds the report. `total_seconds` is the caller-measured wall time of
/// the whole batch (0 yields throughput_rps = 0, used by golden tests that
/// scrub timing).
[[nodiscard]] JsonValue batch_report(const ServiceOptions& options,
                                     const std::vector<SolveResponse>& responses,
                                     const ServiceStats& stats,
                                     double total_seconds);

}  // namespace pcmax
