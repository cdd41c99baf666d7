// Shared pieces of the pcmax benchmark: its own input generator, the
// correctness checks it applies to every operation, timing helpers, the span
// recorder of traced runs, and the workload definitions.
//
// Inputs come from the benchmark's own SplitMix64 stream, never from the
// library's RNG, so a change to the program cannot change what it is fed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "core/instance.hpp"
#include "core/schedule.hpp"

namespace pcmaxbench {

using pcmax::Instance;
using pcmax::Schedule;
using pcmax::Time;

/// SplitMix64: small, fast and identical on every platform.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform integer in [lo, hi], unbiased.
  Time uniform(Time lo, Time hi);
  /// Uniform double in [0, 1).
  double unit();

 private:
  std::uint64_t state_;
};

/// Derives an independent stream seed from a base seed and a tag.
std::uint64_t mix_seed(std::uint64_t base, std::uint64_t tag);

/// The paper's job-time families.
enum class Family { kTwoM, kHundred, kTen, kTenN };

/// One kind of instance: family, size, and whether the optimum is planted.
struct Shape {
  Family family;
  int m;
  int n;
  bool planted;
};

/// A generated instance; `opt` is the planted optimum, 0 when unknown.
struct Generated {
  Instance instance;
  Time opt = 0;
};

/// Draws one instance of `shape`. A planted instance fills every machine to
/// exactly C: each machine gets n/m jobs, all but the last drawn from the
/// family's range, and the last is whatever remains up to C, so
/// OPT = C = ceil(sum / m) by construction.
Generated generate(const Shape& shape, std::uint64_t seed);

/// The same job multiset in a seeded random order.
Instance permuted(const Instance& base, std::uint64_t seed);

/// The same job multiset sorted ascending (the service's canonical order).
Instance sorted(const Instance& base);

/// The paper's speedup families at the sizes of its Figs. 2-4, random, and
/// planted as well when `planted` is set.
std::vector<Shape> paper_shapes(bool planted);

// --- checks: each returns "" on success, else what went wrong -------------

/// max(ceil(sum t / m), max t), computed here rather than by the library.
Time lower_bound(const Instance& instance);

/// (a) every job on exactly one machine in [0, m), and the recomputed
/// maximum load equals `reported`.
std::string check_schedule(const Instance& instance, const Schedule& schedule,
                           Time reported);

/// The machine of each of `jobs` jobs under `schedule`, -1 for a job on no
/// machine or on two; empty when the schedule names a job outside [0, jobs).
std::vector<int> assignment_of(const Schedule& schedule, int jobs);

/// check_schedule on a schedule reduced to its machine count and
/// assignment_of().
std::string check_assignment(const Instance& instance, int machines,
                             const std::vector<int>& assignment, Time reported);

/// (b) makespan >= lower_bound, and makespan <= (1 + eps) * opt when opt > 0.
std::string check_bounds(const Instance& instance, Time makespan, Time opt,
                         double eps);

/// (c) the sequential and parallel engines agree.
std::string check_agreement(Time seq, Time par);

/// (d) a service response is full fidelity and equals the reference solve.
std::string check_response(bool shed, bool degraded, Time makespan,
                           Time reference);

/// Shows that every check above rejects a corrupted schedule, makespan or
/// response. Returns the number of checks that failed to reject.
int self_test();

// --- measurement ---------------------------------------------------------

/// Seconds on the monotonic clock.
double now_s();
/// Process CPU time over all threads, seconds.
double cpu_s();
/// Peak resident set of the process, MiB.
double peak_rss_mib();
/// Linear-interpolated quantile q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> values, double q);

/// Span recorder of traced runs. Thread-safe; spans live in memory until
/// write() puts them in one JSON file.
class Tracer {
 public:
  static constexpr std::size_t kNoParent = static_cast<std::size_t>(-1);
  /// Records a finished span and returns its index.
  std::size_t add(const char* name, double start, double end,
                  std::size_t parent, std::uint64_t op);
  /// Opens a span ending at close(); returns its index.
  std::size_t open(const char* name, std::size_t parent, std::uint64_t op);
  void close(std::size_t index);
  /// Durations of every span called `name`, in seconds.
  std::vector<double> durations(const std::string& name) const;
  void write(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    double start;
    double end;
    std::size_t parent;
    std::uint64_t op;
  };
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

// --- workloads -----------------------------------------------------------

/// The service arm's traffic.
struct Traffic {
  double eps = 0.3;
  /// Shapes of the Zipf-ranked key set and how many keys of each.
  std::vector<Shape> key_shapes;
  int keys_per_shape = 0;
  double zipf_s = 1.0;
  /// Every `rotate_every` requests the `rotate_count` hottest ranks are
  /// replaced by never-seen instances (0 = no rotation).
  int rotate_every = 0;
  int rotate_count = 0;
  /// Share of requests that are one-off instances of `oneoff_shapes`.
  double oneoff_share = 0.0;
  std::vector<Shape> oneoff_shapes;
  /// Outstanding futures of the closed loop (phase 1).
  int window = 8;
  /// Requests per phase-1 batch. A batch is built before its timed loop and
  /// checked after it, and each batch gives one capacity sample.
  int batch = 1024;
  /// Poisson arrival rate of the open loop (phase 2), requests per second.
  double rate = 0.0;
};

struct Workload {
  std::string name;
  /// Library arm: every instance solved by `ptas` and `parallel-ptas`.
  double lib_eps = 0.3;
  std::vector<Shape> lib_shapes;
  int lib_per_shape = 0;
  /// When true the library arm runs over the service's key set instead.
  bool lib_over_keys = false;
  Traffic traffic;
  /// Shares of --seconds given to the library arm and service phases 1, 2.
  double lib_share = 0.0;
  double closed_share = 0.0;
  double open_share = 0.0;
};

/// The named workload, or nullptr.
const Workload* find_workload(const std::string& name);

/// Options shared by the arms.
struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 30.0;
  bool trace = false;
  bool smoke = false;
};

/// Metrics of one run, by name: value and unit.
struct Metric {
  double value;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// Operation counts and check failures. A failed operation (one that threw)
/// counts in `failed`; a check that rejects an output makes the run incorrect.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  ///< first check failures
  void error(std::string message);
  /// Counts `count` failed operations and reports why on stderr.
  void fail(const std::string& message, std::uint64_t count = 1);
};

}  // namespace pcmaxbench
