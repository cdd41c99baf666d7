#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <stdexcept>

namespace pcmaxbench {

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

Time Rng::uniform(Time lo, Time hi) {
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  const std::uint64_t limit = UINT64_MAX - UINT64_MAX % span;
  std::uint64_t x = next();
  while (x >= limit) x = next();
  return lo + static_cast<Time>(x % span);
}

double Rng::unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

std::uint64_t mix_seed(std::uint64_t base, std::uint64_t tag) {
  Rng rng(base ^ (tag * 0xD1B54A32D192ED03ull));
  return rng.next();
}

namespace {

Time family_hi(Family family, int m, int n) {
  switch (family) {
    case Family::kTwoM: return 2 * static_cast<Time>(m) - 1;
    case Family::kHundred: return 100;
    case Family::kTen: return 10;
    case Family::kTenN: return 10 * static_cast<Time>(n);
  }
  throw std::logic_error("unknown family");
}

void shuffle(std::vector<Time>& v, Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    const auto j = static_cast<std::size_t>(rng.uniform(0, static_cast<Time>(i) - 1));
    std::swap(v[i - 1], v[j]);
  }
}

}  // namespace

Generated generate(const Shape& shape, std::uint64_t seed) {
  Rng rng(seed);
  const Time hi = family_hi(shape.family, shape.m, shape.n);
  std::vector<Time> times;
  times.reserve(static_cast<std::size_t>(shape.n));
  if (!shape.planted) {
    for (int j = 0; j < shape.n; ++j) times.push_back(rng.uniform(1, hi));
    return {Instance(shape.m, std::move(times)), 0};
  }
  const int per_machine = shape.n / shape.m;
  if (per_machine < 2 || per_machine * shape.m != shape.n) {
    throw std::invalid_argument("planted shapes need n = m * (jobs per machine >= 2)");
  }
  std::vector<Time> partial(static_cast<std::size_t>(shape.m), 0);
  for (Time& sum : partial) {
    for (int j = 0; j + 1 < per_machine; ++j) {
      times.push_back(rng.uniform(1, hi));
      sum += times.back();
    }
  }
  const Time c = *std::max_element(partial.begin(), partial.end()) + rng.uniform(1, hi);
  for (const Time sum : partial) times.push_back(c - sum);
  shuffle(times, rng);
  return {Instance(shape.m, std::move(times)), c};
}

Instance permuted(const Instance& base, std::uint64_t seed) {
  std::vector<Time> times(base.times().begin(), base.times().end());
  Rng rng(seed);
  shuffle(times, rng);
  return Instance(base.machines(), std::move(times));
}

Instance sorted(const Instance& base) {
  std::vector<Time> times(base.times().begin(), base.times().end());
  std::sort(times.begin(), times.end());
  return Instance(base.machines(), std::move(times));
}

std::vector<Shape> paper_shapes(bool with_planted) {
  std::vector<Shape> shapes;
  for (const bool planted : {false, true}) {
    if (planted && !with_planted) break;
    for (const Family family :
         {Family::kTwoM, Family::kHundred, Family::kTen, Family::kTenN}) {
      shapes.push_back({family, 20, 100, planted});
      shapes.push_back({family, 10, 50, planted});
      shapes.push_back({family, 10, 30, planted});
    }
  }
  return shapes;
}

// --- checks ----------------------------------------------------------------

Time lower_bound(const Instance& instance) {
  Time sum = 0;
  Time longest = 0;
  for (const Time t : instance.times()) {
    sum += t;
    longest = std::max(longest, t);
  }
  const Time m = instance.machines();
  return std::max((sum + m - 1) / m, longest);
}

std::vector<int> assignment_of(const Schedule& schedule, int jobs) {
  std::vector<int> assignment(static_cast<std::size_t>(jobs), -2);
  for (int machine = 0; machine < schedule.machines(); ++machine) {
    for (const int job : schedule.jobs_on(machine)) {
      if (job < 0 || job >= jobs) return {};
      int& slot = assignment[static_cast<std::size_t>(job)];
      slot = slot == -2 ? machine : -1;
    }
  }
  for (int& slot : assignment) {
    if (slot == -2) slot = -1;
  }
  return assignment;
}

std::string check_schedule(const Instance& instance, const Schedule& schedule,
                           Time reported) {
  return check_assignment(instance, schedule.machines(),
                          assignment_of(schedule, instance.jobs()), reported);
}

std::string check_assignment(const Instance& instance, int machines,
                             const std::vector<int>& assignment, Time reported) {
  const int m = instance.machines();
  if (machines != m) {
    return "schedule has " + std::to_string(machines) + " machines, instance " +
           std::to_string(m);
  }
  if (assignment.size() != static_cast<std::size_t>(instance.jobs())) {
    return "assignment covers " + std::to_string(assignment.size()) + " of " +
           std::to_string(instance.jobs()) + " jobs (a job index out of range empties it)";
  }
  std::vector<Time> loads(static_cast<std::size_t>(m), 0);
  for (std::size_t j = 0; j < assignment.size(); ++j) {
    const int machine = assignment[j];
    if (machine < 0 || machine >= m) {
      return "job " + std::to_string(j) + " is on no machine, twice, or on machine " +
             std::to_string(machine);
    }
    loads[static_cast<std::size_t>(machine)] += instance.time(static_cast<int>(j));
  }
  const Time makespan = *std::max_element(loads.begin(), loads.end());
  if (makespan != reported) {
    return "recomputed makespan " + std::to_string(makespan) + " != reported " +
           std::to_string(reported);
  }
  return "";
}

std::string check_bounds(const Instance& instance, Time makespan, Time opt,
                         double eps) {
  const Time lb = lower_bound(instance);
  if (makespan < lb) {
    return "makespan " + std::to_string(makespan) + " below lower bound " + std::to_string(lb);
  }
  if (opt > 0 && static_cast<double>(makespan) >
                     (1.0 + eps) * static_cast<double>(opt) + 1e-9) {
    return "makespan " + std::to_string(makespan) + " above (1+eps) * planted OPT " +
           std::to_string(opt);
  }
  return "";
}

std::string check_agreement(Time seq, Time par) {
  if (seq == par) return "";
  return "ptas makespan " + std::to_string(seq) + " != parallel-ptas " + std::to_string(par);
}

std::string check_response(bool shed, bool degraded, Time makespan, Time reference) {
  if (shed) return "response was shed";
  if (degraded) return "response was degraded";
  if (makespan != reference) {
    return "service makespan " + std::to_string(makespan) + " != direct ptas " +
           std::to_string(reference);
  }
  return "";
}

int self_test() {
  int failures = 0;
  const auto expect = [&failures](const char* what, const std::string& verdict,
                                  bool should_pass) {
    const bool passed = verdict.empty();
    std::printf("self-test %-40s %s\n", what,
                passed == should_pass ? "ok" : "CHECK DID NOT BEHAVE");
    if (passed != should_pass) ++failures;
  };
  // m = 2, times 4 3 3 2: OPT = 6 ({4,2} and {3,3}).
  const Instance instance(2, {4, 3, 3, 2});
  const Schedule good = Schedule::from_assignment(2, {0, 1, 1, 0});
  expect("valid schedule accepted", check_schedule(instance, good, 6), true);
  Schedule twice = good;
  twice.assign(1, 0);
  expect("job on two machines rejected", check_schedule(instance, twice, 6), false);
  Schedule missing(2);
  missing.assign(0, 0);
  missing.assign(1, 1);
  missing.assign(1, 2);
  expect("missing job rejected", check_schedule(instance, missing, 4), false);
  Schedule foreign(2);
  for (int j = 0; j < 4; ++j) foreign.assign(0, j);
  foreign.assign(1, 7);
  expect("unknown job index rejected", check_schedule(instance, foreign, 12), false);
  expect("machine out of range rejected", check_assignment(instance, 2, {0, 1, 2, 0}, 6),
         false);
  expect("wrong machine count rejected",
         check_schedule(instance, Schedule::from_assignment(3, {0, 1, 1, 0}), 6), false);
  expect("wrong makespan rejected", check_schedule(instance, good, 7), false);
  expect("valid bounds accepted", check_bounds(instance, 6, 6, 0.3), true);
  expect("makespan below lower bound rejected", check_bounds(instance, 5, 0, 0.3), false);
  expect("makespan above (1+eps)OPT rejected", check_bounds(instance, 8, 6, 0.3), false);
  expect("engine agreement accepted", check_agreement(6, 6), true);
  expect("engine disagreement rejected", check_agreement(6, 7), false);
  expect("pure response accepted", check_response(false, false, 6, 6), true);
  expect("shed response rejected", check_response(true, false, 6, 6), false);
  expect("degraded response rejected", check_response(false, true, 6, 6), false);
  expect("impure response rejected", check_response(false, false, 7, 6), false);
  return failures;
}

// --- measurement -----------------------------------------------------------

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

std::size_t Tracer::add(const char* name, double start, double end,
                        std::size_t parent, std::uint64_t op) {
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back({name, start, end, parent, op});
  return spans_.size() - 1;
}

std::size_t Tracer::open(const char* name, std::size_t parent, std::uint64_t op) {
  return add(name, now_s(), 0.0, parent, op);
}

void Tracer::close(std::size_t index) {
  const double end = now_s();
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_[index].end = end;
}

std::vector<double> Tracer::durations(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (name == span.name) out.push_back(span.end - span.start);
  }
  return out;
}

void Tracer::write(const std::string& path) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) throw std::runtime_error("cannot write trace file " + path);
  std::fprintf(out, "{\"schema\": \"pcmaxbench.trace.v1\", \"spans\": [\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out,
                 "{\"id\": %zu, \"name\": \"%s\", \"start_s\": %.9f, \"end_s\": %.9f, "
                 "\"parent\": %lld, \"op\": %llu}%s\n",
                 i, s.name, s.start, s.end,
                 s.parent == kNoParent ? -1LL : static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.op), i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(out, "]}\n");
  std::fclose(out);
}

void Tally::fail(const std::string& message, std::uint64_t count) {
  failed += count;
  std::fprintf(stderr, "failed operation: %s\n", message.c_str());
}

void Tally::error(std::string message) {
  if (errors.size() < 20) errors.push_back(std::move(message));
  else if (errors.size() == 20) errors.push_back("(further errors not listed)");
}

// --- workloads -------------------------------------------------------------

namespace {

std::vector<Workload> make_workloads() {
  std::vector<Workload> all;

  // The paper's setting: eps = 0.3 over its four families at the sizes of
  // Figs. 2-4, random and planted. Fixed costs per solve dominate the DP fill
  // here. Its service arm is miss-only: every request is a never-seen random
  // instance of the paper's shapes, so each takes queue -> PTAS -> cache
  // insert. (Planted m = 20 instances take 5-200 ms where random ones take
  // 0.1-6 ms; as service traffic their rare slow solves decide the p99 and the
  // capacity of a run, so the service arms draw random shapes only.)
  Workload paper;
  paper.name = "paper-eps03";
  paper.lib_eps = 0.3;
  paper.lib_shapes = paper_shapes(true);
  paper.lib_per_shape = 16;
  paper.traffic.eps = 0.3;
  paper.traffic.oneoff_share = 1.0;
  paper.traffic.oneoff_shapes = paper_shapes(false);
  paper.traffic.batch = 256;
  paper.traffic.rate = 250.0;
  paper.lib_share = 0.5;
  paper.closed_share = 0.15;
  paper.open_share = 0.35;
  all.push_back(paper);

  // The service under rotating Zipf traffic over the paper's random shapes.
  // Its library arm solves the key set itself.
  Workload svc;
  svc.name = "svc-zipf";
  svc.lib_eps = 0.3;
  svc.lib_over_keys = true;
  svc.traffic.eps = 0.3;
  svc.traffic.key_shapes = paper_shapes(false);
  svc.traffic.keys_per_shape = 16;
  svc.traffic.zipf_s = 1.0;
  svc.traffic.rotate_every = 1000;
  svc.traffic.rotate_count = 4;
  svc.traffic.oneoff_share = 0.05;
  svc.traffic.oneoff_shapes = paper_shapes(false);
  svc.traffic.batch = 2048;
  svc.traffic.rate = 4000.0;
  svc.lib_share = 0.35;
  svc.closed_share = 0.2;
  svc.open_share = 0.45;
  all.push_back(svc);
  return all;
}

}  // namespace

const Workload* find_workload(const std::string& name) {
  static const std::vector<Workload> all = make_workloads();
  for (const Workload& w : all) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

}  // namespace pcmaxbench
