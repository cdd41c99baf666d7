// Service arm: one submitting thread drives a SolveService through
// submit_async, first in a closed loop with a fixed window of outstanding
// futures (phase 1, capacity), then in an open loop of Poisson arrivals at a
// fixed rate (phase 2, latency timed from each request's scheduled send
// time). Completion is observed through SolveFuture::then().
//
// Request i is a pure function of (seed, phase, i): a freshly permuted copy
// of a Zipf-ranked key, or a one-off instance never seen before. Every
// `rotate_every` requests the hottest ranks move to never-seen keys.
//
// The requests of each phase-1 batch and of each phase-2 slice are built
// before its timed loop starts, and the responses are checked after it ends.
// Inside the loop the submitting thread only calls submit_async, and the
// continuation only copies what the checks need. What is kept per request
// lives only until its batch is checked, so memory does not grow with the
// number of requests a run completes.
#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <memory>
#include <thread>

#include "arms.hpp"
#include "core/fingerprint.hpp"
#include "core/solver_registry.hpp"

namespace pcmaxbench {
namespace {

constexpr std::uint64_t kRotatedBit = std::uint64_t{1} << 63;
constexpr std::uint64_t kOneOff = ~std::uint64_t{0};

/// What request i carries.
struct Entry {
  std::uint64_t key = kOneOff;  ///< key index, rotated-key id, or kOneOff
  std::uint64_t seed = 0;       ///< one-off instance seed / permutation seed
};

/// A delivered response, reduced to what the checks and metrics need.
struct Outcome {
  bool delivered = false;
  bool shed = false;
  bool degraded = false;
  bool hit = false;
  int machines = 0;             ///< machine count of the response's schedule
  std::vector<int> assignment;  ///< assignment_of() the response's schedule
  double latency_ms = 0.0;      ///< from the due time to the continuation
  double queue_ms = 0.0;        ///< the response's own queue_seconds
  double solve_ms = 0.0;        ///< the response's own solve_seconds
  Time makespan = 0;
};

/// The outcomes of one phase-1 batch or one phase-2 slice, slot k for its
/// k-th request. Shared with the continuations, so one that runs after the
/// driver gave up on a stalled service still has somewhere to write.
using Batch = std::vector<Outcome>;

/// Completion count the continuations advance and the driver waits on.
struct Deliveries {
  std::mutex mutex;
  std::condition_variable cv;
  std::uint64_t done = 0;
  double last_done = 0.0;  ///< latest completion time

  void mark_done(double when) {
    {
      const std::lock_guard<std::mutex> lock(mutex);
      ++done;
      last_done = std::max(last_done, when);
    }
    cv.notify_one();
  }
};

/// A response whose reference solve waits until the run has ended: the first
/// copy of each rotated key, and every one-off.
struct Deferred {
  Entry entry;
  Time makespan;
};

/// The request stream of one workload and seed.
class RequestStream {
 public:
  RequestStream(const Traffic& traffic, const std::vector<Generated>& keys,
                 std::uint64_t seed)
      : traffic_(traffic), keys_(keys), seed_(seed) {
    double total = 0.0;
    for (std::size_t r = 0; r < keys.size(); ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), traffic.zipf_s);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;
  }

  Entry entry(std::uint64_t phase, std::uint64_t i) const {
    Rng rng(mix_seed(mix_seed(seed_, 0x7374726561 + phase), i));
    Entry e;
    const bool oneoff = keys_.empty() || rng.unit() < traffic_.oneoff_share;
    const double u = rng.unit();
    e.seed = rng.next();
    if (oneoff) return e;
    const auto rank = static_cast<std::uint64_t>(
        std::min<std::ptrdiff_t>(std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin(),
                                 static_cast<std::ptrdiff_t>(cdf_.size()) - 1));
    const std::uint64_t epoch =
        traffic_.rotate_every > 0 ? (phase << 32 | i) / static_cast<std::uint64_t>(traffic_.rotate_every) : 0;
    if (epoch > 0 && rank < static_cast<std::uint64_t>(traffic_.rotate_count)) {
      e.key = kRotatedBit | epoch << 8 | rank;
    } else {
      e.key = rank;
    }
    return e;
  }

  /// The instance request `e` is a copy of (a key in canonical order), with
  /// its planted optimum. Pure, so reference solves may call it from any
  /// thread; it is not called for a key of the key set.
  Generated fresh_base(const Entry& e) const {
    if (e.key == kOneOff) {
      const auto& shapes = traffic_.oneoff_shapes;
      return generate(shapes[e.seed % shapes.size()], mix_seed(e.seed, 0x6f6e65));
    }
    const auto& shapes = traffic_.key_shapes;
    const std::uint64_t s = mix_seed(seed_, e.key);
    Generated g = generate(shapes[s % shapes.size()], s);
    g.instance = sorted(g.instance);
    return g;
  }

  /// Same as fresh_base, for any entry, remembering rotated keys.
  const Generated& base(const Entry& e, Generated& scratch) {
    if (e.key == kOneOff) {
      scratch = fresh_base(e);
      return scratch;
    }
    if ((e.key & kRotatedBit) == 0) return keys_[e.key];
    auto it = rotated_.find(e.key);
    if (it == rotated_.end()) it = rotated_.emplace(e.key, fresh_base(e)).first;
    return it->second;
  }

  /// The instance actually submitted for `e`, with its planted optimum.
  Generated request(const Entry& e) {
    Generated scratch{Instance(1, {1}), 0};
    const Generated& g = base(e, scratch);
    if (e.key == kOneOff) return scratch;
    return {permuted(g.instance, e.seed), g.opt};
  }

 private:
  const Traffic& traffic_;
  const std::vector<Generated>& keys_;
  std::uint64_t seed_;
  std::vector<double> cdf_;
  std::map<std::uint64_t, Generated> rotated_;
};

std::chrono::steady_clock::time_point to_time_point(double seconds) {
  return std::chrono::steady_clock::time_point(
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(seconds)));
}

class Driver {
 public:
  Driver(const Workload& workload, Session& session, const RunOptions& options,
         Tracer* tracer, Tally& tally)
      : workload_(workload),
        session_(session),
        stream_(workload.traffic, session.keys, options.seed),
        gaps_(mix_seed(options.seed, 0x61727269)),
        tracer_(tracer),
        tally_(tally) {}

  /// Phase 1: batches of requests, each sent with `window` outstanding and
  /// drained, until `seconds` pass. Each batch is one capacity sample, timed
  /// from its first send to its last completion.
  void closed(double seconds) {
    if (stalled_) return;
    const double end = now_s() + seconds;
    const auto window = static_cast<std::uint64_t>(workload_.traffic.window);
    do {
      const std::uint32_t first = next_closed_;
      std::vector<Instance> requests =
          build(1, first, static_cast<std::size_t>(workload_.traffic.batch));
      auto batch = std::make_shared<Batch>(requests.size());
      const double start = now_s();
      std::size_t k = 0;
      for (; k < requests.size(); ++k) {
        if (!wait_until_done(sent_ - std::min(sent_, window - 1))) break;
        (void)submit(batch, k, now_s(), std::move(requests[k]));
      }
      const double last = finish();
      if (k == requests.size()) closed_rates.push_back(static_cast<double>(k) / (last - start));
      next_closed_ += static_cast<std::uint32_t>(k);
      closed_sent += k;
      settle(1, first, *batch);
    } while (now_s() < end && !stalled_);
  }

  /// Phase 2: Poisson arrivals at the workload's fixed rate for `seconds`.
  void open(double seconds) {
    if (stalled_) return;
    std::vector<double> offsets;
    for (double t = gap(); offsets.empty() || t <= seconds; t += gap()) offsets.push_back(t);
    const std::uint32_t first = next_open_;
    std::vector<Instance> requests = build(2, first, offsets.size());
    auto batch = std::make_shared<Batch>(requests.size());
    const double cpu0 = cpu_s();
    const double start = now_s();
    for (std::size_t k = 0; k < requests.size(); ++k) {
      const double due = start + offsets[k];
      std::this_thread::sleep_until(to_time_point(due));
      lateness_ms.push_back((submit(batch, k, due, std::move(requests[k])) - due) * 1e3);
    }
    (void)finish();
    open_cpu_us.push_back((cpu_s() - cpu0) * 1e6 / static_cast<double>(requests.size()));
    next_open_ += static_cast<std::uint32_t>(requests.size());
    open_sent += requests.size();
    settle(2, first, *batch);
    open_p50_ms.push_back(quantile(slice_latency_ms, 0.5));
    open_p99_ms.push_back(quantile(slice_latency_ms, 0.99));
    slice_latency_ms.clear();
  }

  /// Solves the deferred references on two threads, chunk by chunk, and
  /// checks each response against its own.
  void settle_deferred() {
    constexpr std::size_t kChunk = 256;
    for (std::size_t from = 0; from < deferred_.size(); from += kChunk) {
      const std::size_t to = std::min(deferred_.size(), from + kChunk);
      std::vector<std::string> errors(to - from);
      std::vector<std::thread> workers;
      for (std::size_t w = 0; w < 2; ++w) {
        workers.emplace_back([&, w] {
          pcmax::SolverBuild build;
          build.epsilon = workload_.traffic.eps;
          try {
            const auto solver = pcmax::SolverRegistry::global().create("ptas", build);
            for (std::size_t d = from + w; d < to; d += 2) {
              const Instance canonical = sorted(stream_.fresh_base(deferred_[d].entry).instance);
              errors[d - from] = check_response(false, false, deferred_[d].makespan,
                                                solver->solve(canonical).makespan);
            }
          } catch (const std::exception& e) {
            errors[w] = std::string("reference ptas solve threw: ") + e.what();
          }
        });
      }
      for (std::thread& t : workers) t.join();
      for (const std::string& e : errors) {
        if (!e.empty()) tally_.error("deferred reference: " + e);
      }
    }
  }

  /// Per phase-1 batch: requests completed per second.
  std::vector<double> closed_rates;
  std::uint64_t closed_sent = 0;
  /// Per phase-2 slice: process CPU time per request, and latency quantiles.
  std::vector<double> open_cpu_us;
  std::vector<double> open_p50_ms;
  std::vector<double> open_p99_ms;
  std::uint64_t open_sent = 0;
  std::vector<double> lateness_ms;  ///< phase-2 send time minus due time
  /// Traced runs only, over both phases: latency of hits and of misses, and
  /// the responses' own queue and (miss) solve times.
  std::vector<double> hit_ms;
  std::vector<double> miss_ms;
  std::vector<double> queue_ms;
  std::vector<double> solve_ms;

 private:
  /// The instances of requests first .. first + count - 1 of `phase`.
  std::vector<Instance> build(std::uint64_t phase, std::uint32_t first, std::size_t count) {
    std::vector<Instance> requests;
    requests.reserve(count);
    for (std::size_t k = 0; k < count; ++k) {
      requests.push_back(stream_.request(stream_.entry(phase, first + k)).instance);
    }
    return requests;
  }

  /// Submits the request of slot k of `batch`, due at `due`; returns when it
  /// was handed over.
  double submit(const std::shared_ptr<Batch>& batch, std::size_t k, double due,
                Instance instance) {
    const std::uint64_t op = sent_;
    std::size_t span = Tracer::kNoParent;
    if (tracer_ != nullptr) {
      span = tracer_->add("svc.request", due, 0.0, Tracer::kNoParent, op);
      const double t0 = now_s();
      const pcmax::CanonicalInstance canonical(instance);
      tracer_->add("core.canonicalize", t0, now_s(), span, op);
    }
    const int jobs = instance.jobs();
    pcmax::SolveRequest request(std::move(instance));
    ++sent_;
    ++tally_.attempted;
    const double sent = now_s();
    pcmax::SolveFuture future;
    try {
      future = session_.service->submit_async(std::move(request));
    } catch (const std::exception& e) {
      tally_.fail(std::string("submit_async threw: ") + e.what());
      shared_->mark_done(now_s());
      return sent;
    }
    if (tracer_ != nullptr) tracer_->add("service.submit", sent, now_s(), span, op);
    future.then([shared = shared_, batch, k, jobs, due, tracer = tracer_, span,
                 op](const pcmax::SolveResponse& response) {
      const double done = now_s();
      Outcome& out = (*batch)[k];
      out.latency_ms = (done - due) * 1e3;
      out.makespan = response.makespan;
      out.shed = response.shed;
      out.degraded = response.degraded;
      out.hit = response.cache_hit;
      out.queue_ms = response.queue_seconds * 1e3;
      out.solve_ms = response.solve_seconds * 1e3;
      out.machines = response.schedule.machines();
      if (!response.shed) out.assignment = assignment_of(response.schedule, jobs);
      if (tracer != nullptr) {
        const double solve_start = done - response.solve_seconds;
        tracer->add("service.queue", solve_start - response.queue_seconds, solve_start, span, op);
        tracer->add("service.solve", solve_start, done, span, op);
        tracer->close(span);
      }
      out.delivered = true;
      shared->mark_done(done);
    });
    return sent;
  }

  /// Checks the delivered outcomes of a batch whose requests are
  /// first .. of `phase`: (a) the schedule, (b) the bounds, (d) full
  /// fidelity, the set-up reference of a key and the same makespan for every
  /// copy of a key. Rotated keys and one-offs are deferred to
  /// settle_deferred(). Also collects the latencies.
  void settle(std::uint64_t phase, std::uint32_t first, const Batch& batch) {
    const std::vector<Time>& references = session_.key_refs;
    for (std::size_t k = 0; k < batch.size(); ++k) {
      const Outcome& o = batch[k];
      if (!o.delivered) continue;
      const Entry e = stream_.entry(phase, first + k);
      const Generated request = stream_.request(e);
      std::string verdict;
      if (!o.shed) verdict = check_assignment(request.instance, o.machines, o.assignment, o.makespan);
      const bool known = (e.key & kRotatedBit) == 0 && e.key != kOneOff;
      if (verdict.empty()) {
        verdict = check_response(o.shed, o.degraded, o.makespan,
                                 known ? references[e.key] : o.makespan);
      }
      if (verdict.empty()) {
        verdict = check_bounds(request.instance, o.makespan, request.opt, workload_.traffic.eps);
      }
      if (verdict.empty() && e.key != kOneOff) {
        const auto [it, fresh] = key_makespan_.emplace(e.key, o.makespan);
        if (!fresh && it->second != o.makespan) {
          verdict = "permuted copies of one key got different makespans";
        }
        if (fresh && !known) deferred_.push_back({e, o.makespan});
      } else if (verdict.empty()) {
        deferred_.push_back({e, o.makespan});
      }
      if (!verdict.empty()) {
        tally_.error("phase " + std::to_string(phase) + " request " + std::to_string(first + k) +
                     ": " + verdict);
      }
      if (phase == 2) slice_latency_ms.push_back(o.latency_ms);
      if (tracer_ != nullptr) {
        (o.hit ? hit_ms : miss_ms).push_back(o.latency_ms);
        queue_ms.push_back(o.queue_ms);
        if (!o.hit) solve_ms.push_back(o.solve_ms);
      }
    }
  }

  /// Waits until at least `target` requests completed; false after 60 s
  /// without progress (a future that delivered an exception never completes).
  bool wait_until_done(std::uint64_t target) {
    Deliveries& d = *shared_;
    std::unique_lock<std::mutex> lock(d.mutex);
    std::uint64_t seen = d.done;
    while (d.done < target) {
      if (!d.cv.wait_for(lock, std::chrono::seconds(60), [&] { return d.done != seen; })) {
        if (!stalled_) {
          tally_.fail("service stopped delivering for 60 s", target - d.done);
        }
        stalled_ = true;
        return false;
      }
      seen = d.done;
    }
    return true;
  }

  /// Waits for every outstanding request; returns the last completion time.
  double finish() {
    wait_until_done(sent_);
    const std::lock_guard<std::mutex> lock(shared_->mutex);
    return shared_->last_done;
  }

  double gap() { return -std::log(1.0 - gaps_.unit()) / workload_.traffic.rate; }

  const Workload& workload_;
  Session& session_;
  RequestStream stream_;
  Rng gaps_;
  Tracer* tracer_;
  Tally& tally_;
  std::shared_ptr<Deliveries> shared_ = std::make_shared<Deliveries>();
  std::uint64_t sent_ = 0;
  std::uint32_t next_closed_ = 0;
  std::uint32_t next_open_ = 0;
  bool stalled_ = false;
  std::map<std::uint64_t, Time> key_makespan_;  ///< first makespan seen per key
  std::vector<Deferred> deferred_;
  std::vector<double> slice_latency_ms;  ///< latencies of the phase-2 slice being settled
};

}  // namespace

std::vector<Generated> make_keys(const Workload& workload, std::uint64_t seed) {
  std::vector<Generated> keys;
  const Traffic& traffic = workload.traffic;
  for (std::size_t s = 0; s < traffic.key_shapes.size(); ++s) {
    for (int j = 0; j < traffic.keys_per_shape; ++j) {
      Generated g = generate(traffic.key_shapes[s],
                             mix_seed(seed, 0x6b657900 + s * 1000 + static_cast<std::size_t>(j)));
      g.instance = sorted(g.instance);
      keys.push_back(std::move(g));
    }
  }
  Rng rng(mix_seed(seed, 0x72616e6b));
  for (std::size_t i = keys.size(); i > 1; --i) {
    std::swap(keys[i - 1], keys[static_cast<std::size_t>(rng.uniform(0, static_cast<Time>(i) - 1))]);
  }
  return keys;
}

struct ServiceArm::State {
  Session& session;
  Tracer* tracer;
  Driver driver;
  pcmax::ServiceStats before;
};

ServiceArm::ServiceArm(const Workload& workload, Session& session, const RunOptions& options,
                       Tracer* tracer, Tally& tally)
    : state_(new State{session, tracer, Driver(workload, session, options, tracer, tally),
                       session.service->stats()}) {}

ServiceArm::~ServiceArm() = default;

void ServiceArm::closed(double seconds) { state_->driver.closed(seconds); }

void ServiceArm::open(double seconds) { state_->driver.open(seconds); }

void ServiceArm::finish(Metrics& metrics) {
  Tracer* tracer = state_->tracer;
  Driver& driver = state_->driver;
  const pcmax::ServiceStats& before = state_->before;
  const pcmax::ServiceStats after = state_->session.service->stats();
  driver.settle_deferred();

  std::printf("service: phase 1 sent %llu, phase 2 sent %llu, open-loop lateness p99 %.3f ms\n",
              static_cast<unsigned long long>(driver.closed_sent),
              static_cast<unsigned long long>(driver.open_sent), quantile(driver.lateness_ms, 0.99));
  if (tracer == nullptr) {
    // Printed, not gated: on a shared host, queueing amplifies the host's
    // speed swings, and even the median latency spread 0.13-0.46 of itself
    // between sets of ten runs. Each is the median over the run's slices.
    std::printf("service: open-loop latency p50 %.3f ms, p99 %.3f ms (medians of slices)\n",
                quantile(driver.open_p50_ms, 0.5), quantile(driver.open_p99_ms, 0.5));
    metrics["svc_capacity_rps"] = {quantile(driver.closed_rates, 0.5), "1/s"};
    metrics["svc_cpu_us_per_req"] = {quantile(driver.open_cpu_us, 0.5), "us"};
    return;
  }
  const auto delta = [](std::uint64_t a, std::uint64_t b) { return static_cast<double>(a - b); };
  const double requests = delta(after.requests, before.requests);
  double shard_max = 0.0;
  double shard_sum = 0.0;
  for (std::size_t s = 0; s < after.shards.size(); ++s) {
    const double n = delta(after.shards[s].requests, before.shards[s].requests);
    shard_max = std::max(shard_max, n);
    shard_sum += n;
  }
  const double shard_mean = shard_sum / static_cast<double>(after.shards.size());
  metrics["core.canonicalize_us"] = {quantile(tracer->durations("core.canonicalize"), 0.5) * 1e6, "us"};
  metrics["service.submit_us"] = {quantile(tracer->durations("service.submit"), 0.5) * 1e6, "us"};
  metrics["service.hit_ratio"] = {delta(after.cache.hits, before.cache.hits) / requests, "ratio"};
  metrics["service.coalesced_ratio"] = {delta(after.coalesced, before.coalesced) / requests, "ratio"};
  metrics["service.hit_ms_p50"] = {quantile(driver.hit_ms, 0.5), "ms"};
  metrics["service.miss_ms_p50"] = {quantile(driver.miss_ms, 0.5), "ms"};
  metrics["service.queue_ms_p99"] = {quantile(driver.queue_ms, 0.99), "ms"};
  metrics["service.solve_ms_p50"] = {quantile(driver.solve_ms, 0.5), "ms"};
  metrics["service.shard_imbalance"] = {shard_mean > 0 ? shard_max / shard_mean : 0.0, "ratio"};
}

}  // namespace pcmaxbench
