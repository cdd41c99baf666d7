#include "service/solve_future.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "obs/metrics.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"

namespace pcmax {

namespace {

void bump(obs::Counter counter, std::uint64_t delta = 1) {
  obs::Metrics* metrics = obs::current();
  if (metrics != nullptr) metrics->add(0, counter, delta);
}

using Continuation = std::function<void(const SolveResponse&)>;

/// Runs stolen continuations against the immutable delivered response.
/// Callers must NOT hold the state mutex: a continuation may touch the
/// future again (ready(), get(), even then()).
void run_continuations(std::vector<Continuation> continuations,
                       const SolveResponse& response) {
  if (continuations.empty()) return;
  bump(obs::Counter::kServiceFuturesContinuations, continuations.size());
  for (Continuation& continuation : continuations) continuation(response);
}

}  // namespace

bool SolveFuture::ready() const {
  PCMAX_REQUIRE(state_ != nullptr, "ready() on an invalid SolveFuture");
  std::lock_guard lock(state_->mutex);
  return state_->delivered;
}

void SolveFuture::wait() const {
  PCMAX_REQUIRE(state_ != nullptr, "wait() on an invalid SolveFuture");
  std::unique_lock lock(state_->mutex);
  state_->ready_cv.wait(lock, [&] { return state_->delivered; });
}

SolveResponse SolveFuture::get() const {
  PCMAX_REQUIRE(state_ != nullptr, "get() on an invalid SolveFuture");
  std::unique_lock lock(state_->mutex);
  state_->ready_cv.wait(lock, [&] { return state_->delivered; });
  if (state_->error != nullptr) std::rethrow_exception(state_->error);
  return *state_->value;  // copy: get() is repeatable, continuations share
}

SolveResponse SolveFuture::get_within_ms(std::int64_t ms) const {
  PCMAX_REQUIRE(state_ != nullptr,
                "get_within_ms() on an invalid SolveFuture");
  {
    std::unique_lock lock(state_->mutex);
    const bool delivered = state_->ready_cv.wait_for(
        lock, std::chrono::milliseconds(std::max<std::int64_t>(0, ms)),
        [&] { return state_->delivered; });
    if (delivered) {
      if (state_->error != nullptr) std::rethrow_exception(state_->error);
      return *state_->value;
    }
  }
  // Budget spent before delivery: answer with a structured shed carrying the
  // request's identity. The real solve keeps running — this response is the
  // WAIT's outcome, not the request's.
  SolveResponse response;
  response.id = state_->id;
  response.machines = state_->machines;
  response.jobs = state_->jobs;
  response.tenant = state_->tenant;
  response.fingerprint = state_->fingerprint;
  response.shard = state_->shard;
  response.schedule = Schedule(std::max(1, state_->machines));
  response.algorithm = "none";
  response.degradation_reason = "shed:deadline";
  response.degraded = true;
  response.shed = true;
  response.notes["shed"] = "future-deadline";
  bump(obs::Counter::kServiceFuturesExpired);
  return response;
}

void SolveFuture::then(Continuation continuation) const {
  PCMAX_REQUIRE(state_ != nullptr, "then() on an invalid SolveFuture");
  PCMAX_REQUIRE(continuation != nullptr, "then() needs a continuation");
  {
    std::lock_guard lock(state_->mutex);
    if (!state_->delivered) {
      state_->continuations.push_back(std::move(continuation));
      return;
    }
    if (state_->error != nullptr) return;  // exceptional delivery: dropped
  }
  // Already delivered with a value: run inline, outside the lock. The value
  // is immutable after delivery, so the reference is race-free.
  bump(obs::Counter::kServiceFuturesContinuations);
  continuation(*state_->value);
}

SolvePromise::SolvePromise()
    : state_(std::make_shared<detail::SolveFutureState>()) {}

SolvePromise::~SolvePromise() {
  if (state_ == nullptr) return;  // moved-from
  bool undelivered = false;
  {
    std::lock_guard lock(state_->mutex);
    undelivered = !state_->delivered;
  }
  if (undelivered) {
    set_exception(std::make_exception_ptr(
        Error("SolvePromise destroyed before delivering a response")));
  }
}

SolveFuture SolvePromise::get_future() const {
  PCMAX_REQUIRE(state_ != nullptr, "get_future() on a moved-from promise");
  return SolveFuture(state_);
}

void SolvePromise::stamp(std::uint64_t id, int machines, int jobs,
                         const std::string& tenant,
                         const Fingerprint& fingerprint, int shard) {
  PCMAX_REQUIRE(state_ != nullptr, "stamp() on a moved-from promise");
  std::lock_guard lock(state_->mutex);
  state_->id = id;
  state_->machines = machines;
  state_->jobs = jobs;
  state_->tenant = tenant;
  state_->fingerprint = fingerprint;
  state_->shard = shard;
}

void SolvePromise::set_value(SolveResponse response) {
  PCMAX_REQUIRE(state_ != nullptr, "set_value() on a moved-from promise");
  try {
    fault_hit("service.future");
  } catch (const ResourceLimitError& e) {
    // A failing delivery path must never lose the response: absorb the
    // fault into provenance and deliver anyway.
    response.notes["future_fault"] = std::string("survived: ") + e.what();
  }
  std::vector<Continuation> continuations;
  {
    std::lock_guard lock(state_->mutex);
    PCMAX_REQUIRE(!state_->delivered, "SolvePromise delivered twice");
    state_->value = std::move(response);
    state_->delivered = true;
    continuations = std::move(state_->continuations);
    state_->continuations.clear();
    // Notify under the lock: a waiter may destroy the last future copy the
    // moment it wakes, but the promise holder keeps the state alive here.
    state_->ready_cv.notify_all();
  }
  bump(obs::Counter::kServiceFuturesResolved);
  run_continuations(std::move(continuations), *state_->value);
}

void SolvePromise::set_exception(std::exception_ptr error) {
  PCMAX_REQUIRE(state_ != nullptr, "set_exception() on a moved-from promise");
  PCMAX_REQUIRE(error != nullptr, "set_exception() needs an exception");
  std::lock_guard lock(state_->mutex);
  PCMAX_REQUIRE(!state_->delivered, "SolvePromise delivered twice");
  state_->error = std::move(error);
  state_->delivered = true;
  state_->continuations.clear();  // exceptional delivery drops continuations
  state_->ready_cv.notify_all();
}

}  // namespace pcmax
