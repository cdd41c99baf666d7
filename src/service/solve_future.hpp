// The asynchronous request lifecycle of the sharded solve service.
//
// std::future<SolveResponse> gave PR 4-7 callers a blocking handle and
// nothing else. A serving tier at 10^6-request scale needs three things a
// std::future cannot do:
//
//  * CONTINUATIONS — then(fn) attaches work that runs exactly once when the
//    response is delivered (inline on the delivering worker, or immediately
//    on the attaching thread if the response already landed). Batch
//    pipelines harvest results without parking one thread per request;
//  * DEADLINE-AWARE WAITS — get_within_ms(budget) never hangs: when the
//    budget expires before delivery it returns a STRUCTURED shed response
//    (degradation_reason "shed:deadline", stamped with the request's
//    identity) instead of blocking or throwing. The underlying solve keeps
//    running — a later get()/then() still observes the real response;
//  * DETACHED DRAIN — the shared state outlives both endpoints. Futures
//    handed out by a service that has since been destroyed still hold their
//    delivered responses; promises broken by teardown deliver an Error
//    instead of dangling.
//
// Delivery contract: set_value stores the response, flips `delivered`,
// steals the continuation list under the lock, notifies waiters, then runs
// the continuations OUTSIDE the lock against the stored (now immutable)
// response. A continuation attached after delivery runs inline on the
// attaching thread. Either way each continuation runs exactly once; after
// an exceptional delivery continuations are dropped (get() rethrows).
//
// Fault site "service.future" (util/fault) fires inside set_value; an
// injected ResourceLimitError there must never lose the response — it is
// absorbed and recorded as a response note ("future_fault").
#pragma once

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "service/service_types.hpp"

namespace pcmax {

namespace detail {

/// Shared state between one SolvePromise and its SolveFutures. The request
/// identity fields are stamped at submission so a synthesized shed:deadline
/// response can identify the request it stands in for.
struct SolveFutureState {
  std::mutex mutex;
  std::condition_variable ready_cv;
  std::optional<SolveResponse> value;
  std::exception_ptr error;
  bool delivered = false;
  std::vector<std::function<void(const SolveResponse&)>> continuations;

  // Request identity (immutable after submission stamps it).
  std::uint64_t id = 0;
  int machines = 0;
  int jobs = 0;
  std::string tenant;
  Fingerprint fingerprint;
  int shard = 0;
};

}  // namespace detail

/// The consumer half. Copyable: every copy observes the same delivery (the
/// service keeps none — dropping all copies simply discards the response
/// when it lands). A default-constructed future is invalid.
class SolveFuture {
 public:
  SolveFuture() = default;

  /// False for a default-constructed (or moved-from) future.
  [[nodiscard]] bool valid() const { return state_ != nullptr; }

  /// True once the response (or an exception) has been delivered.
  [[nodiscard]] bool ready() const;

  /// Blocks until delivery.
  void wait() const;

  /// Blocks until delivery; returns a copy of the response (repeatable) or
  /// rethrows the delivered exception.
  [[nodiscard]] SolveResponse get() const;

  /// Deadline-aware get: the response if it arrives within `ms`
  /// milliseconds, otherwise a synthesized structured shed response
  /// (degradation_reason "shed:deadline", shed = true, identity stamped
  /// from the request) — never a hang, never an exception for the timeout
  /// itself. The underlying request keeps running; a later get() or an
  /// attached continuation still sees the real response.
  [[nodiscard]] SolveResponse get_within_ms(std::int64_t ms) const;

  /// Attaches a continuation that runs EXACTLY ONCE with the delivered
  /// response: inline right now if already delivered, else inline on the
  /// delivering thread. Never runs after an exceptional delivery. The
  /// continuation must not block on this future (self-deadlock) and should
  /// be cheap — it runs on a service worker.
  void then(std::function<void(const SolveResponse&)> continuation) const;

 private:
  friend class SolvePromise;
  explicit SolveFuture(std::shared_ptr<detail::SolveFutureState> state)
      : state_(std::move(state)) {}

  std::shared_ptr<detail::SolveFutureState> state_;
};

/// The producer half, held by the service. Move-only; exactly one delivery.
/// Destroying an undelivered promise delivers a broken-promise Error so no
/// future ever hangs.
class SolvePromise {
 public:
  SolvePromise();
  ~SolvePromise();

  SolvePromise(SolvePromise&&) noexcept = default;
  SolvePromise& operator=(SolvePromise&&) noexcept = default;
  SolvePromise(const SolvePromise&) = delete;
  SolvePromise& operator=(const SolvePromise&) = delete;

  [[nodiscard]] SolveFuture get_future() const;

  /// Stamps the request identity used by synthesized shed:deadline
  /// responses. Call once at submission, before the response can race.
  void stamp(std::uint64_t id, int machines, int jobs,
             const std::string& tenant, const Fingerprint& fingerprint,
             int shard);

  /// Delivers the response: wakes waiters and runs attached continuations
  /// (outside the lock). Hits fault site "service.future"; an injected
  /// ResourceLimitError is absorbed into a response note, never dropped.
  void set_value(SolveResponse response);

  /// Delivers an exception (rethrown by get(); continuations are dropped).
  void set_exception(std::exception_ptr error);

 private:
  std::shared_ptr<detail::SolveFutureState> state_;
};

}  // namespace pcmax
