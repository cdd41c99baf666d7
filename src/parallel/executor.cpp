#include "parallel/executor.hpp"

#include <algorithm>

#include "util/error.hpp"

#if defined(PCMAX_HAVE_OPENMP)
#include <omp.h>

#include <atomic>
#include <exception>
#include <mutex>

#include "obs/metrics.hpp"
#endif

namespace pcmax {

void Executor::parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn,
                            LoopSchedule schedule, const CancellationToken& cancel) {
  parallel_for_ranges(
      n,
      [&fn](std::size_t begin, std::size_t end, unsigned /*worker*/) {
        for (std::size_t i = begin; i < end; ++i) fn(i);
      },
      schedule, /*chunk=*/1, cancel);
}

void Executor::run_team(const ThreadPool::TeamBody& body,
                        const CancellationToken& cancel) {
  if (cancel.valid() && cancel.cancel_requested()) cancel.check();
  // No token below: a member must never be skipped once the team started.
  parallel_for_ranges(
      team_size(),
      [&body](std::size_t begin, std::size_t end, unsigned /*worker*/) {
        for (std::size_t member = begin; member < end; ++member) {
          body(static_cast<unsigned>(member));
        }
      },
      LoopSchedule::kRoundRobin, /*chunk=*/1, CancellationToken{});
}

void SequentialExecutor::run_team(const ThreadPool::TeamBody& body,
                                  const CancellationToken& cancel) {
  if (cancel.valid() && cancel.cancel_requested()) cancel.check();
  body(0);
}

void SequentialExecutor::parallel_for_ranges(std::size_t n,
                                             const ThreadPool::RangeBody& body,
                                             LoopSchedule /*schedule*/,
                                             std::size_t /*chunk*/,
                                             const CancellationToken& cancel) {
  if (n == 0) return;
  if (cancel.valid() && cancel.cancel_requested()) cancel.check();
  body(0, n, 0);
}

ThreadPoolExecutor::ThreadPoolExecutor(unsigned num_threads) : pool_(num_threads) {}

void ThreadPoolExecutor::parallel_for_ranges(std::size_t n,
                                             const ThreadPool::RangeBody& body,
                                             LoopSchedule schedule, std::size_t chunk,
                                             const CancellationToken& cancel) {
  pool_.run(n, body, schedule, chunk, cancel);
}

WorkStealingExecutor::WorkStealingExecutor(unsigned num_threads)
    : pool_(num_threads) {}

void WorkStealingExecutor::parallel_for_ranges(std::size_t n,
                                               const ThreadPool::RangeBody& body,
                                               LoopSchedule schedule,
                                               std::size_t chunk,
                                               const CancellationToken& cancel) {
  switch (schedule) {
    case LoopSchedule::kStatic:
      pool_.parallel_for_1d(n, body, /*chunk=*/0, cancel);
      break;
    case LoopSchedule::kRoundRobin:
      // The strided assignment has no work-stealing analogue; singleton
      // claims give the same granularity with stealable slices.
      pool_.parallel_for_1d(n, body, /*chunk=*/1, cancel);
      break;
    case LoopSchedule::kDynamic:
      pool_.parallel_for_1d(n, body, std::max<std::size_t>(1, chunk), cancel);
      break;
  }
}

#if defined(PCMAX_HAVE_OPENMP)
OpenMPExecutor::OpenMPExecutor(unsigned num_threads) : num_threads_(num_threads) {
  PCMAX_REQUIRE(num_threads >= 1, "OpenMP executor needs at least one thread");
}

void OpenMPExecutor::parallel_for_ranges(std::size_t n,
                                         const ThreadPool::RangeBody& body,
                                         LoopSchedule schedule, std::size_t chunk,
                                         const CancellationToken& cancel) {
  const auto in = static_cast<std::int64_t>(n);
  const auto c = static_cast<std::int64_t>(std::max<std::size_t>(1, chunk));
  // Exceptions must not escape an OpenMP worksharing region, so cancellation
  // here skips the remaining bodies and the typed error is thrown after the
  // region joins.
  const bool armed = cancel.valid();
  switch (schedule) {
    case LoopSchedule::kStatic:
#pragma omp parallel for num_threads(num_threads_) schedule(static)
      for (std::int64_t i = 0; i < in; ++i) {
        if (armed && cancel.cancel_requested()) continue;
        const auto w = static_cast<unsigned>(omp_get_thread_num());
        body(static_cast<std::size_t>(i), static_cast<std::size_t>(i) + 1, w);
      }
      break;
    case LoopSchedule::kRoundRobin:
      // OpenMP's schedule(static, 1) is exactly the round-robin assignment.
#pragma omp parallel for num_threads(num_threads_) schedule(static, 1)
      for (std::int64_t i = 0; i < in; ++i) {
        if (armed && cancel.cancel_requested()) continue;
        const auto w = static_cast<unsigned>(omp_get_thread_num());
        body(static_cast<std::size_t>(i), static_cast<std::size_t>(i) + 1, w);
      }
      break;
    case LoopSchedule::kDynamic:
#pragma omp parallel for num_threads(num_threads_) schedule(dynamic, c)
      for (std::int64_t i = 0; i < in; ++i) {
        if (armed && cancel.cancel_requested()) continue;
        const auto w = static_cast<unsigned>(omp_get_thread_num());
        body(static_cast<std::size_t>(i), static_cast<std::size_t>(i) + 1, w);
      }
      break;
  }
  if (armed && cancel.cancel_requested()) cancel.check();
}

unsigned OpenMPExecutor::team_size() const {
  return omp_in_parallel() != 0 ? 1 : num_threads_;
}

void OpenMPExecutor::run_team(const ThreadPool::TeamBody& body,
                              const CancellationToken& cancel) {
  if (cancel.valid() && cancel.cancel_requested()) cancel.check();
  if (omp_in_parallel() != 0) {
    body(0);  // nested: a team of one on the calling thread
    return;
  }
  const obs::ScopedTimer region_timer(obs::Timer::kPoolRegion);
  if (obs::Metrics* metrics = obs::current()) {
    metrics->add(0, obs::Counter::kPoolRegions);
  }
  const unsigned members = num_threads_;
  if (members == 1) {
    body(0);
    return;
  }
  // Exceptions must not escape the region: the first is kept and rethrown
  // after the join. A runtime that grants fewer threads than asked for (a
  // thread limit, dynamic adjustment) runs no member at all, since a short
  // team would wait forever at its first full barrier.
  std::mutex error_mutex;
  std::exception_ptr error;
  std::atomic<int> granted{0};
#pragma omp parallel num_threads(members)
  {
    granted.store(omp_get_num_threads(), std::memory_order_relaxed);
    if (omp_get_num_threads() == static_cast<int>(members)) {
      try {
        body(static_cast<unsigned>(omp_get_thread_num()));
      } catch (...) {
        const std::lock_guard lock(error_mutex);
        if (!error) error = std::current_exception();
      }
    }
  }
  if (error) std::rethrow_exception(error);
  if (granted.load(std::memory_order_relaxed) != static_cast<int>(members)) {
    throw ResourceLimitError("OpenMP granted " + std::to_string(granted.load()) +
                             " of " + std::to_string(members) + " team threads");
  }
}
#endif  // PCMAX_HAVE_OPENMP

std::unique_ptr<Executor> make_executor(const std::string& backend,
                                        unsigned num_threads) {
  PCMAX_REQUIRE(num_threads >= 1, "executor needs at least one thread");
  if (backend == "sequential") {
    PCMAX_REQUIRE(num_threads == 1, "sequential executor is single-threaded");
    return std::make_unique<SequentialExecutor>();
  }
  if (backend == "threadpool") {
    return std::make_unique<ThreadPoolExecutor>(num_threads);
  }
  if (backend == "workstealing" || backend == "work-stealing") {
    return std::make_unique<WorkStealingExecutor>(num_threads);
  }
  if (backend == "openmp") {
#if defined(PCMAX_HAVE_OPENMP)
    return std::make_unique<OpenMPExecutor>(num_threads);
#else
    throw InvalidArgumentError("pcmax was built without OpenMP support");
#endif
  }
  throw InvalidArgumentError("unknown executor backend: " + backend);
}

}  // namespace pcmax
