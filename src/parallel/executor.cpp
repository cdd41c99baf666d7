#include "parallel/executor.hpp"

#include <algorithm>
#include <thread>

#include "util/error.hpp"

namespace pcmax {

unsigned hardware_threads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

void Executor::parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn,
                            const CancellationToken& cancel) {
  parallel_for_ranges(
      n,
      [&fn](std::size_t begin, std::size_t end, unsigned /*worker*/) {
        for (std::size_t i = begin; i < end; ++i) fn(i);
      },
      /*chunk=*/0, cancel);
}

void SequentialExecutor::run_team(const WorkStealingPool::TeamBody& body,
                                  const CancellationToken& cancel) {
  if (cancel.valid() && cancel.cancel_requested()) cancel.check();
  body(0);
}

void SequentialExecutor::parallel_for_ranges(std::size_t n,
                                             const WorkStealingPool::RangeBody& body,
                                             std::size_t /*chunk*/,
                                             const CancellationToken& cancel) {
  if (n == 0) return;
  if (cancel.valid() && cancel.cancel_requested()) cancel.check();
  body(0, n, 0);
}

WorkStealingExecutor::WorkStealingExecutor(unsigned num_threads)
    : pool_(num_threads) {}

std::unique_ptr<Executor> make_executor(const std::string& backend,
                                        unsigned num_threads) {
  PCMAX_REQUIRE(num_threads >= 1, "executor needs at least one thread");
  if (backend == "sequential") {
    PCMAX_REQUIRE(num_threads == 1, "sequential executor is single-threaded");
    return std::make_unique<SequentialExecutor>();
  }
  if (backend == "workstealing") {
    return std::make_unique<WorkStealingExecutor>(num_threads);
  }
  throw InvalidArgumentError("unknown executor backend '" + backend +
                             "' (expected 'sequential' or 'workstealing')");
}

}  // namespace pcmax
