#include "core/solve_context.hpp"

namespace pcmax {

bool IncumbentBoard::publish(Time makespan) {
  fault_hit("portfolio.incumbent");
  Time current = best_.load(std::memory_order_relaxed);
  while (makespan < current) {
    if (best_.compare_exchange_weak(current, makespan,
                                    std::memory_order_relaxed)) {
      updates_.fetch_add(1, std::memory_order_relaxed);
      if (obs::Metrics* metrics = obs::current()) {
        metrics->add(0, obs::Counter::kPortfolioIncumbentUpdates);
      }
      return true;
    }
  }
  return false;
}

SolveContext SolveContext::with_time_limit_ms(std::int64_t ms) {
  SolveContext context;
  if (ms > 0) context.deadline = Deadline::after_ms(ms);
  return context;
}

SolveContext SolveContext::with_token(CancellationToken token) {
  SolveContext context;
  context.cancel = std::move(token);
  return context;
}

CancellationToken SolveContext::effective_token() const {
  if (!deadline.has_limit()) return cancel;
  return CancellationToken::linked(cancel, deadline);
}

std::optional<std::int64_t> SolveContext::remaining_ms() const {
  if (!deadline.has_limit()) return std::nullopt;
  const double seconds = deadline.remaining_seconds();
  if (seconds <= 0.0) return 0;
  return static_cast<std::int64_t>(seconds * 1000.0);
}

}  // namespace pcmax
