#include "parallel/executor_lanes.hpp"

#include "util/error.hpp"

namespace pcmax {

ExecutorLanes::ExecutorLanes(unsigned lanes, unsigned lane_width)
    : lane_width_(lane_width) {
  PCMAX_REQUIRE(lanes >= 1, "need at least one executor lane");
  PCMAX_REQUIRE(lane_width >= 1, "lane width must be at least 1");
  executors_.reserve(lanes);
  free_.reserve(lanes);
  for (unsigned i = 0; i < lanes; ++i) {
    executors_.push_back(std::make_unique<WorkStealingExecutor>(lane_width));
    free_.push_back(i);
  }
}

ExecutorLanes::Lease ExecutorLanes::acquire() {
  std::unique_lock lock(mutex_);
  lane_free_.wait(lock, [&] { return !free_.empty(); });
  const std::size_t index = free_.back();
  free_.pop_back();
  return Lease(this, index);
}

void ExecutorLanes::release(std::size_t index) {
  {
    std::lock_guard lock(mutex_);
    free_.push_back(index);
  }
  lane_free_.notify_one();
}

ExecutorLanes::Lease::~Lease() {
  if (owner_ != nullptr) owner_->release(index_);
}

Executor& ExecutorLanes::Lease::executor() const {
  return *owner_->executors_[index_];
}

}  // namespace pcmax
