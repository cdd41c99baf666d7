#include "service/result_cache.hpp"

#include <memory>
#include <mutex>
#include <utility>

#include "obs/metrics.hpp"
#include "util/error.hpp"

namespace pcmax {

ResultCache::ResultCache(std::size_t capacity) : capacity_(capacity) {
  PCMAX_REQUIRE(capacity >= 1, "cache capacity must be at least 1");
}

std::shared_ptr<const CacheEntry> ResultCache::lookup(
    const Fingerprint& key, const Instance& canonical, bool count_miss) {
  obs::Metrics* metrics = obs::current();
  std::lock_guard lock(mutex_);
  const auto it = map_.find(key);
  if (it == map_.end()) {
    if (count_miss) {
      ++stats_.misses;
      if (metrics != nullptr) {
        metrics->add(0, obs::Counter::kServiceCacheMisses);
      }
    }
    return nullptr;
  }
  if (it->second->second->canonical != canonical) {
    // 128-bit fingerprint collision: astronomically unlikely, but verified
    // so it can only ever cost a recompute, not a wrong answer.
    if (count_miss) {
      ++stats_.collisions;
      ++stats_.misses;
      if (metrics != nullptr) {
        metrics->add(0, obs::Counter::kServiceCacheMisses);
      }
    }
    return nullptr;
  }
  lru_.splice(lru_.begin(), lru_, it->second);  // refresh recency
  ++stats_.hits;
  if (metrics != nullptr) metrics->add(0, obs::Counter::kServiceCacheHits);
  return it->second->second;
}

void ResultCache::insert(const Fingerprint& key, CacheEntry entry) {
  obs::Metrics* metrics = obs::current();
  // Allocated, and an evicted entry freed, outside the lock (both are
  // declared before it, so they are destroyed after it is released).
  auto shared = std::make_shared<const CacheEntry>(std::move(entry));
  std::shared_ptr<const CacheEntry> evicted;
  std::lock_guard lock(mutex_);
  const auto it = map_.find(key);
  if (it != map_.end()) {
    // Refresh: a concurrent worker solved the same request first. Keep the
    // existing entry (both are valid results for the key).
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  if (lru_.size() >= capacity_) {
    map_.erase(lru_.back().first);
    evicted = std::move(lru_.back().second);
    lru_.pop_back();
    ++stats_.evictions;
    if (metrics != nullptr) {
      metrics->add(0, obs::Counter::kServiceCacheEvictions);
    }
  }
  lru_.emplace_front(key, std::move(shared));
  map_.emplace(key, lru_.begin());
}

CacheStats ResultCache::stats() const {
  std::lock_guard lock(mutex_);
  CacheStats snapshot = stats_;
  snapshot.size = lru_.size();
  return snapshot;
}

}  // namespace pcmax
