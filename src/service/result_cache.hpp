// LRU result cache keyed by request fingerprint.
//
// Entries store results in CANONICAL space: the machine assignment indexed
// by canonical job rank (see core/fingerprint). That makes one entry valid
// for every permutation of the same job multiset — the service lifts the
// assignment back through the requesting instance's sort permutation.
//
// Correctness does not rest on the 128-bit fingerprint alone: each entry
// also keeps its canonical instance, and lookup() verifies it against the
// probe's canonical instance. A fingerprint collision therefore degrades to
// a miss (counted separately), never to a wrong answer.
//
// Thread-safe: one mutex around the map + recency list. Entries are
// immutable and shared: a hit copies one shared_ptr under the mutex, and the
// caller reads (and lifts) the entry outside it, so submitters and workers
// probing one slice hold the lock only for the map walk. Hit/miss/eviction
// counts are mirrored into the ambient obs::Metrics collector (slot 0) as
// service.cache.* counters.
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/fingerprint.hpp"
#include "core/instance.hpp"

namespace pcmax {

/// One cached solve result, stored in canonical job-rank space.
struct CacheEntry {
  Instance canonical;           ///< verification key (sorted times)
  std::vector<int> assignment;  ///< machine of canonical rank r
  Time makespan = 0;
  std::string algorithm;        ///< solver rung that produced the result
  bool proven_optimal = false;
};

/// Point-in-time counter snapshot of a ResultCache.
struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t collisions = 0;  ///< fingerprint matched, canonical did not
  std::size_t size = 0;
};

class ResultCache {
 public:
  /// `capacity` >= 1 entries; the least recently used entry is evicted when
  /// an insert would exceed it.
  explicit ResultCache(std::size_t capacity);

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// Returns the entry under `key` after verifying it matches `canonical`
  /// (collision check), refreshing its recency; null on a miss. Counts a
  /// hit, and a miss (or collision) only when `count_miss` — a probe that
  /// is retried later for the same request leaves its miss to the retry.
  [[nodiscard]] std::shared_ptr<const CacheEntry> lookup(
      const Fingerprint& key, const Instance& canonical,
      bool count_miss = true);

  /// Inserts (or refreshes) `entry` under `key`, evicting the LRU entry if
  /// the cache is full.
  void insert(const Fingerprint& key, CacheEntry entry);

  [[nodiscard]] CacheStats stats() const;
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

 private:
  using LruList =
      std::list<std::pair<Fingerprint, std::shared_ptr<const CacheEntry>>>;

  const std::size_t capacity_;
  mutable std::mutex mutex_;
  LruList lru_;  // front = most recently used
  std::unordered_map<Fingerprint, LruList::iterator, FingerprintHasher> map_;
  CacheStats stats_;
};

}  // namespace pcmax
