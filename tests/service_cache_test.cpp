// ResultCache: LRU bound/eviction/recency, the collision-verification
// branch, stat counters, and the obs counter mirror.
#include "service/result_cache.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "util/error.hpp"

namespace pcmax {
namespace {

Instance canonical_instance(Time distinguisher) {
  // Already sorted ascending, as the cache expects canonical forms.
  return Instance(2, {1, 2, 3, distinguisher + 10});
}

CacheEntry entry_for(const Instance& canonical, const std::string& algorithm) {
  CacheEntry entry{canonical, std::vector<int>(
                                  static_cast<std::size_t>(canonical.jobs()), 0),
                   canonical.total_time(), algorithm, false};
  return entry;
}

Fingerprint key_of(std::uint64_t id) { return Fingerprint{id, ~id}; }

TEST(ResultCache, MissThenHit) {
  ResultCache cache(4);
  const Instance canonical = canonical_instance(1);
  EXPECT_EQ(cache.lookup(key_of(1), canonical), nullptr);
  cache.insert(key_of(1), entry_for(canonical, "PTAS"));
  const auto hit = cache.lookup(key_of(1), canonical);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->algorithm, "PTAS");
  EXPECT_EQ(hit->makespan, canonical.total_time());
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.size, 1u);
}

TEST(ResultCache, CapacityIsAHardBound) {
  ResultCache cache(3);
  for (std::uint64_t i = 0; i < 10; ++i) {
    cache.insert(key_of(i), entry_for(canonical_instance(static_cast<Time>(i)),
                                      "PTAS"));
    EXPECT_LE(cache.stats().size, 3u);
  }
  EXPECT_EQ(cache.stats().size, 3u);
  EXPECT_EQ(cache.stats().evictions, 7u);
}

TEST(ResultCache, EvictsTheLeastRecentlyUsedEntry) {
  ResultCache cache(2);
  const Instance a = canonical_instance(1);
  const Instance b = canonical_instance(2);
  const Instance c = canonical_instance(3);
  cache.insert(key_of(1), entry_for(a, "A"));
  cache.insert(key_of(2), entry_for(b, "B"));
  // Touch A so B becomes the LRU entry, then push C past capacity.
  ASSERT_NE(cache.lookup(key_of(1), a), nullptr);
  cache.insert(key_of(3), entry_for(c, "C"));
  EXPECT_NE(cache.lookup(key_of(1), a), nullptr);  // survived
  EXPECT_EQ(cache.lookup(key_of(2), b), nullptr);  // evicted
  EXPECT_NE(cache.lookup(key_of(3), c), nullptr);
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(ResultCache, FingerprintCollisionDegradesToAMiss) {
  ResultCache cache(4);
  const Instance stored = canonical_instance(1);
  const Instance probe = canonical_instance(2);  // same key, different problem
  cache.insert(key_of(7), entry_for(stored, "PTAS"));
  EXPECT_EQ(cache.lookup(key_of(7), probe), nullptr);
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.collisions, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 0u);
  // The entry itself is untouched and still serves the real owner.
  EXPECT_NE(cache.lookup(key_of(7), stored), nullptr);
}

TEST(ResultCache, ReinsertKeepsTheExistingEntry) {
  // Two workers can race to solve one fingerprint; the second insert must
  // not clobber the first (both results are valid for the key).
  ResultCache cache(4);
  const Instance canonical = canonical_instance(1);
  cache.insert(key_of(1), entry_for(canonical, "first"));
  cache.insert(key_of(1), entry_for(canonical, "second"));
  const auto hit = cache.lookup(key_of(1), canonical);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->algorithm, "first");
  EXPECT_EQ(cache.stats().size, 1u);
}

TEST(ResultCache, AHitOnlyProbeCountsNoMissOrCollision) {
  // The service's submit-side probe: it counts a hit, but leaves a miss to
  // the worker's re-probe of the same request.
  ResultCache cache(4);
  const Instance stored = canonical_instance(1);
  const Instance probe = canonical_instance(2);  // same key, different problem
  EXPECT_EQ(cache.lookup(key_of(7), stored, /*count_miss=*/false), nullptr);
  cache.insert(key_of(7), entry_for(stored, "PTAS"));
  EXPECT_EQ(cache.lookup(key_of(7), probe, /*count_miss=*/false), nullptr);
  EXPECT_NE(cache.lookup(key_of(7), stored, /*count_miss=*/false), nullptr);
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.collisions, 0u);
}

TEST(ResultCache, AHitOutlivesItsEviction) {
  // A hit shares the stored entry, so a caller still lifting it is safe
  // while another thread evicts the key.
  ResultCache cache(1);
  const Instance a = canonical_instance(1);
  cache.insert(key_of(1), entry_for(a, "A"));
  const std::shared_ptr<const CacheEntry> hit = cache.lookup(key_of(1), a);
  ASSERT_NE(hit, nullptr);
  cache.insert(key_of(2), entry_for(canonical_instance(2), "B"));
  EXPECT_EQ(cache.lookup(key_of(1), a), nullptr);
  EXPECT_EQ(hit->algorithm, "A");
  EXPECT_EQ(hit->assignment.size(), static_cast<std::size_t>(a.jobs()));
}

TEST(ResultCache, RejectsZeroCapacity) {
  EXPECT_THROW(ResultCache cache(0), InvalidArgumentError);
}

TEST(ResultCache, MirrorsCountersIntoAmbientMetrics) {
  if (!obs::kMetricsEnabled) GTEST_SKIP() << "metrics compiled out";
  obs::Metrics metrics(1);
  {
    obs::MetricsScope scope(metrics);
    ResultCache cache(1);
    const Instance a = canonical_instance(1);
    const Instance b = canonical_instance(2);
    (void)cache.lookup(key_of(1), a);          // miss
    cache.insert(key_of(1), entry_for(a, "A"));
    (void)cache.lookup(key_of(1), a);          // hit
    cache.insert(key_of(2), entry_for(b, "B"));  // evicts A
  }
  EXPECT_EQ(metrics.counter_total(obs::Counter::kServiceCacheMisses), 1u);
  EXPECT_EQ(metrics.counter_total(obs::Counter::kServiceCacheHits), 1u);
  EXPECT_EQ(metrics.counter_total(obs::Counter::kServiceCacheEvictions), 1u);
}

}  // namespace
}  // namespace pcmax
