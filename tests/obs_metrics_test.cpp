// Tests the obs metrics layer: deterministic counters under
// SequentialExecutor, the JSON export round trip, the ISSUE acceptance
// property (per-worker DP entry totals sum to the state-space size), and
// no-op behaviour when no collector is installed (or the layer is compiled
// out with PCMAX_METRICS=OFF).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <numeric>
#include <thread>
#include <utility>
#include <vector>

#include "algo/ptas/config_enum.hpp"
#include "algo/ptas/dp_parallel.hpp"
#include "algo/ptas/dp_sequential.hpp"
#include "obs/metrics.hpp"
#include "obs/metrics_json.hpp"
#include "parallel/executor.hpp"
#include "util/error.hpp"
#include "util/json.hpp"

namespace pcmax {
namespace {

constexpr std::size_t kBig = std::size_t{1} << 40;

RoundedInstance make_rounded(const std::vector<Time>& sizes,
                             const std::vector<int>& counts, Time target) {
  RoundedInstance rounded;
  rounded.params = RoundingParams::make(target, 4);
  for (std::size_t d = 0; d < sizes.size(); ++d) {
    rounded.class_index.push_back(static_cast<int>(d) + 1);
    rounded.class_size.push_back(sizes[d]);
    rounded.class_count.push_back(counts[d]);
    rounded.class_jobs.emplace_back();
    rounded.total_long_jobs += counts[d];
  }
  return rounded;
}

std::uint64_t sum(const std::vector<std::uint64_t>& values) {
  return std::accumulate(values.begin(), values.end(), std::uint64_t{0});
}

// A mid-size shape: 3 classes, sigma = 5*4*4 = 80, levels 0..9.
struct Fixture {
  std::vector<Time> sizes{9, 13, 17};
  std::vector<int> counts{4, 3, 3};
  Time target = 40;
  RoundedInstance rounded = make_rounded(sizes, counts, target);
  StateSpace space{counts, kBig};
  ConfigSet configs = enumerate_configs(rounded, space, kBig);
};

// ---------------------------------------------------------------------------
// JsonValue (util/json): the serializer the exporter depends on.
// ---------------------------------------------------------------------------

TEST(Json, RoundTripsScalarsExactly) {
  JsonValue object = JsonValue::make_object();
  object["null"] = JsonValue();
  object["flag"] = JsonValue(true);
  object["small"] = JsonValue(42);
  object["big"] = JsonValue(std::int64_t{9007199254740993});  // > 2^53
  object["negative"] = JsonValue(std::int64_t{-123456789012345});
  object["pi"] = JsonValue(3.25);
  object["text"] = JsonValue("quote \" backslash \\ newline \n tab \t");
  for (const bool pretty : {false, true}) {
    const JsonValue parsed = JsonValue::parse(object.dump(pretty));
    EXPECT_EQ(parsed, object) << "pretty=" << pretty;
    // 2^53+1 is not representable as a double: it must have stayed int64.
    EXPECT_TRUE(parsed.at("big").is_int());
    EXPECT_EQ(parsed.at("big").as_int(), 9007199254740993);
    EXPECT_TRUE(parsed.at("pi").is_double());
  }
}

TEST(Json, RoundTripsNestedStructures) {
  JsonValue root = JsonValue::make_object();
  root["rows"].append(JsonValue(1)).append(JsonValue(2.5)).append(
      JsonValue("three"));
  root["nested"]["inner"]["deep"] = JsonValue(7);
  root["empty_array"] = JsonValue::make_array();
  root["empty_object"] = JsonValue::make_object();
  const JsonValue parsed = JsonValue::parse(root.dump(true));
  EXPECT_EQ(parsed, root);
  EXPECT_EQ(parsed.at("rows").size(), 3u);
  EXPECT_EQ(parsed.at("nested").at("inner").at("deep").as_int(), 7);
}

TEST(Json, ParseRejectsMalformedInput) {
  EXPECT_THROW(JsonValue::parse(""), std::exception);
  EXPECT_THROW(JsonValue::parse("{"), std::exception);
  EXPECT_THROW(JsonValue::parse("[1,]"), std::exception);
  EXPECT_THROW(JsonValue::parse("{\"a\":1} x"), std::exception);
  EXPECT_THROW(JsonValue::parse("nul"), std::exception);
}

TEST(Json, ParsesUnicodeEscapes) {
  const JsonValue parsed = JsonValue::parse(R"({"s": "aé€"})");
  EXPECT_EQ(parsed.at("s").as_string(), "a\xc3\xa9\xe2\x82\xac");
}

// ---------------------------------------------------------------------------
// Metrics core: counters, timers, buffers.
// ---------------------------------------------------------------------------

TEST(Metrics, CountersAccumulatePerWorkerAndTotal) {
  obs::Metrics metrics(4);
  metrics.add(0, obs::Counter::kPoolIterations, 10);
  metrics.add(1, obs::Counter::kPoolIterations, 20);
  metrics.add(3, obs::Counter::kPoolIterations);
  EXPECT_EQ(metrics.counter_of(0, obs::Counter::kPoolIterations), 10u);
  EXPECT_EQ(metrics.counter_of(1, obs::Counter::kPoolIterations), 20u);
  EXPECT_EQ(metrics.counter_of(2, obs::Counter::kPoolIterations), 0u);
  EXPECT_EQ(metrics.counter_total(obs::Counter::kPoolIterations), 31u);
  // Worker ids beyond the last slot clamp to the last slot.
  metrics.add(99, obs::Counter::kPoolTasks, 5);
  EXPECT_EQ(metrics.counter_of(3, obs::Counter::kPoolTasks), 5u);
}

TEST(Metrics, TimersAccumulateCallsAndNanoseconds) {
  obs::Metrics metrics(1);
  metrics.add_timer(obs::Timer::kLpSolve, 100);
  metrics.add_timer(obs::Timer::kLpSolve, 250);
  const obs::TimerStat stat = metrics.timer(obs::Timer::kLpSolve);
  EXPECT_EQ(stat.calls, 2u);
  EXPECT_EQ(stat.total_ns, 350u);
  EXPECT_EQ(metrics.timer(obs::Timer::kDpRun).calls, 0u);
}

TEST(Metrics, SpanBufferDropsBeyondCapacityAndCounts) {
  obs::Metrics metrics(1, /*span_capacity=*/2);
  metrics.add_span("a", 0, 1, 2);
  metrics.add_span("b", 0, 2, 3);
  metrics.add_span("c", 0, 3, 4);
  EXPECT_EQ(metrics.spans().size(), 2u);
  EXPECT_EQ(metrics.dropped_spans(), 1u);
}

TEST(Metrics, StableNamesForEveryCounterAndTimer) {
  for (std::size_t i = 0; i < obs::kCounterCount; ++i) {
    const char* name = obs::counter_name(static_cast<obs::Counter>(i));
    ASSERT_NE(name, nullptr);
    EXPECT_GT(std::string(name).size(), 0u) << "counter " << i;
  }
  for (std::size_t i = 0; i < obs::kTimerCount; ++i) {
    const char* name = obs::timer_name(static_cast<obs::Timer>(i));
    ASSERT_NE(name, nullptr);
    EXPECT_GT(std::string(name).size(), 0u) << "timer " << i;
  }
  // A named slot past the count means an enumerator was appended after the
  // one the count is derived from.
  EXPECT_THROW((void)obs::counter_name(static_cast<obs::Counter>(obs::kCounterCount)),
               InvalidArgumentError);
  EXPECT_THROW((void)obs::timer_name(static_cast<obs::Timer>(obs::kTimerCount)),
               InvalidArgumentError);
}

// ---------------------------------------------------------------------------
// Ambient collector: no-op behaviour.
// ---------------------------------------------------------------------------

TEST(Metrics, NothingRecordedWithoutInstalledCollector) {
  ASSERT_EQ(obs::current(), nullptr);
  Fixture f;
  // Instrumented code runs, but no collector is installed: a bystander
  // Metrics instance must stay untouched.
  obs::Metrics bystander(1);
  SequentialExecutor executor;
  ParallelDpOptions options;
  options.executor = &executor;
  options.variant = ParallelDpVariant::kBucketed;
  const DpRun run = dp_parallel(f.rounded, f.space, f.configs, options);
  EXPECT_GT(run.stats.entries_computed, 0u);
  for (std::size_t i = 0; i < obs::kCounterCount; ++i) {
    EXPECT_EQ(bystander.counter_total(static_cast<obs::Counter>(i)), 0u);
  }
  EXPECT_TRUE(bystander.dp_runs().empty());
}

TEST(Metrics, ScopeInstallsAndRestoresCollector) {
  if constexpr (!obs::kMetricsEnabled) {
    // Compiled out: installation is a no-op and current() stays null.
    obs::Metrics metrics(1);
    const obs::MetricsScope scope(metrics);
    EXPECT_EQ(obs::current(), nullptr);
    return;
  } else {
    ASSERT_EQ(obs::current(), nullptr);
    obs::Metrics metrics(1);
    {
      const obs::MetricsScope scope(metrics);
      EXPECT_EQ(obs::current(), &metrics);
      obs::Metrics inner(1);
      {
        const obs::MetricsScope nested(inner);
        EXPECT_EQ(obs::current(), &inner);
      }
      EXPECT_EQ(obs::current(), &metrics);
    }
    EXPECT_EQ(obs::current(), nullptr);
  }
}

TEST(Metrics, RecorderInactiveWithoutCollector) {
  obs::DpRunRecorder recorder("test", "-", 10, 2);
  EXPECT_FALSE(recorder.active());
  EXPECT_EQ(recorder.level_begin(), 0u);
  recorder.level_end(0, 5, 0);
  recorder.add_worker(0, 5, 7, 3);
  recorder.finish();  // must not crash
}

// ---------------------------------------------------------------------------
// Instrumented DP: determinism and the entry-conservation acceptance check.
// ---------------------------------------------------------------------------

/// Runs one parallel DP under a fresh collector and returns the collector.
template <typename Run>
std::unique_ptr<obs::Metrics> collect(unsigned workers, Run&& run) {
  auto metrics = std::make_unique<obs::Metrics>(workers);
  const obs::MetricsScope scope(*metrics);
  run();
  return metrics;
}

TEST(MetricsDp, CountersDeterministicUnderSequentialExecutor) {
  if constexpr (!obs::kMetricsEnabled) GTEST_SKIP() << "PCMAX_METRICS is OFF";
  Fixture f;
  auto run_once = [&] {
    return collect(1, [&] {
      SequentialExecutor executor;
      for (const ParallelDpVariant variant :
           {ParallelDpVariant::kScanPerLevel, ParallelDpVariant::kBucketed}) {
        ParallelDpOptions options;
        options.executor = &executor;
        options.variant = variant;
        dp_parallel(f.rounded, f.space, f.configs, options);
      }
      dp_bottom_up(f.rounded, f.space, f.configs);
    });
  };
  const auto first = run_once();
  const auto second = run_once();
  for (std::size_t i = 0; i < obs::kCounterCount; ++i) {
    const auto counter = static_cast<obs::Counter>(i);
    EXPECT_EQ(first->counter_total(counter), second->counter_total(counter))
        << obs::counter_name(counter);
  }
  // 3 DP runs per repetition, each visible as a structured record.
  EXPECT_EQ(first->counter_total(obs::Counter::kDpRuns), 3u);
  EXPECT_EQ(first->dp_runs().size(), 3u);
}

TEST(MetricsDp, PerWorkerEntryTotalsSumToStateSpaceSize) {
  if constexpr (!obs::kMetricsEnabled) GTEST_SKIP() << "PCMAX_METRICS is OFF";
  Fixture f;
  const std::uint64_t sigma = f.space.size();
  for (const unsigned threads : {1u, 4u}) {
    const auto metrics = collect(threads, [&] {
      WorkStealingExecutor executor(threads);
      for (const ParallelDpVariant variant :
           {ParallelDpVariant::kScanPerLevel, ParallelDpVariant::kBucketed}) {
        ParallelDpOptions options;
        options.executor = &executor;
        options.variant = variant;
        const DpRun run = dp_parallel(f.rounded, f.space, f.configs, options);
        EXPECT_EQ(run.stats.entries_computed, sigma);
      }
      dp_bottom_up(f.rounded, f.space, f.configs);
    });
    const std::vector<obs::DpRunRecord> runs = metrics->dp_runs();
    ASSERT_EQ(runs.size(), 3u) << "threads=" << threads;
    for (const obs::DpRunRecord& run : runs) {
      EXPECT_EQ(run.table_size, sigma) << run.variant;
      // The acceptance property: per-worker iteration totals conserve the
      // state space — every entry is computed exactly once by exactly one
      // worker, regardless of variant, executor, or thread count.
      EXPECT_EQ(sum(run.per_worker_entries), sigma) << run.variant;
      EXPECT_EQ(run.levels, f.space.max_level() + 1) << run.variant;
      if (!run.per_level.empty()) {
        std::uint64_t per_level_total = 0;
        for (const obs::DpLevelSample& sample : run.per_level) {
          per_level_total += sample.entries;
        }
        EXPECT_EQ(per_level_total, sigma) << run.variant;
      }
    }
    // And the flat counter view agrees with the structured records.
    EXPECT_EQ(metrics->counter_total(obs::Counter::kDpEntries), 3 * sigma);
  }
}

TEST(MetricsDp, PoolCountersObserveLoopShape) {
  if constexpr (!obs::kMetricsEnabled) GTEST_SKIP() << "PCMAX_METRICS is OFF";
  constexpr std::size_t kIterations = 1000;
  const auto metrics = collect(4, [&] {
    WorkStealingPool pool(4);
    std::atomic<std::uint64_t> touched{0};
    pool.parallel_for_1d(
        kIterations,
        [&](std::size_t begin, std::size_t end, unsigned) {
          touched.fetch_add(end - begin, std::memory_order_relaxed);
        },
        /*chunk=*/16);
    ASSERT_EQ(touched.load(), kIterations);
  });
  EXPECT_EQ(metrics->counter_total(obs::Counter::kPoolRegions), 1u);
  EXPECT_EQ(metrics->counter_total(obs::Counter::kPoolIterations), kIterations);
  // Every claim covers <= chunk iterations.
  EXPECT_GE(metrics->counter_total(obs::Counter::kPoolDynamicClaims),
            kIterations / 16);
  EXPECT_EQ(metrics->timer(obs::Timer::kPoolRegion).calls, 1u);
}

TEST(MetricsDp, WorkStealingWorkersCountParksBetweenEpisodes) {
  if constexpr (!obs::kMetricsEnabled) GTEST_SKIP() << "PCMAX_METRICS is OFF";
  // pool.parks counts each time a pool worker blocks waiting for the next
  // episode; after a range and a team episode worker 1 has blocked at least
  // once.
  obs::Metrics metrics(2);
  const obs::MetricsScope scope(metrics);
  WorkStealingPool pool(2);
  pool.parallel_for_1d(8, [](std::size_t, std::size_t, unsigned) {});
  pool.run_team([](unsigned) {});
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(1);
  while (metrics.counter_total(obs::Counter::kPoolParks) < 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(metrics.counter_total(obs::Counter::kPoolParks), 1u);
}

// ---------------------------------------------------------------------------
// JSON export.
// ---------------------------------------------------------------------------

TEST(MetricsJson, ExportRoundTripsAndMatchesSchema) {
  if constexpr (!obs::kMetricsEnabled) GTEST_SKIP() << "PCMAX_METRICS is OFF";
  Fixture f;
  const auto metrics = collect(2, [&] {
    WorkStealingExecutor executor(2);
    ParallelDpOptions options;
    options.executor = &executor;
    options.variant = ParallelDpVariant::kBucketed;
    dp_parallel(f.rounded, f.space, f.configs, options);
  });
  const JsonValue document = obs::metrics_to_json(*metrics);
  // Round trip: dump -> parse must reproduce the tree exactly (this is what
  // keeps 64-bit counters honest in the file the CLI writes).
  EXPECT_EQ(JsonValue::parse(document.dump(true)), document);
  EXPECT_EQ(JsonValue::parse(document.dump(false)), document);

  EXPECT_EQ(document.at("schema").as_string(), "pcmax.metrics.v1");
  EXPECT_TRUE(document.at("enabled").as_bool());
  EXPECT_EQ(document.at("workers").as_int(), 2);

  const JsonValue& totals = document.at("counters").at("totals");
  EXPECT_EQ(
      totals.at("dp.entries").as_int(),
      static_cast<std::int64_t>(metrics->counter_total(obs::Counter::kDpEntries)));
  EXPECT_EQ(document.at("counters").at("per_worker").size(), 2u);

  const JsonValue& runs = document.at("dp_runs");
  ASSERT_EQ(runs.size(), 1u);
  const JsonValue& run = runs.at(std::size_t{0});
  EXPECT_EQ(run.at("variant").as_string(), "bucketed");
  EXPECT_EQ(run.at("table_size").as_int(),
            static_cast<std::int64_t>(f.space.size()));
  // Per-level DP timings are present and conserve the entry count.
  const JsonValue& per_level = run.at("per_level");
  ASSERT_EQ(per_level.size(),
            static_cast<std::size_t>(f.space.max_level() + 1));
  std::int64_t level_entries = 0;
  for (std::size_t i = 0; i < per_level.size(); ++i) {
    level_entries += per_level.at(i).at("entries").as_int();
    EXPECT_GE(per_level.at(i).at("ns").as_int(), 0);
  }
  EXPECT_EQ(level_entries, static_cast<std::int64_t>(f.space.size()));
  // Per-worker totals likewise.
  std::int64_t worker_entries = 0;
  const JsonValue& per_worker = run.at("per_worker_entries");
  for (std::size_t i = 0; i < per_worker.size(); ++i) {
    worker_entries += per_worker.at(i).as_int();
  }
  EXPECT_EQ(worker_entries, static_cast<std::int64_t>(f.space.size()));

  EXPECT_NE(document.at("timers").find("dp.run"), nullptr);
  EXPECT_EQ(document.at("dropped").at("spans").as_int(), 0);
}

TEST(MetricsJson, ExportOfIdleCollectorIsValid) {
  obs::Metrics metrics(1);
  const JsonValue document = obs::metrics_to_json(metrics);
  EXPECT_EQ(JsonValue::parse(document.dump()), document);
  EXPECT_EQ(document.at("dp_runs").size(), 0u);
  EXPECT_EQ(document.at("spans").size(), 0u);
}

}  // namespace
}  // namespace pcmax
