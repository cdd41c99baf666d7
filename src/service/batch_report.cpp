#include "service/batch_report.hpp"

#include <map>
#include <set>
#include <string>

namespace pcmax {

JsonValue batch_report(const ServiceOptions& options,
                       const std::vector<SolveResponse>& responses,
                       const ServiceStats& stats, double total_seconds) {
  JsonValue report = JsonValue::make_object();
  report["schema"] = "pcmax.batch.v1";

  JsonValue& config = report["config"];
  config["workers"] = options.workers;
  config["lane_width"] = options.lane_width;
  // Each worker owns one executor lane.
  config["lanes"] = options.workers;
  config["queue_capacity"] = static_cast<std::int64_t>(options.queue_capacity);
  config["cache_capacity"] = static_cast<std::int64_t>(options.cache_capacity);
  config["epsilon"] = options.epsilon;
  config["default_time_limit_ms"] = options.default_time_limit_ms;
  config["shed_policy"] =
      options.shed_policy == ShedPolicy::kTiered ? "tiered" : "static";
  config["coalesce"] = options.coalesce;
  config["breaker_enabled"] = options.breaker_enabled;
  // Appended (PR 9) so pre-existing fields keep their byte-exact positions
  // in golden files.
  config["shards"] = options.shards;

  std::set<std::string> unique;
  std::map<std::string, std::int64_t> variant_counts;
  for (const SolveResponse& response : responses) {
    unique.insert(response.fingerprint.to_hex());
    ++variant_counts[response.variant];
  }
  const bool all_classic =
      variant_counts.empty() ||
      (variant_counts.size() == 1 && variant_counts.count("classic") == 1);

  JsonValue& summary = report["summary"];
  summary["requests"] = static_cast<std::int64_t>(responses.size());
  summary["cache_hits"] = stats.cache.hits;
  summary["cache_misses"] = stats.cache.misses;
  summary["cache_evictions"] = stats.cache.evictions;
  summary["cache_collisions"] = stats.cache.collisions;
  summary["degraded"] = stats.degraded;
  summary["unique_fingerprints"] = static_cast<std::int64_t>(unique.size());
  summary["queue_high_watermark"] =
      static_cast<std::int64_t>(stats.queue_high_watermark);
  summary["total_seconds"] = total_seconds;
  summary["throughput_rps"] =
      total_seconds > 0.0
          ? static_cast<double>(responses.size()) / total_seconds
          : 0.0;
  // Overload-layer counters (appended so pre-existing fields keep their
  // byte-exact positions in golden files).
  summary["shed_quota"] = stats.shed_quota;
  summary["shed_overload"] = stats.shed_overload;
  summary["coalesced"] = stats.coalesced;
  summary["internal_errors"] = stats.internal_errors;
  summary["breaker_trips"] = stats.breaker.trips;
  summary["breaker_open_rejects"] = stats.breaker.rejects;
  summary["breaker_probes"] = stats.breaker.probes;
  summary["breaker_closes"] = stats.breaker.closes;
  // Variant mix (PR 10). Emitted ONLY when a non-classic variant is present:
  // all-classic batches — everything the service produced before variants
  // existed — keep their reports byte-identical, which is what lets the
  // pcmax_batch_v1 golden file assert the classic path never drifted.
  if (!all_classic) {
    JsonValue& mix = summary["variants"];
    for (const auto& [name, count] : variant_counts) mix[name] = count;
  }

  JsonValue requests = JsonValue::make_array();
  for (std::size_t i = 0; i < responses.size(); ++i) {
    const SolveResponse& response = responses[i];
    JsonValue entry = JsonValue::make_object();
    entry["index"] = static_cast<std::int64_t>(i);
    entry["machines"] = response.machines;
    entry["jobs"] = response.jobs;
    entry["fingerprint"] = response.fingerprint.to_hex();
    entry["makespan"] = response.makespan;
    entry["algorithm"] = response.algorithm;
    entry["cache_hit"] = response.cache_hit;
    entry["degraded"] = response.degraded;
    entry["degradation_reason"] = response.degradation_reason;
    entry["proven_optimal"] = response.proven_optimal;
    entry["queue_seconds"] = response.queue_seconds;
    entry["solve_seconds"] = response.solve_seconds;
    entry["seconds"] = response.seconds;
    entry["tenant"] = response.tenant;
    entry["shed"] = response.shed;
    entry["coalesced"] = response.coalesced;
    entry["shard"] = response.shard;
    // Appended, and only for variant-carrying batches (see above).
    if (!all_classic) entry["variant"] = response.variant;
    requests.append(std::move(entry));
  }
  report["requests"] = std::move(requests);
  return report;
}

}  // namespace pcmax
