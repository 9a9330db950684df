#include "obs/profile.h"

#include <cstdio>

#include "obs/metrics.h"

namespace blot::obs {
namespace {

constexpr std::array<std::string_view, kStageCount> kStageNames = {
    "route",  "execute", "failover",       "repair",       "cache_probe",
    "decode", "filter",  "zone_map_prune", "block_decode", "hedge",
};

}  // namespace

std::string_view StageName(Stage stage) {
  return kStageNames[static_cast<std::size_t>(stage)];
}

double QueryProfile::TopLevelSumMs() const {
  double sum = 0.0;
  for (std::size_t i = 0; i < kTopLevelStageCount; ++i) sum += stage_ms[i];
  return sum;
}

void QueryProfile::MergeScanFrom(const QueryProfile& other) {
  for (std::size_t i = kTopLevelStageCount; i < kStageCount; ++i) {
    stage_ms[i] += other.stage_ms[i];
    stage_bytes[i] += other.stage_bytes[i];
  }
  partitions_touched += other.partitions_touched;
  partitions_skipped += other.partitions_skipped;
  records_scanned += other.records_scanned;
  blocks_scanned += other.blocks_scanned;
  blocks_pruned += other.blocks_pruned;
  partitions_zone_pruned += other.partitions_zone_pruned;
  cache_hits += other.cache_hits;
  cache_misses += other.cache_misses;
  cache_hit_bytes += other.cache_hit_bytes;
  cache_miss_bytes += other.cache_miss_bytes;
  parallel_scan = parallel_scan || other.parallel_scan;
}

double SignedCostErrorPct(double estimated_ms, double measured_ms) {
  if (measured_ms <= 0.0) return 0.0;
  return (measured_ms - estimated_ms) / measured_ms * 100.0;
}

std::string QueryProfile::Render() const {
  char buf[256];
  std::string out;
  out += "stage            wall_ms      bytes\n";
  out += "--------------- -------- ----------\n";
  const auto line = [&](std::string_view name, double ms,
                        std::uint64_t bytes, bool indent) {
    std::snprintf(buf, sizeof(buf), "%s%-*s %8.3f %10llu\n",
                  indent ? "  " : "", indent ? 13 : 15,
                  std::string(name).c_str(), ms,
                  static_cast<unsigned long long>(bytes));
    out += buf;
  };
  for (std::size_t i = 0; i < kTopLevelStageCount; ++i) {
    line(kStageNames[i], stage_ms[i], stage_bytes[i], false);
    if (static_cast<Stage>(i) == Stage::kExecute) {
      for (std::size_t s = kTopLevelStageCount; s < kStageCount; ++s)
        line(kStageNames[s], stage_ms[s], stage_bytes[s], true);
    }
  }
  std::snprintf(buf, sizeof(buf),
                "total %.3f ms (stages sum %.3f ms)%s\n", total_ms,
                TopLevelSumMs(),
                parallel_scan ? " [parallel scan: sub-stages are CPU time]"
                              : "");
  out += buf;
  std::snprintf(
      buf, sizeof(buf),
      "partitions=%llu/%llu cache_hits=%llu cache_misses=%llu\n"
      "blocks=%llu scanned, %llu zone-pruned (+%llu whole partitions)\n",
      static_cast<unsigned long long>(partitions_touched),
      static_cast<unsigned long long>(
          partitions_touched + partitions_skipped + partitions_zone_pruned),
      static_cast<unsigned long long>(cache_hits),
      static_cast<unsigned long long>(cache_misses),
      static_cast<unsigned long long>(blocks_scanned),
      static_cast<unsigned long long>(blocks_pruned),
      static_cast<unsigned long long>(partitions_zone_pruned));
  out += buf;
  return out;
}

void RecordProfile(const QueryProfile& profile) {
  MetricsRegistry& registry = MetricsRegistry::global();
  if (!registry.enabled()) return;
  // One histogram + bytes counter per stage, resolved once.
  struct StageMetrics {
    Histogram* ms;
    Counter* bytes;
  };
  static const auto* stage_metrics = [] {
    auto* metrics = new std::array<StageMetrics, kStageCount>();
    MetricsRegistry& r = MetricsRegistry::global();
    for (std::size_t i = 0; i < kStageCount; ++i) {
      const Labels labels = {
          {"stage", std::string(kStageNames[i])}};
      (*metrics)[i] = {&r.GetHistogram("query.stage_ms", labels),
                       &r.GetCounter("query.stage_bytes_total", labels)};
    }
    return metrics;
  }();
  for (std::size_t i = 0; i < kStageCount; ++i) {
    // Skip stages this query never entered so p50s aren't drowned in
    // zeros (failover/repair are rare; decode is absent on cache hits).
    if (profile.stage_ms[i] == 0.0 && profile.stage_bytes[i] == 0) continue;
    (*stage_metrics)[i].ms->Observe(profile.stage_ms[i]);
    (*stage_metrics)[i].bytes->Increment(profile.stage_bytes[i]);
  }
  static Counter* profiled =
      &MetricsRegistry::global().GetCounter("query.profiled_total");
  profiled->Increment();
}

}  // namespace blot::obs
