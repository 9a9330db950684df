// Per-query stage profiles: where did this query's wall time go?
//
// The metrics registry answers "how is the store doing overall"; a
// QueryProfile answers "what did THIS query spend its time on" — the
// signal the cost model (Eq. 6-12) needs to stay honest. BlotStore
// populates one per routed query (attached to RoutedResult) and
// Replica::Execute fills in the scan-internal sub-stages.
//
// Stages come in two tiers with different additivity guarantees:
//
//  * Top-level stages (route, execute, failover, repair) are disjoint
//    wall-clock intervals measured on the calling thread, so their sum
//    tracks the query's total wall time (blotctl --profile relies on
//    this: sum within 10% of total).
//  * Sub-stages (cache_probe, decode, filter, zone_map_prune,
//    block_decode) are accumulated per partition inside the scan and
//    nest within `execute`. Under a thread pool, partitions scan
//    concurrently, so sub-stage times are CPU time across workers and
//    may exceed the execute wall time; `parallel_scan` flags that case
//    for tools.
//
// zone_map_prune is the time spent parsing-and-skipping block headers
// that the zone map pruned; block_decode is the time spent decoding and
// filtering the blocks that survived it, a refinement of decode/filter
// for the blocked wire format.
#ifndef BLOT_OBS_PROFILE_H_
#define BLOT_OBS_PROFILE_H_

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

namespace blot::obs {

// Order matters: the first kTopLevelStageCount entries are the disjoint
// top-level stages, the rest nest inside kExecute.
enum class Stage : std::uint8_t {
  kRoute = 0,
  kExecute,
  kFailover,
  kRepair,
  kCacheProbe,
  kDecode,
  kFilter,
  kZoneMapPrune,  // appended after kFilter: persisted indices stay stable
  kBlockDecode,
  kHedge,  // wall time of the backup attempt in a hedged read
};
inline constexpr std::size_t kTopLevelStageCount = 4;
inline constexpr std::size_t kStageCount = 10;

// "route", "execute", ... — the label value used by the
// query.stage_ms{stage=...} histograms and every exporter.
std::string_view StageName(Stage stage);

// The cost model's error on one query: (measured - estimated) /
// measured * 100, positive when the model underestimated; 0 when
// unmeasured. The one definition behind the query.cost_error_pct
// histogram, the LatencyMap residual's cost_drift.error_pct and blotctl
// --profile.
double SignedCostErrorPct(double estimated_ms, double measured_ms);

struct QueryProfile {
  // Wall milliseconds and bytes handled per stage, indexed by Stage.
  // `bytes` means: bytes read from encoded partitions for kDecode,
  // bytes served from cache for kCacheProbe, 0 where it has no meaning.
  std::array<double, kStageCount> stage_ms{};
  std::array<std::uint64_t, kStageCount> stage_bytes{};

  // Scan shape.
  std::uint64_t partitions_touched = 0;  // scanned (cache or decode)
  std::uint64_t partitions_skipped = 0;  // pruned by the partition index
  std::uint64_t records_scanned = 0;
  std::uint64_t blocks_scanned = 0;          // blocked format: decoded blocks
  std::uint64_t blocks_pruned = 0;           // blocked format: zone-map skips
  std::uint64_t partitions_zone_pruned = 0;  // whole-partition zone skips
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_hit_bytes = 0;
  std::uint64_t cache_miss_bytes = 0;

  bool parallel_scan = false;  // sub-stage times are CPU, not wall
  double total_ms = 0.0;       // end-to-end wall time in the store

  double stage(Stage s) const {
    return stage_ms[static_cast<std::size_t>(s)];
  }
  void AddStage(Stage s, double ms, std::uint64_t bytes = 0) {
    stage_ms[static_cast<std::size_t>(s)] += ms;
    stage_bytes[static_cast<std::size_t>(s)] += bytes;
  }

  // Sum of the disjoint top-level stages — the additive decomposition of
  // total_ms.
  double TopLevelSumMs() const;

  // Folds another profile's scan sub-stages (everything past the
  // top-level stages) and scan-shape counters into this one. Used by the
  // store's attempt coordinator: each attempt fills its own profile
  // (racing ones off-thread), and the coordinator merges the attempts it
  // collected into the query's profile — which is never written
  // concurrently.
  void MergeScanFrom(const QueryProfile& other);

  // Human-readable per-stage table and scan shape for blotctl --profile.
  // The routing outcome (replica, attempts, costs) lives in the store's
  // RoutedResult, which carries this profile.
  std::string Render() const;
};

// Observes the profile into the global registry's per-stage histograms
// (query.stage_ms{stage=...}) and stage byte counters. No-op when the
// registry is disabled; hot-path safe (handles are cached).
void RecordProfile(const QueryProfile& profile);

}  // namespace blot::obs

#endif  // BLOT_OBS_PROFILE_H_
