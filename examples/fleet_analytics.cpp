// Fleet analytics: the paper's motivating workload pattern — "users use an
// equal-sized grid to decompose the space and then conduct simple
// statistics for each grid cell" (Section III-C1).
//
// Computes an occupancy heat map over a spatial grid and a day-by-day
// fleet utilization series, issuing every cell/day as a range query. Runs
// the whole workload twice — routed across diverse replicas vs pinned to
// one replica — and reports the estimated cost difference. The whole run
// executes with the metrics registry enabled, and the closing section is
// produced entirely from the registry snapshot: where queries were
// routed, how measured latency distributed, and what the codecs decoded.
//
// Run: ./fleet_analytics
#include <cstdio>
#include <vector>

#include "core/store.h"
#include "gen/taxi_generator.h"
#include "obs/metrics.h"

using namespace blot;

int main() {
  obs::MetricsRegistry::global().set_enabled(true);

  TaxiFleetConfig fleet;
  fleet.num_taxis = 60;
  fleet.samples_per_taxi = 800;
  Dataset dataset = GenerateTaxiFleet(fleet);
  const STRange universe = fleet.Universe();

  ThreadPool pool(4);
  BlotStore store(std::move(dataset), universe);
  store.AddReplica({{.spatial_partitions = 64, .temporal_partitions = 16},
                    EncodingScheme::FromName("COL-GZIP")},
                   &pool);
  store.AddReplica({{.spatial_partitions = 4, .temporal_partitions = 4},
                    EncodingScheme::FromName("ROW-SNAPPY")},
                   &pool);
  const CostModel model{EnvironmentModel::LocalHadoop()};

  // --- Heat map: 8x8 grid cells, whole month, % of samples occupied ---
  constexpr int kGrid = 8;
  std::printf("Occupancy heat map (%dx%d cells, whole month):\n", kGrid,
              kGrid);
  double routed_cost_ms = 0, pinned_cost_ms = 0;
  for (int gy = kGrid - 1; gy >= 0; --gy) {
    for (int gx = 0; gx < kGrid; ++gx) {
      const STRange cell = STRange::FromBounds(
          universe.x_min() + universe.Width() * gx / kGrid,
          universe.x_min() + universe.Width() * (gx + 1) / kGrid,
          universe.y_min() + universe.Height() * gy / kGrid,
          universe.y_min() + universe.Height() * (gy + 1) / kGrid,
          universe.t_min(), universe.t_max());
      const auto routed = store.Execute(cell, model, &pool);
      routed_cost_ms += routed.estimated_cost_ms;
      pinned_cost_ms += model.QueryCostMs(store.replica(1).sketch(), cell);
      std::size_t occupied = 0;
      for (const Record& r : routed.result.records)
        if (r.status == 1) ++occupied;
      const double frac = routed.result.records.empty()
                              ? 0.0
                              : double(occupied) /
                                    double(routed.result.records.size());
      std::printf("%c", routed.result.records.empty() ? ' '
                        : frac > 0.6                  ? '#'
                        : frac > 0.45                 ? '+'
                        : frac > 0.3                  ? '.'
                                                      : '-');
    }
    std::printf("\n");
  }

  // --- Utilization series: average occupied fraction per day ---
  std::printf("\nDaily fleet utilization:\n");
  const int days =
      static_cast<int>(universe.Duration() / 86400.0 + 0.5);
  for (int day = 0; day < days; ++day) {
    const STRange slab = STRange::FromBounds(
        universe.x_min(), universe.x_max(), universe.y_min(),
        universe.y_max(), universe.t_min() + 86400.0 * day,
        universe.t_min() + 86400.0 * (day + 1));
    const auto routed = store.Execute(slab, model, &pool);
    routed_cost_ms += routed.estimated_cost_ms;
    pinned_cost_ms += model.QueryCostMs(store.replica(1).sketch(), slab);
    std::size_t occupied = 0;
    for (const Record& r : routed.result.records)
      if (r.status == 1) ++occupied;
    const double frac =
        routed.result.records.empty()
            ? 0.0
            : double(occupied) / double(routed.result.records.size());
    std::printf("  day %02d  %5.1f%%  |", day + 1, frac * 100);
    for (int bar = 0; bar < static_cast<int>(frac * 40); ++bar)
      std::printf("=");
    std::printf("\n");
  }

  std::printf("\nEstimated workload cost, diverse-replica routing: %.1f s\n",
              routed_cost_ms / 1000.0);
  std::printf("Estimated workload cost, single pinned replica:   %.1f s\n",
              pinned_cost_ms / 1000.0);
  std::printf("Routing speedup: %.2fx\n", pinned_cost_ms / routed_cost_ms);

  // --- Observability recap, straight from the metrics registry ---
  const obs::MetricsSnapshot snap = obs::MetricsRegistry::global().Snapshot();
  std::printf("\nFrom the metrics registry:\n");
  for (std::size_t j = 0; j < store.NumReplicas(); ++j) {
    const std::string name = store.replica(j).config().Name();
    const obs::CounterSnapshot* routed =
        snap.FindCounter("query.routed_total", {{"replica", name}});
    std::printf("  routed to %-20s %llu queries\n", name.c_str(),
                static_cast<unsigned long long>(routed ? routed->value : 0));
  }
  if (const auto* measured = snap.FindHistogram("query.measured_ms"))
    std::printf("  measured latency: p50 %.3f ms, p90 %.3f ms, p99 %.3f "
                "ms (%llu queries)\n",
                measured->Percentile(50), measured->Percentile(90),
                measured->Percentile(99),
                static_cast<unsigned long long>(measured->count));
  if (const auto* scanned = snap.FindCounter("query.records_scanned_total"))
    if (const auto* returned =
            snap.FindCounter("query.records_returned_total"))
      std::printf("  scan selectivity: %llu scanned -> %llu returned\n",
                  static_cast<unsigned long long>(scanned->value),
                  static_cast<unsigned long long>(returned->value));
  for (const obs::CounterSnapshot& c : snap.counters)
    if (c.name == "codec.decode_bytes_in_total" && c.value > 0)
      std::printf("  codec %-8s decoded %.2f MiB compressed\n",
                  c.labels[0].second.c_str(), double(c.value) / (1 << 20));
  return 0;
}
