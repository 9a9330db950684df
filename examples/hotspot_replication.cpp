// Partial (hotspot) replication — the paper's future-work extension
// (Section VII) made concrete.
//
// Taxi GPS data is heavily concentrated in hotspot districts, and so are
// the queries. This example finds the densest spatial box holding ~60% of
// the records, materializes a finely-partitioned partial replica of just
// that box next to one full replica, and compares three deployments under
// the same storage accounting:
//
//   A. one full replica (baseline);
//   B. two full replicas (conventional diverse replication);
//   C. one full replica + hotspot partial (partial replication).
//
// C approaches B's query performance on the hotspot-heavy workload at a
// fraction of B's extra storage.
//
// Run: ./hotspot_replication
#include <cstdio>

#include "core/partial.h"
#include "core/store.h"
#include "gen/taxi_generator.h"

using namespace blot;

int main() {
  TaxiFleetConfig fleet;
  fleet.num_taxis = 80;
  fleet.samples_per_taxi = 1500;
  Dataset dataset = GenerateTaxiFleet(fleet);
  const STRange universe = fleet.Universe();
  const STRange hotspot = DensestSpatialBox(dataset, universe, 0.6);
  std::printf("Hotspot: %.0f%% of records in %.0f%% of the area\n",
              100.0 * double(dataset.FilterByRange(hotspot).size()) /
                  double(dataset.size()),
              100.0 * hotspot.Width() * hotspot.Height() /
                  (universe.Width() * universe.Height()));

  ThreadPool pool(4);
  BlotStore store(std::move(dataset), universe);
  const ReplicaConfig coarse_full{
      {.spatial_partitions = 4, .temporal_partitions = 4},
      EncodingScheme::FromName("ROW-SNAPPY")};
  const ReplicaConfig fine_full{
      {.spatial_partitions = 64, .temporal_partitions = 16},
      EncodingScheme::FromName("COL-GZIP")};
  const ReplicaConfig fine_partial{
      {.spatial_partitions = 64, .temporal_partitions = 16},
      EncodingScheme::FromName("COL-GZIP")};

  const std::size_t full0 = store.AddReplica(coarse_full, &pool);
  const std::size_t full1 = store.AddReplica(fine_full, &pool);
  const std::size_t partial =
      store.AddPartialReplica(fine_partial, hotspot, &pool);

  const double full0_gb = double(store.replica(full0).StorageBytes()) / 1e9;
  const double full1_gb = double(store.replica(full1).StorageBytes()) / 1e9;
  const double partial_gb =
      double(store.replica(partial).StorageBytes()) / 1e9;
  std::printf("Storage: full %s %.3f GB; full %s %.3f GB; partial %s "
              "%.3f GB (%.0f%% of its full version)\n\n",
              coarse_full.Name().c_str(), full0_gb, fine_full.Name().c_str(),
              full1_gb, fine_partial.Name().c_str(), partial_gb,
              100.0 * partial_gb / full1_gb);

  // Hotspot-heavy workload: frequent small queries inside the hotspot,
  // occasional city-wide sweeps.
  const CostModel model{EnvironmentModel::LocalHadoop()};
  Rng rng(9);
  struct Deployment {
    const char* name;
    std::vector<std::size_t> replicas;
  };
  const Deployment deployments[] = {
      {"A: coarse full only", {full0}},
      {"B: coarse + fine full", {full0, full1}},
      {"C: coarse full + hotspot partial", {full0, partial}},
  };

  std::printf("%-36s %14s %12s\n", "deployment", "est. cost (s)",
              "storage(GB)");
  for (const Deployment& d : deployments) {
    double total_ms = 0;
    Rng query_rng(1234);  // same query stream for every deployment
    for (int i = 0; i < 60; ++i) {
      STRange query;
      if (i % 6 != 0) {
        query = SampleQueryInstance(
            {{hotspot.Width() * 0.08, hotspot.Height() * 0.08,
              universe.Duration() * 0.02}},
            hotspot, query_rng);
      } else {
        query = SampleQueryInstance(
            {{universe.Width() * 0.8, universe.Height() * 0.8,
              universe.Duration() * 0.5}},
            universe, query_rng);
      }
      // Route within the deployment's replicas only.
      double best = 1e300;
      for (std::size_t r : d.replicas) {
        if (!store.IsFullReplica(r) &&
            !store.replica(r).universe().Contains(query))
          continue;
        best = std::min(best,
                        model.QueryCostMs(store.replica(r).sketch(), query));
      }
      total_ms += best;
    }
    double storage_gb = 0;
    for (std::size_t r : d.replicas)
      storage_gb += double(store.replica(r).StorageBytes()) / 1e9;
    std::printf("%-36s %14.1f %12.3f\n", d.name, total_ms / 1000.0,
                storage_gb);
  }

  std::printf("\nAnd the partial replica really answers hotspot queries:\n");
  const STRange probe = SampleQueryInstance(
      {{hotspot.Width() * 0.08, hotspot.Height() * 0.08,
        universe.Duration() * 0.02}},
      hotspot, rng);
  const auto routed = store.Execute(probe, model, &pool);
  std::printf("  probe query -> replica %zu (%s), %zu records\n",
              routed.replica_index,
              store.replica(routed.replica_index).config().Name().c_str(),
              routed.result.records.size());
  return 0;
}
