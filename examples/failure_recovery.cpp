// Failure recovery with diverse replicas (paper Section II-E): replicas
// with different physical organizations "can recover each other when
// failures occur because they share the same logical view of the data".
//
// This example corrupts a storage unit of one replica, shows the
// corruption being detected by checksums, rebuilds the lost replica from a
// differently-organized survivor, and verifies queries again return the
// exact ground truth. It then corrupts the replica a second time and lets
// the store handle it on its own: the query fails over to the survivor,
// the faulty partitions are quarantined, and the sync repair policy heals
// them before Execute returns (docs/robustness.md).
//
// Run: ./failure_recovery
#include <algorithm>
#include <cstdio>

#include "core/store.h"
#include "core/workload.h"
#include "gen/taxi_generator.h"
#include "util/error.h"

using namespace blot;

int main() {
  TaxiFleetConfig fleet;
  fleet.num_taxis = 30;
  fleet.samples_per_taxi = 600;
  Dataset dataset = GenerateTaxiFleet(fleet);
  const Dataset ground_truth = dataset;
  const STRange universe = fleet.Universe();

  ThreadPool pool(4);
  BlotStore store(std::move(dataset), universe);
  const std::size_t row_replica = store.AddReplica(
      {{.spatial_partitions = 16, .temporal_partitions = 8},
       EncodingScheme::FromName("ROW-SNAPPY")},
      &pool);
  const std::size_t col_replica = store.AddReplica(
      {{.spatial_partitions = 64, .temporal_partitions = 16},
       EncodingScheme::FromName("COL-LZMA")},
      &pool);
  std::printf("Built 2 diverse replicas: %s (%.1f MiB), %s (%.1f MiB)\n",
              store.replica(row_replica).config().Name().c_str(),
              double(store.replica(row_replica).StorageBytes()) / (1 << 20),
              store.replica(col_replica).config().Name().c_str(),
              double(store.replica(col_replica).StorageBytes()) / (1 << 20));

  // Simulate a disk fault: flip bytes in several storage units of the
  // column replica.
  Replica& victim = store.mutable_replica(col_replica);
  for (std::size_t p = 0; p < victim.NumPartitions(); p += 97) {
    StoredPartition& unit = victim.MutablePartition(p);
    if (!unit.data.empty()) unit.data[unit.data.size() / 3] ^= 0x5A;
  }
  std::printf("\nInjected corruption into replica %zu storage units.\n",
              col_replica);
  try {
    victim.DecodePartitionRecords(0);
    std::printf("ERROR: corruption was not detected!\n");
    return 1;
  } catch (const CorruptData& e) {
    std::printf("Checksum caught it on read: %s\n", e.what());
  }

  // Recover the column replica from the (differently organized) row
  // replica and verify the logical view is bit-exact.
  std::printf("\nRecovering replica %zu from replica %zu...\n", col_replica,
              row_replica);
  const std::uint64_t restored =
      store.RecoverReplicaFrom(col_replica, row_replica, &pool);
  std::printf("Restored %llu records.\n",
              static_cast<unsigned long long>(restored));

  auto sorted = [](std::vector<Record> r) {
    std::sort(r.begin(), r.end(), [](const Record& a, const Record& b) {
      return std::tie(a.oid, a.time, a.x, a.y, a.speed, a.heading, a.status,
                      a.passengers, a.fare_cents) <
             std::tie(b.oid, b.time, b.x, b.y, b.speed, b.heading, b.status,
                      b.passengers, b.fare_cents);
    });
    return r;
  };
  const bool logical_match =
      sorted(store.replica(col_replica).Reconstruct().records()) ==
      sorted(ground_truth.records());
  std::printf("Logical view matches ground truth: %s\n",
              logical_match ? "YES" : "NO");

  // And the recovered replica serves queries correctly again.
  const CostModel model{EnvironmentModel::LocalHadoop()};
  Rng rng(7);
  const STRange query = SampleQueryInstance(
      {{universe.Width() * 0.2, universe.Height() * 0.2,
        universe.Duration() * 0.2}},
      universe, rng);
  const auto routed = store.Execute(query, model, &pool);
  const auto expected = ground_truth.FilterByRange(query);
  std::printf("Post-recovery query: %zu records (expected %zu) -> %s\n",
              routed.result.records.size(), expected.size(),
              routed.result.records.size() == expected.size() ? "OK"
                                                              : "MISMATCH");

  // Act two: break the row replica's copy of everything the query needs
  // and let the store fend for itself. Execute fails over to the column
  // replica, quarantines the faulty units, and (sync repair policy, the
  // default) re-encodes them from the survivor before returning.
  std::printf("\nCorrupting replica %zu's copies of the query's "
              "partitions...\n", row_replica);
  for (const std::size_t p :
       store.replica(row_replica).index().InvolvedPartitions(query)) {
    StoredPartition& unit =
        store.mutable_replica(row_replica).MutablePartition(p);
    if (!unit.data.empty()) unit.data[unit.data.size() / 2] ^= 0xA5;
  }
  const auto failed_over = store.Execute(query, model, &pool);
  std::printf("Failover query: served by %s after %zu attempt(s)%s, "
              "%zu records -> %s\n",
              failed_over.served_by.c_str(), failed_over.attempts,
              failed_over.degraded ? " (degraded)" : "",
              failed_over.result.records.size(),
              failed_over.result.records.size() == expected.size()
                  ? "OK"
                  : "MISMATCH");
  const HealthMap::Counts counts = store.health().CountsFor(row_replica);
  std::printf("Self-healed: %zu partitions quarantined after repair "
              "(%zu ok).\n",
              counts.quarantined, counts.ok);

  const bool healed = counts.quarantined == 0 &&
                      failed_over.result.records.size() == expected.size();
  return logical_match && healed ? 0 : 1;
}
