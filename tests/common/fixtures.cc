#include "common/fixtures.h"

#include <algorithm>
#include <utility>

#include "blot/replica.h"
#include "core/partition_cache.h"
#include "core/workload.h"
#include "gen/taxi_generator.h"
#include "testing/oracle.h"
#include "util/rng.h"

namespace blot::test {

std::vector<Record> Sorted(std::vector<Record> records) {
  return testing::Canonical(std::move(records));
}

TaxiFixture::TaxiFixture(std::size_t taxis, std::size_t samples) {
  TaxiFleetConfig config;
  config.num_taxis = taxis;
  config.samples_per_taxi = samples;
  dataset = GenerateTaxiFleet(config);
  universe = config.Universe();
}

STRange CentroidQuery(const STRange& universe, double fraction) {
  return STRange::FromCentroid(
      {universe.Width() * fraction, universe.Height() * fraction,
       universe.Duration() * fraction},
      universe.Centroid());
}

BlotStore MakeStandardStore(const Dataset& dataset, const STRange& universe,
                            std::size_t replicas) {
  BlotStore store(Dataset(dataset), universe);
  store.AddReplica({{.spatial_partitions = 4, .temporal_partitions = 4},
                    EncodingScheme::FromName("ROW-SNAPPY")});
  if (replicas >= 2)
    store.AddReplica({{.spatial_partitions = 16, .temporal_partitions = 8},
                      EncodingScheme::FromName("COL-GZIP")});
  if (replicas >= 3)
    store.AddReplica({{.spatial_partitions = 8, .temporal_partitions = 4},
                      EncodingScheme::FromName("ROW-GZIP")});
  return store;
}

std::vector<std::size_t> CorruptInvolved(BlotStore& store,
                                         std::size_t replica,
                                         const STRange& query) {
  std::vector<std::size_t> corrupted;
  for (const std::size_t p :
       store.replica(replica).index().InvolvedPartitions(query)) {
    StoredPartition& unit = store.mutable_replica(replica).MutablePartition(p);
    if (unit.data.empty()) continue;
    unit.data[unit.data.size() / 2] ^= 0xFF;
    corrupted.push_back(p);
  }
  return corrupted;
}

std::vector<std::size_t> FullRanking(const BlotStore& store,
                                     const CostModel& model,
                                     const STRange& query) {
  std::vector<std::pair<double, std::size_t>> scored;
  for (std::size_t r = 0; r < store.NumReplicas(); ++r) {
    if (!store.IsFullReplica(r) &&
        !store.replica(r).universe().Contains(query))
      continue;
    const ReplicaSketch& sketch = store.replica(r).sketch();
    const std::vector<std::size_t> involved =
        sketch.index.InvolvedPartitions(query);
    if (store.health().AnyQuarantined(r, involved)) continue;
    scored.push_back({model.QueryCostMs(sketch, query) *
                          store.latency().BrownoutPenalty(r),
                      r});
  }
  std::sort(scored.begin(), scored.end());
  std::vector<std::size_t> ranking;
  for (const auto& [score, r] : scored) ranking.push_back(r);
  return ranking;
}

RankedQuery RunnersUpAgainstIndexOrder(const BlotStore& store,
                                       const CostModel& model) {
  const STRange& u = store.universe();
  Rng rng(17);
  for (int q = 0; q < 200; ++q) {
    const GroupedQuery shape{{u.Width() * rng.NextDouble(0.05, 0.9),
                              u.Height() * rng.NextDouble(0.05, 0.9),
                              u.Duration() * rng.NextDouble(0.05, 0.9)}};
    const STRange query = SampleQueryInstance(shape, u, rng);
    std::vector<std::size_t> ranking = FullRanking(store, model, query);
    if (ranking.size() == 3 && ranking[1] > ranking[2])
      return {query, std::move(ranking)};
  }
  return {};
}

GlobalCacheGuard::GlobalCacheGuard(std::uint64_t budget) {
  PartitionCache::Global().Configure(budget);
  PartitionCache::Global().ResetStats();
}

GlobalCacheGuard::~GlobalCacheGuard() {
  PartitionCache::Global().Configure(0);
  PartitionCache::Global().ResetStats();
}

}  // namespace blot::test
