#include "core/streaming.h"

#include <gtest/gtest.h>

#include "core/partial.h"
#include "gen/taxi_generator.h"
#include "util/error.h"

namespace blot {
namespace {

struct Fixture {
  Dataset initial;
  Dataset incoming;
  STRange universe;
  CostModel model{EnvironmentModel::LocalHadoop()};

  Fixture() {
    TaxiFleetConfig config;
    config.num_taxis = 10;
    config.samples_per_taxi = 300;
    initial = GenerateTaxiFleet(config);
    universe = config.Universe();
    TaxiFleetConfig later = config;
    later.seed = config.seed + 1;
    later.num_taxis = 4;
    later.samples_per_taxi = 200;
    incoming = GenerateTaxiFleet(later);
  }

  BlotStore MakeStore() const {
    BlotStore store(initial, universe);
    store.AddReplica({{.spatial_partitions = 8, .temporal_partitions = 4},
                      EncodingScheme::FromName("ROW-SNAPPY")});
    store.AddReplica({{.spatial_partitions = 32, .temporal_partitions = 8},
                      EncodingScheme::FromName("COL-GZIP")});
    return store;
  }
};

TEST(StreamingStoreTest, RequiresAReplica) {
  const Fixture f;
  EXPECT_THROW(StreamingStore(BlotStore(f.initial, f.universe)),
               InvalidArgument);
}

TEST(StreamingStoreTest, IngestedRecordsAreQueryableBeforeCompaction) {
  const Fixture f;
  StreamingStore store(f.MakeStore(), /*compact_threshold=*/0);
  for (const Record& r : f.incoming.records()) store.Ingest(r);
  EXPECT_EQ(store.DeltaSize(), f.incoming.size());
  EXPECT_EQ(store.compactions(), 0u);

  Dataset all = f.initial;
  all.Append(f.incoming);
  Rng rng(3);
  for (int trial = 0; trial < 5; ++trial) {
    const STRange query = SampleQueryInstance(
        {{f.universe.Width() * 0.3, f.universe.Height() * 0.3,
          f.universe.Duration() * 0.3}},
        f.universe, rng);
    EXPECT_EQ(store.Execute(query, f.model).result.records.size(),
              all.FilterByRange(query).size())
        << "trial " << trial;
  }
}

TEST(StreamingStoreTest, CompactionFoldsDeltaIntoReplicas) {
  const Fixture f;
  StreamingStore store(f.MakeStore(), /*compact_threshold=*/0);
  for (const Record& r : f.incoming.records()) store.Ingest(r);
  store.Compact();
  EXPECT_EQ(store.DeltaSize(), 0u);
  EXPECT_EQ(store.compactions(), 1u);
  EXPECT_EQ(store.TotalRecords(), f.initial.size() + f.incoming.size());
  EXPECT_EQ(store.store().replica(0).NumRecords(),
            f.initial.size() + f.incoming.size());

  // Queries remain correct after the rebuild.
  Dataset all = f.initial;
  all.Append(f.incoming);
  Rng rng(5);
  const STRange query = SampleQueryInstance(
      {{f.universe.Width() * 0.4, f.universe.Height() * 0.4,
        f.universe.Duration() * 0.4}},
      f.universe, rng);
  EXPECT_EQ(store.Execute(query, f.model).result.records.size(),
            all.FilterByRange(query).size());
}

TEST(StreamingStoreTest, AutoCompactionTriggersAtThreshold) {
  const Fixture f;
  StreamingStore store(f.MakeStore(), /*compact_threshold=*/100);
  std::size_t triggered = 0;
  for (const Record& r : f.incoming.records())
    if (store.Ingest(r)) ++triggered;
  EXPECT_EQ(triggered, f.incoming.size() / 100);
  EXPECT_EQ(store.compactions(), triggered);
  EXPECT_LT(store.DeltaSize(), 100u);
}

TEST(StreamingStoreTest, PartialReplicasSurviveCompaction) {
  const Fixture f;
  BlotStore base = f.MakeStore();
  const STRange hotspot = DensestSpatialBox(f.initial, f.universe, 0.5);
  base.AddPartialReplica(
      {{.spatial_partitions = 8, .temporal_partitions = 4},
       EncodingScheme::FromName("COL-GZIP")},
      hotspot);
  StreamingStore store(std::move(base), 0);
  for (const Record& r : f.incoming.records()) store.Ingest(r);
  store.Compact();
  ASSERT_EQ(store.store().NumReplicas(), 3u);
  EXPECT_FALSE(store.store().IsFullReplica(2));
  Dataset all = f.initial;
  all.Append(f.incoming);
  EXPECT_EQ(store.store().replica(2).NumRecords(),
            all.FilterByRange(hotspot).size());
}

TEST(StreamingStoreTest, BatchQueriesSeeDeltaRecords) {
  const Fixture f;
  StreamingStore store(f.MakeStore(), /*compact_threshold=*/0);
  for (const Record& r : f.incoming.records()) store.Ingest(r);

  Dataset all = f.initial;
  all.Append(f.incoming);
  std::vector<STRange> queries;
  Rng rng(11);
  for (int i = 0; i < 4; ++i)
    queries.push_back(SampleQueryInstance(
        {{f.universe.Width() * 0.3, f.universe.Height() * 0.3,
          f.universe.Duration() * 0.3}},
        f.universe, rng));
  const auto batch = store.ExecuteBatch(queries, f.model);
  ASSERT_EQ(batch.per_query.size(), queries.size());
  for (std::size_t q = 0; q < queries.size(); ++q)
    EXPECT_EQ(batch.per_query[q].size(),
              all.FilterByRange(queries[q]).size())
        << "query " << q;
}

TEST(StreamingStoreTest, RejectsRecordsOutsideUniverse) {
  const Fixture f;
  StreamingStore store(f.MakeStore(), 0);
  Record outside;
  outside.x = 500;
  outside.y = 500;
  outside.time = 0;
  EXPECT_THROW(store.Ingest(outside), InvalidArgument);
}

TEST(StreamingStoreTest, CompactionKeepsFailoverPolicy) {
  const Fixture f;
  BlotStore base = f.MakeStore();
  FailoverPolicy policy;
  policy.max_attempts = 1;
  policy.repair = RepairMode::kNone;
  base.SetFailoverPolicy(policy);
  StreamingStore store(std::move(base), 0);
  store.Ingest(f.incoming.records().front());
  store.Compact();
  ASSERT_EQ(store.compactions(), 1u);
  const FailoverPolicy kept = store.store().failover_policy();
  EXPECT_EQ(kept.max_attempts, 1u);
  EXPECT_EQ(kept.repair, RepairMode::kNone);
}

TEST(StreamingStoreTest, CompactOnEmptyDeltaIsNoop) {
  const Fixture f;
  StreamingStore store(f.MakeStore(), 0);
  store.Compact();
  EXPECT_EQ(store.compactions(), 0u);
  EXPECT_EQ(store.TotalRecords(), f.initial.size());
}

}  // namespace
}  // namespace blot
