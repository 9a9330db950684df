#include "core/store.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/fixtures.h"
#include "util/error.h"

namespace blot {
namespace {

using test::Sorted;

struct Fixture : test::TaxiFixture {
  CostModel model{EnvironmentModel::AmazonS3Emr()};
};

TEST(BlotStoreTest, RejectsEmptyDataset) {
  EXPECT_THROW({ BlotStore store{Dataset{}}; }, InvalidArgument);
}

TEST(BlotStoreTest, AddReplicaRejectsDuplicates) {
  const Fixture f;
  BlotStore store(f.dataset, f.universe);
  const ReplicaConfig config{
      {.spatial_partitions = 4, .temporal_partitions = 4},
      EncodingScheme::FromName("ROW-GZIP")};
  EXPECT_EQ(store.AddReplica(config), 0u);
  EXPECT_THROW(store.AddReplica(config), InvalidArgument);
  EXPECT_EQ(store.NumReplicas(), 1u);
}

TEST(BlotStoreTest, RoutingPicksCheapestReplicaPerQuery) {
  const Fixture f;
  BlotStore store(f.dataset, f.universe);
  const std::size_t coarse = store.AddReplica(
      {{.spatial_partitions = 2, .temporal_partitions = 2},
       EncodingScheme::FromName("ROW-PLAIN")});
  const std::size_t fine = store.AddReplica(
      {{.spatial_partitions = 64, .temporal_partitions = 16},
       EncodingScheme::FromName("ROW-PLAIN")});

  // A tiny query should route to the fine replica (pruning), a
  // whole-universe query to the coarse one (ExtraTime per partition).
  const STRange tiny = STRange::FromCentroid(
      {f.universe.Width() * 0.01, f.universe.Height() * 0.01,
       f.universe.Duration() * 0.01},
      f.universe.Centroid());
  EXPECT_EQ(store.RouteQuery(tiny, f.model), fine);
  EXPECT_EQ(store.RouteQuery(f.universe, f.model), coarse);
}

TEST(BlotStoreTest, ExecuteReturnsGroundTruthRecords) {
  const Fixture f;
  BlotStore store(f.dataset, f.universe);
  store.AddReplica({{.spatial_partitions = 4, .temporal_partitions = 4},
                    EncodingScheme::FromName("COL-GZIP")});
  store.AddReplica({{.spatial_partitions = 16, .temporal_partitions = 8},
                    EncodingScheme::FromName("ROW-SNAPPY")});
  Rng rng(3);
  for (int trial = 0; trial < 10; ++trial) {
    const STRange query = STRange::FromCentroid(
        {f.universe.Width() * rng.NextDouble(0.05, 0.5),
         f.universe.Height() * rng.NextDouble(0.05, 0.5),
         f.universe.Duration() * rng.NextDouble(0.05, 0.5)},
        {rng.NextDouble(f.universe.x_min(), f.universe.x_max()),
         rng.NextDouble(f.universe.y_min(), f.universe.y_max()),
         rng.NextDouble(f.universe.t_min(), f.universe.t_max())});
    const BlotStore::RoutedResult routed = store.Execute(query, f.model);
    EXPECT_EQ(Sorted(routed.result.records),
              Sorted(f.dataset.FilterByRange(query)));
    EXPECT_LT(routed.replica_index, store.NumReplicas());
    EXPECT_GT(routed.estimated_cost_ms, 0.0);
  }
}

TEST(BlotStoreTest, RoutingPricesARestoredPartitionAtItsNewCount) {
  // Routing reads each replica's own sketch, so a partition restored
  // with fewer records is priced at its new count straight away.
  const Fixture f;
  BlotStore store(f.dataset, f.universe);
  const std::size_t r =
      store.AddReplica({{.spatial_partitions = 4, .temporal_partitions = 4},
                        EncodingScheme::FromName("ROW-GZIP")});
  std::size_t p = 0;
  while (store.replica(r).partition(p).num_records < 2) ++p;
  std::vector<Record> fewer = store.replica(r).DecodePartitionRecords(p);
  fewer.resize(fewer.size() / 2);
  const double before =
      store.RouteQueryDetailed(f.universe, f.model).estimated_cost_ms;

  store.mutable_replica(r).RestorePartition(p, fewer);
  const BlotStore::RoutingDecision after =
      store.RouteQueryDetailed(f.universe, f.model);
  EXPECT_EQ(after.replica_index, r);
  EXPECT_EQ(after.estimated_cost_ms,
            f.model.QueryCostMs(store.replica(r).sketch(), f.universe));
  EXPECT_LT(after.estimated_cost_ms, before);
}

TEST(BlotStoreTest, TotalStorageSumsReplicas) {
  const Fixture f;
  BlotStore store(f.dataset, f.universe);
  store.AddReplica({{.spatial_partitions = 4, .temporal_partitions = 4},
                    EncodingScheme::FromName("ROW-PLAIN")});
  store.AddReplica({{.spatial_partitions = 8, .temporal_partitions = 4},
                    EncodingScheme::FromName("COL-LZMA")});
  EXPECT_EQ(store.TotalStorageBytes(),
            store.replica(0).StorageBytes() + store.replica(1).StorageBytes());
}

TEST(BlotStoreTest, RecoveryRestoresCorruptedReplica) {
  const Fixture f;
  BlotStore store(f.dataset, f.universe);
  const std::size_t a = store.AddReplica(
      {{.spatial_partitions = 4, .temporal_partitions = 4},
       EncodingScheme::FromName("ROW-GZIP")},
      nullptr);
  const std::size_t b = store.AddReplica(
      {{.spatial_partitions = 16, .temporal_partitions = 8},
       EncodingScheme::FromName("COL-LZMA")},
      nullptr);
  // Recover b from a and verify the logical view is intact.
  const std::uint64_t restored = store.RecoverReplicaFrom(b, a);
  EXPECT_EQ(restored, f.dataset.size());
  EXPECT_EQ(Sorted(store.replica(b).Reconstruct().records()),
            Sorted(f.dataset.records()));
  EXPECT_THROW(store.RecoverReplicaFrom(a, a), InvalidArgument);
  EXPECT_THROW(store.RecoverReplicaFrom(5, a), InvalidArgument);
}

TEST(BlotStoreTest, BatchExecutionMatchesSingleQueryExecution) {
  const Fixture f;
  BlotStore store(f.dataset, f.universe);
  store.AddReplica({{.spatial_partitions = 2, .temporal_partitions = 2},
                    EncodingScheme::FromName("ROW-PLAIN")});
  store.AddReplica({{.spatial_partitions = 32, .temporal_partitions = 8},
                    EncodingScheme::FromName("ROW-PLAIN")});
  // A mixed batch: small queries (route fine) and the whole universe
  // (routes coarse).
  std::vector<STRange> queries;
  Rng rng(9);
  for (int i = 0; i < 6; ++i)
    queries.push_back(SampleQueryInstance(
        {{f.universe.Width() * 0.05, f.universe.Height() * 0.05,
          f.universe.Duration() * 0.05}},
        f.universe, rng));
  queries.push_back(f.universe);

  const auto batch = store.ExecuteBatch(queries, f.model);
  ASSERT_EQ(batch.per_query.size(), queries.size());
  for (std::size_t q = 0; q < queries.size(); ++q) {
    const auto single = store.Execute(queries[q], f.model);
    EXPECT_EQ(batch.replica_of[q], single.replica_index) << "query " << q;
    EXPECT_EQ(Sorted(batch.per_query[q]), Sorted(single.result.records))
        << "query " << q;
  }
  EXPECT_LE(batch.stats.partitions_scanned, batch.naive_partition_scans);
}

TEST(BlotStoreTest, ParallelPathsAgreeWithSerial) {
  const Fixture f;
  ThreadPool pool(4);
  BlotStore store(f.dataset, f.universe);
  store.AddReplica({{.spatial_partitions = 16, .temporal_partitions = 8},
                    EncodingScheme::FromName("ROW-GZIP")},
                   &pool);
  const STRange query = STRange::FromCentroid(
      {f.universe.Width() / 3, f.universe.Height() / 3,
       f.universe.Duration() / 3},
      f.universe.Centroid());
  const auto serial = store.Execute(query, f.model);
  const auto parallel = store.Execute(query, f.model, &pool);
  EXPECT_EQ(Sorted(serial.result.records), Sorted(parallel.result.records));
}

}  // namespace
}  // namespace blot
