#include "blot/replica.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/fixtures.h"
#include "core/workload.h"
#include "util/error.h"

namespace blot {
namespace {

using test::Sorted;

struct Fixture : test::TaxiFixture {
  Fixture() : TaxiFixture(12, 400) {}
};

class ReplicaTest : public ::testing::TestWithParam<ReplicaConfig> {};

TEST_P(ReplicaTest, QueriesMatchBruteForceGroundTruth) {
  const Fixture f;
  const Replica replica =
      Replica::Build(f.dataset, GetParam(), f.universe);
  Rng rng(11);
  for (int trial = 0; trial < 20; ++trial) {
    const GroupedQuery q{
        {f.universe.Width() * rng.NextDouble(0.05, 0.6),
         f.universe.Height() * rng.NextDouble(0.05, 0.6),
         f.universe.Duration() * rng.NextDouble(0.05, 0.6)}};
    const STRange query = SampleQueryInstance(q, f.universe, rng);
    const QueryResult result = replica.Execute(query);
    EXPECT_EQ(Sorted(result.records),
              Sorted(f.dataset.FilterByRange(query)))
        << "trial " << trial;
    EXPECT_GE(result.stats.records_scanned, result.records.size());
  }
}

TEST_P(ReplicaTest, ReconstructRecoversLogicalView) {
  const Fixture f;
  const Replica replica =
      Replica::Build(f.dataset, GetParam(), f.universe);
  EXPECT_EQ(Sorted(replica.Reconstruct().records()),
            Sorted(f.dataset.records()));
}

TEST_P(ReplicaTest, StorageAccounting) {
  const Fixture f;
  const Replica replica =
      Replica::Build(f.dataset, GetParam(), f.universe);
  std::uint64_t total = 0;
  for (std::size_t p = 0; p < replica.NumPartitions(); ++p)
    total += replica.partition(p).data.size();
  EXPECT_EQ(replica.StorageBytes(), total);
  EXPECT_GT(replica.StorageBytes(), 0u);
  EXPECT_EQ(replica.NumRecords(), f.dataset.size());
  EXPECT_EQ(replica.NumPartitions(),
            GetParam().partitioning.TotalPartitions());
}

INSTANTIATE_TEST_SUITE_P(
    Configs, ReplicaTest,
    ::testing::Values(
        ReplicaConfig{{.spatial_partitions = 4, .temporal_partitions = 4},
                      EncodingScheme::FromName("ROW-PLAIN")},
        ReplicaConfig{{.spatial_partitions = 16, .temporal_partitions = 8},
                      EncodingScheme::FromName("ROW-GZIP")},
        ReplicaConfig{{.spatial_partitions = 16, .temporal_partitions = 8},
                      EncodingScheme::FromName("COL-LZMA")},
        ReplicaConfig{{.spatial_partitions = 64, .temporal_partitions = 4},
                      EncodingScheme::FromName("COL-SNAPPY")},
        ReplicaConfig{{.spatial_partitions = 8,
                       .temporal_partitions = 8,
                       .method = SpatialMethod::kGrid},
                      EncodingScheme::FromName("ROW-SNAPPY")}),
    [](const ::testing::TestParamInfo<ReplicaConfig>& info) {
      std::string name = info.param.Name();
      for (char& c : name)
        if (c == '-' || c == '/') c = '_';
      return name;
    });

TEST(ReplicaParallelTest, ParallelBuildAndQueryMatchSerial) {
  const Fixture f;
  const ReplicaConfig config{
      {.spatial_partitions = 16, .temporal_partitions = 8},
      EncodingScheme::FromName("COL-GZIP")};
  ThreadPool pool(4);
  const Replica serial = Replica::Build(f.dataset, config, f.universe);
  const Replica parallel =
      Replica::Build(f.dataset, config, f.universe, &pool);
  EXPECT_EQ(serial.StorageBytes(), parallel.StorageBytes());

  Rng rng(13);
  const STRange query = SampleQueryInstance(
      {{f.universe.Width() / 3, f.universe.Height() / 3,
        f.universe.Duration() / 3}},
      f.universe, rng);
  const QueryResult a = serial.Execute(query);
  const QueryResult b = parallel.Execute(query, &pool);
  EXPECT_EQ(Sorted(a.records), Sorted(b.records));
  EXPECT_EQ(a.stats.records_scanned, b.stats.records_scanned);
}

// Pool workers each reuse their own matcher scratch across partitions; the
// stored bytes must not depend on which thread encoded what.
TEST(ReplicaParallelTest, ParallelBuildIsByteIdenticalToSerial) {
  const Fixture f;
  ThreadPool pool(4);
  for (const char* encoding : {"COL-GZIP", "COL-LZMA"}) {
    const ReplicaConfig config{
        {.spatial_partitions = 16, .temporal_partitions = 8},
        EncodingScheme::FromName(encoding)};
    const Replica serial = Replica::Build(f.dataset, config, f.universe);
    const Replica parallel =
        Replica::Build(f.dataset, config, f.universe, &pool);
    ASSERT_EQ(serial.NumPartitions(), parallel.NumPartitions());
    for (std::size_t p = 0; p < serial.NumPartitions(); ++p) {
      EXPECT_EQ(serial.partition(p).data, parallel.partition(p).data)
          << encoding << " partition " << p;
    }
  }
}

TEST(ReplicaIntegrityTest, CorruptPartitionDetectedOnRead) {
  const Fixture f;
  Replica replica = Replica::Build(
      f.dataset,
      {{.spatial_partitions = 4, .temporal_partitions = 4},
       EncodingScheme::FromName("ROW-GZIP")},
      f.universe);
  StoredPartition& victim = replica.MutablePartition(3);
  ASSERT_FALSE(victim.data.empty());
  victim.data[victim.data.size() / 2] ^= 0xFF;
  EXPECT_THROW(replica.DecodePartitionRecords(3), CorruptData);
  // Untouched partitions still decode.
  EXPECT_NO_THROW(replica.DecodePartitionRecords(0));
}

TEST(ReplicaRecoveryTest, DiverseReplicaRecoversAnother) {
  const Fixture f;
  const Replica row_replica = Replica::Build(
      f.dataset,
      {{.spatial_partitions = 16, .temporal_partitions = 4},
       EncodingScheme::FromName("ROW-SNAPPY")},
      f.universe);
  // Rebuild a differently-organized replica purely from the survivor.
  const ReplicaConfig lost_config{
      {.spatial_partitions = 4, .temporal_partitions = 16},
      EncodingScheme::FromName("COL-LZMA")};
  const Replica recovered = RecoverReplica(row_replica, lost_config);
  EXPECT_EQ(recovered.config(), lost_config);
  EXPECT_EQ(Sorted(recovered.Reconstruct().records()),
            Sorted(f.dataset.records()));
  // And the recovered replica answers queries identically.
  Rng rng(17);
  const STRange query = SampleQueryInstance(
      {{f.universe.Width() / 4, f.universe.Height() / 4,
        f.universe.Duration() / 4}},
      f.universe, rng);
  EXPECT_EQ(Sorted(recovered.Execute(query).records),
            Sorted(f.dataset.FilterByRange(query)));
}

TEST(ReplicaEdgeTest, QueryOutsideUniverseReturnsNothing) {
  const Fixture f;
  const Replica replica = Replica::Build(
      f.dataset,
      {{.spatial_partitions = 4, .temporal_partitions = 4},
       EncodingScheme::FromName("ROW-PLAIN")},
      f.universe);
  const QueryResult result =
      replica.Execute(STRange::FromBounds(0, 1, 0, 1, 0, 1));
  EXPECT_TRUE(result.records.empty());
  EXPECT_EQ(result.stats.partitions_scanned, 0u);
}

// Every partition lands in exactly one of the profile's scan-shape
// counts: scanned, pruned by the partition index, or skipped by its zone.
TEST(ReplicaProfileTest, ScanShapeCountsEachPartitionOnce) {
  const Fixture f;
  const Replica replica = Replica::Build(
      f.dataset,
      {{.spatial_partitions = 16, .temporal_partitions = 8},
       EncodingScheme::FromName("COL-SNAPPY")},
      f.universe);
  Rng rng(19);
  std::size_t zone_skipping_queries = 0;
  for (int trial = 0; trial < 200; ++trial) {
    const STRange query = SampleQueryInstance(
        {{f.universe.Width() * 0.05, f.universe.Height() * 0.05,
          f.universe.Duration() * 0.05}},
        f.universe, rng);
    obs::QueryProfile profile;
    replica.Execute(query, nullptr, &profile);
    if (profile.partitions_zone_pruned > 0) ++zone_skipping_queries;
    EXPECT_EQ(profile.partitions_touched + profile.partitions_skipped +
                  profile.partitions_zone_pruned,
              replica.NumPartitions())
        << "trial " << trial;
  }
  ASSERT_GT(zone_skipping_queries, 0u);
}

TEST(ReplicaEdgeTest, ConfigNameIsStable) {
  const ReplicaConfig config{
      {.spatial_partitions = 64, .temporal_partitions = 32},
      EncodingScheme::FromName("COL-GZIP")};
  EXPECT_EQ(config.Name(), "KD64xT32/COL-GZIP");
}

}  // namespace
}  // namespace blot
