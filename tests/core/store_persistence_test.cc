#include <gtest/gtest.h>

#include <filesystem>

#include "core/partial.h"
#include "core/store.h"
#include "gen/taxi_generator.h"
#include "util/error.h"

namespace blot {
namespace {

namespace fs = std::filesystem;

class StorePersistenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("blot_store_persist_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    fs::remove_all(dir_);
    TaxiFleetConfig config;
    config.num_taxis = 8;
    config.samples_per_taxi = 250;
    dataset_ = GenerateTaxiFleet(config);
    universe_ = config.Universe();
  }

  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
  Dataset dataset_;
  STRange universe_;
};

TEST_F(StorePersistenceTest, SaveLoadRoundTripsReplicasAndDataset) {
  BlotStore store(dataset_, universe_);
  store.AddReplica({{.spatial_partitions = 4, .temporal_partitions = 4},
                    EncodingScheme::FromName("ROW-SNAPPY")});
  store.AddReplica({{.spatial_partitions = 16, .temporal_partitions = 8},
                    EncodingScheme::FromName("COL-LZMA")});
  store.Save(dir_);

  BlotStore loaded = BlotStore::Load(dir_);
  EXPECT_EQ(loaded.dataset(), store.dataset());
  EXPECT_EQ(loaded.universe(), store.universe());
  ASSERT_EQ(loaded.NumReplicas(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(loaded.replica(i).config(), store.replica(i).config());
    EXPECT_EQ(loaded.replica(i).StorageBytes(),
              store.replica(i).StorageBytes());
  }

  // The loaded store answers queries identically.
  const CostModel model{EnvironmentModel::LocalHadoop()};
  const STRange query = STRange::FromCentroid(
      {universe_.Width() / 4, universe_.Height() / 4,
       universe_.Duration() / 4},
      universe_.Centroid());
  EXPECT_EQ(loaded.Execute(query, model).result.records.size(),
            store.Execute(query, model).result.records.size());
}

TEST_F(StorePersistenceTest, LoadedStoreLearnsLatency) {
  BlotStore store(dataset_, universe_);
  store.AddReplica({{.spatial_partitions = 4, .temporal_partitions = 4},
                    EncodingScheme::FromName("ROW-SNAPPY")});
  store.AddReplica({{.spatial_partitions = 16, .temporal_partitions = 8},
                    EncodingScheme::FromName("COL-LZMA")});
  store.Save(dir_);

  BlotStore loaded = BlotStore::Load(dir_);
  // Every loaded replica is registered with the latency map, so routing
  // learns from the loaded store's executions like from a built one.
  ASSERT_EQ(loaded.latency().NumReplicas(), loaded.NumReplicas());
  const CostModel model{EnvironmentModel::LocalHadoop()};
  const STRange query = STRange::FromCentroid(
      {universe_.Width() / 4, universe_.Height() / 4,
       universe_.Duration() / 4},
      universe_.Centroid());
  for (int i = 0; i < 10; ++i) loaded.Execute(query, model);
  std::uint64_t observations = 0;
  for (std::size_t r = 0; r < loaded.NumReplicas(); ++r)
    observations += loaded.latency().Get(r).observations;
  EXPECT_EQ(observations, 10u);
}

TEST_F(StorePersistenceTest, PartialReplicasSurviveRoundTrip) {
  BlotStore store(dataset_, universe_);
  store.AddReplica({{.spatial_partitions = 4, .temporal_partitions = 4},
                    EncodingScheme::FromName("ROW-GZIP")});
  const STRange hotspot = DensestSpatialBox(dataset_, universe_, 0.5);
  store.AddPartialReplica(
      {{.spatial_partitions = 8, .temporal_partitions = 4},
       EncodingScheme::FromName("COL-GZIP")},
      hotspot);
  store.Save(dir_);

  BlotStore loaded = BlotStore::Load(dir_);
  ASSERT_EQ(loaded.NumReplicas(), 2u);
  EXPECT_TRUE(loaded.IsFullReplica(0));
  EXPECT_FALSE(loaded.IsFullReplica(1));
  EXPECT_EQ(loaded.replica(1).universe(), hotspot);
  EXPECT_EQ(loaded.replica(1).NumRecords(),
            dataset_.FilterByRange(hotspot).size());
}

TEST_F(StorePersistenceTest, SaveOverwritesPreviousStore) {
  BlotStore store(dataset_, universe_);
  store.AddReplica({{.spatial_partitions = 4, .temporal_partitions = 4},
                    EncodingScheme::FromName("ROW-PLAIN")});
  store.Save(dir_);
  store.AddReplica({{.spatial_partitions = 8, .temporal_partitions = 4},
                    EncodingScheme::FromName("ROW-GZIP")});
  store.Save(dir_);
  EXPECT_EQ(BlotStore::Load(dir_).NumReplicas(), 2u);
}

// A full device fails a write only when close() flushes it. Save must
// report that instead of renaming the torn file into place. (Never Load
// such a directory: /dev/full reads zeros forever.)
TEST_F(StorePersistenceTest, SaveThrowsWhenTheDeviceIsFull) {
  if (!fs::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  BlotStore store(dataset_, universe_);
  store.AddReplica({{.spatial_partitions = 4, .temporal_partitions = 4},
                    EncodingScheme::FromName("ROW-PLAIN")});
  // The store manifest.
  fs::create_directories(dir_);
  fs::create_symlink("/dev/full", dir_ / "store.blot.tmp");
  EXPECT_THROW(store.Save(dir_), Error);
  fs::remove_all(dir_);
  // A replica's manifest.
  fs::create_directories(dir_ / "replica_000");
  fs::create_symlink("/dev/full", dir_ / "replica_000" / "manifest.blot.tmp");
  EXPECT_THROW(store.Save(dir_), Error);
}

TEST_F(StorePersistenceTest, MissingStoreThrows) {
  EXPECT_THROW(BlotStore::Load(dir_), InvalidArgument);
}

TEST_F(StorePersistenceTest, MissingReplicaDirectoryDetected) {
  BlotStore store(dataset_, universe_);
  store.AddReplica({{.spatial_partitions = 4, .temporal_partitions = 4},
                    EncodingScheme::FromName("ROW-PLAIN")});
  store.Save(dir_);
  fs::remove_all(dir_ / "replica_000");
  EXPECT_THROW(BlotStore::Load(dir_), InvalidArgument);
}

}  // namespace
}  // namespace blot
