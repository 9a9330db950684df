#include "simenv/replica_sketch.h"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <vector>

#include "gen/taxi_generator.h"
#include "util/error.h"

namespace blot {
namespace {

struct Fixture {
  Dataset dataset;
  STRange universe;
  ReplicaConfig config{{.spatial_partitions = 16, .temporal_partitions = 4},
                       EncodingScheme::FromName("ROW-GZIP")};

  Fixture() {
    TaxiFleetConfig fleet;
    fleet.num_taxis = 10;
    fleet.samples_per_taxi = 400;
    dataset = GenerateTaxiFleet(fleet);
    universe = fleet.Universe();
  }
};

// The replica's own sketch agrees with its stored partitions.
void ExpectSketchMatchesPartitions(const Replica& replica) {
  const ReplicaSketch& sketch = replica.sketch();
  EXPECT_EQ(sketch.index.NumPartitions(), replica.NumPartitions());
  ASSERT_EQ(sketch.counts.size(), replica.NumPartitions());
  std::uint64_t records = 0, bytes = 0;
  for (std::size_t p = 0; p < replica.NumPartitions(); ++p) {
    EXPECT_EQ(sketch.counts[p], replica.partition(p).num_records) << p;
    records += replica.partition(p).num_records;
    bytes += replica.partition(p).data.size();
  }
  EXPECT_EQ(sketch.total_records, records);
  EXPECT_EQ(sketch.storage_bytes, bytes);
}

TEST(ReplicaSketchTest, ReplicaSketchIsExactAfterBuildPartsAndRestore) {
  const Fixture f;
  Replica built = Replica::Build(f.dataset, f.config, f.universe);
  EXPECT_EQ(built.sketch().config, f.config);
  EXPECT_EQ(built.sketch().universe, f.universe);
  EXPECT_EQ(built.sketch().total_records, f.dataset.size());
  ExpectSketchMatchesPartitions(built);

  // FromParts, the load path.
  std::vector<STRange> ranges;
  std::vector<StoredPartition> parts;
  for (std::size_t p = 0; p < built.NumPartitions(); ++p) {
    ranges.push_back(built.index().Range(p));
    parts.push_back(built.partition(p));
  }
  const Replica loaded =
      Replica::FromParts(f.config, f.universe, ranges, std::move(parts));
  EXPECT_EQ(loaded.sketch().total_records, f.dataset.size());
  for (std::size_t p = 0; p < loaded.NumPartitions(); ++p)
    EXPECT_EQ(loaded.index().Range(p), ranges[p]);
  ExpectSketchMatchesPartitions(loaded);

  // RestorePartition with fewer records moves the count, total and size.
  std::size_t p = 0;
  while (built.partition(p).num_records < 2) ++p;
  std::vector<Record> fewer = built.DecodePartitionRecords(p);
  const std::uint64_t dropped = fewer.size() - fewer.size() / 2;
  fewer.resize(fewer.size() / 2);
  built.RestorePartition(p, fewer);
  EXPECT_EQ(built.sketch().counts[p], fewer.size());
  EXPECT_EQ(built.sketch().total_records, f.dataset.size() - dropped);
  ExpectSketchMatchesPartitions(built);
}

TEST(ReplicaSketchTest, FromSampleScalesCounts) {
  const Fixture f;
  Rng rng(3);
  const Dataset sample = f.dataset.Sample(f.dataset.size() / 4, rng);
  const std::uint64_t total = 100 * f.dataset.size();
  const double ratio = 0.3;
  const ReplicaSketch sketch =
      SketchFromSample(sample, f.config, f.universe, total, ratio);
  EXPECT_EQ(sketch.total_records, total);
  EXPECT_EQ(sketch.index.NumPartitions(),
            f.config.partitioning.TotalPartitions());
  const std::uint64_t sum =
      std::accumulate(sketch.counts.begin(), sketch.counts.end(),
                      std::uint64_t{0});
  // Scaled counts sum to ~total (rounding per partition).
  EXPECT_NEAR(static_cast<double>(sum), static_cast<double>(total),
              static_cast<double>(sketch.counts.size()));
  EXPECT_EQ(sketch.storage_bytes,
            static_cast<std::uint64_t>(std::llround(
                static_cast<double>(total) * kRecordRowBytes * ratio)));
}

TEST(ReplicaSketchTest, SampledSketchApproximatesFullSketch) {
  // The paper's premise: a small sample suffices to sketch the replica.
  // Compare per-partition distributions between a sketch from a 25%
  // sample and the exact replica.
  const Fixture f;
  const Replica replica = Replica::Build(f.dataset, f.config, f.universe);
  const ReplicaSketch& exact = replica.sketch();
  Rng rng(7);
  const Dataset sample = f.dataset.Sample(f.dataset.size() / 4, rng);
  const ReplicaSketch approx = SketchFromSample(
      sample, f.config, f.universe, f.dataset.size(), 0.5);
  ASSERT_EQ(approx.counts.size(), exact.counts.size());
  // Mean absolute relative deviation of per-partition counts stays small.
  double total_deviation = 0;
  const double expected_per_partition =
      static_cast<double>(f.dataset.size()) /
      static_cast<double>(exact.counts.size());
  for (std::size_t p = 0; p < exact.counts.size(); ++p)
    total_deviation += std::abs(static_cast<double>(approx.counts[p]) -
                                static_cast<double>(exact.counts[p]));
  const double mean_deviation =
      total_deviation / static_cast<double>(exact.counts.size());
  EXPECT_LT(mean_deviation / expected_per_partition, 0.35);
}

TEST(ReplicaSketchTest, MeanRecordsPerPartition) {
  const Fixture f;
  const Replica replica = Replica::Build(f.dataset, f.config, f.universe);
  const ReplicaSketch& sketch = replica.sketch();
  EXPECT_NEAR(sketch.MeanRecordsPerPartition(),
              static_cast<double>(f.dataset.size()) /
                  static_cast<double>(f.config.partitioning.TotalPartitions()),
              1e-9);
}

TEST(ReplicaSketchTest, FromSampleValidatesInput) {
  const Fixture f;
  EXPECT_THROW(SketchFromSample(Dataset(), f.config, f.universe,
                                         1000, 0.5),
               InvalidArgument);
  EXPECT_THROW(SketchFromSample(f.dataset, f.config, f.universe,
                                         1000, 0.0),
               InvalidArgument);
}

}  // namespace
}  // namespace blot
