// Property tests on the analytic cost model (Eq. 8-12): monotonicity,
// bounds, and consistency relations that must hold for every partitioning
// and query size — complementing the Monte-Carlo agreement tests.
#include <gtest/gtest.h>

#include "core/cost_model.h"
#include "gen/taxi_generator.h"
#include "simenv/replica_sketch.h"
#include "util/rng.h"

namespace blot {
namespace {

struct Fixture {
  Dataset dataset;
  STRange universe;

  Fixture() {
    TaxiFleetConfig config;
    config.num_taxis = 10;
    config.samples_per_taxi = 200;
    dataset = GenerateTaxiFleet(config);
    universe = config.Universe();
  }

  PartitionIndex Index(std::size_t spatial, std::size_t temporal,
                       SpatialMethod method = SpatialMethod::kKdTree) const {
    PartitionedData pd = PartitionDataset(
        dataset,
        {.spatial_partitions = spatial,
         .temporal_partitions = temporal,
         .method = method},
        universe);
    return PartitionIndex(std::move(pd.ranges));
  }
};

TEST(CostModelPropertyTest, ProbabilityBoundsHoldEverywhere) {
  const Fixture f;
  const PartitionIndex index = f.Index(16, 8);
  Rng rng(1);
  for (int trial = 0; trial < 500; ++trial) {
    const RangeSize size = {
        f.universe.Width() * rng.NextDouble(1e-4, 2.0),
        f.universe.Height() * rng.NextDouble(1e-4, 2.0),
        f.universe.Duration() * rng.NextDouble(1e-4, 2.0)};
    const std::size_t p = rng.NextUint64(index.NumPartitions());
    const double prob =
        IntersectionProbability(index.Range(p), size, f.universe);
    ASSERT_GE(prob, 0.0);
    ASSERT_LE(prob, 1.0);
  }
}

TEST(CostModelPropertyTest, ExpectedNpMonotoneInEveryDimension) {
  const Fixture f;
  const PartitionIndex index = f.Index(16, 8);
  Rng rng(2);
  for (int trial = 0; trial < 100; ++trial) {
    RangeSize size = {f.universe.Width() * rng.NextDouble(0.01, 0.8),
                      f.universe.Height() * rng.NextDouble(0.01, 0.8),
                      f.universe.Duration() * rng.NextDouble(0.01, 0.8)};
    const double base =
        ExpectedInvolvedPartitions(index, size, f.universe);
    for (int dim = 0; dim < 3; ++dim) {
      RangeSize larger = size;
      (dim == 0 ? larger.w : dim == 1 ? larger.h : larger.t) *= 1.3;
      const double grown =
          ExpectedInvolvedPartitions(index, larger, f.universe);
      ASSERT_GE(grown, base - 1e-9)
          << "dim " << dim << " trial " << trial;
    }
  }
}

TEST(CostModelPropertyTest, ExpectedNpBetweenOneAndPartitionCount) {
  const Fixture f;
  Rng rng(3);
  for (const std::size_t spatial : {1u, 4u, 16u, 64u}) {
    const PartitionIndex index = f.Index(spatial, 8);
    for (int trial = 0; trial < 50; ++trial) {
      const RangeSize size = {
          f.universe.Width() * rng.NextDouble(1e-3, 1.0),
          f.universe.Height() * rng.NextDouble(1e-3, 1.0),
          f.universe.Duration() * rng.NextDouble(1e-3, 1.0)};
      const double np =
          ExpectedInvolvedPartitions(index, size, f.universe);
      // A tiling index always intersects at least one partition.
      ASSERT_GE(np, 1.0 - 1e-9);
      ASSERT_LE(np, static_cast<double>(index.NumPartitions()) + 1e-9);
    }
  }
}

TEST(CostModelPropertyTest, WholeUniverseQueryInvolvesEverything) {
  const Fixture f;
  for (const std::size_t temporal : {1u, 4u, 32u}) {
    const PartitionIndex index = f.Index(16, temporal);
    EXPECT_NEAR(
        ExpectedInvolvedPartitions(index, f.universe.Size(), f.universe),
        static_cast<double>(index.NumPartitions()), 1e-9);
  }
}

TEST(CostModelPropertyTest, RefiningPartitioningRaisesExpectedNp) {
  // More partitions of the same universe => no fewer expected involved
  // partitions, for any query size.
  const Fixture f;
  const PartitionIndex coarse = f.Index(4, 4);
  const PartitionIndex fine = f.Index(16, 16);
  Rng rng(5);
  for (int trial = 0; trial < 50; ++trial) {
    const RangeSize size = {
        f.universe.Width() * rng.NextDouble(0.01, 1.0),
        f.universe.Height() * rng.NextDouble(0.01, 1.0),
        f.universe.Duration() * rng.NextDouble(0.01, 1.0)};
    ASSERT_GE(ExpectedInvolvedPartitions(fine, size, f.universe) + 1e-9,
              ExpectedInvolvedPartitions(coarse, size, f.universe));
  }
}

TEST(CostModelPropertyTest, GroupedCostMonotoneInQuerySize) {
  const Fixture f;
  const ReplicaSketch sketch = SketchFromSample(
      f.dataset,
      {{.spatial_partitions = 16, .temporal_partitions = 8},
       EncodingScheme::FromName("ROW-GZIP")},
      f.universe, 1'000'000, 0.5);
  const CostModel model(EnvironmentModel::AmazonS3Emr());
  Rng rng(7);
  for (int trial = 0; trial < 50; ++trial) {
    const double frac = rng.NextDouble(0.01, 0.5);
    const GroupedQuery small{{f.universe.Width() * frac,
                              f.universe.Height() * frac,
                              f.universe.Duration() * frac}};
    const GroupedQuery large{{f.universe.Width() * frac * 1.5,
                              f.universe.Height() * frac * 1.5,
                              f.universe.Duration() * frac * 1.5}};
    ASSERT_LE(model.QueryCostMs(sketch, small),
              model.QueryCostMs(sketch, large) + 1e-9);
  }
}

}  // namespace
}  // namespace blot
