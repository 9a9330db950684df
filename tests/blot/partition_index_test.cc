#include "blot/partition_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "blot/partitioner.h"
#include "core/workload.h"
#include "gen/taxi_generator.h"
#include "util/rng.h"

namespace blot {
namespace {

PartitionIndex FleetIndex(STRange& universe_out,
                          PartitioningSpec spec = {
                              .spatial_partitions = 16,
                              .temporal_partitions = 8}) {
  TaxiFleetConfig config;
  config.num_taxis = 15;
  config.samples_per_taxi = 300;
  const Dataset d = GenerateTaxiFleet(config);
  universe_out = config.Universe();
  PartitionedData pd = PartitionDataset(d, spec, universe_out);
  return PartitionIndex(std::move(pd.ranges));
}

std::vector<std::size_t> BruteForce(const std::vector<STRange>& ranges,
                                     const STRange& query) {
  std::vector<std::size_t> expected;
  for (std::size_t i = 0; i < ranges.size(); ++i)
    if (ranges[i].Intersects(query)) expected.push_back(i);
  return expected;
}

// Checks every lookup form against brute force, and that ForEachInvolved
// visits each partition once, ascending.
void ExpectMatchesBruteForce(const PartitionIndex& index,
                             const STRange& query) {
  const std::vector<std::size_t> expected =
      BruteForce(index.ranges(), query);
  std::vector<std::size_t> visited;
  index.ForEachInvolved(query,
                        [&visited](std::size_t p) { visited.push_back(p); });
  ASSERT_EQ(visited, expected) << query;
  // A bool callback ends the walk at its first false: the walk visits
  // exactly the prefix up to and including that partition.
  const std::size_t stop_after = std::max<std::size_t>(1, expected.size() / 2);
  std::vector<std::size_t> prefix;
  index.ForEachInvolved(query, [&](std::size_t p) {
    prefix.push_back(p);
    return prefix.size() < stop_after;
  });
  ASSERT_EQ(prefix, std::vector<std::size_t>(
                        expected.begin(),
                        expected.begin() + std::min(stop_after,
                                                    expected.size())))
      << query;
  ASSERT_EQ(index.InvolvedPartitions(query), expected) << query;
  ASSERT_EQ(index.CountInvolved(query), expected.size()) << query;
}

STRange RandomBox(Rng& rng, double lo, double hi, double max_extent) {
  const double x0 = rng.NextDouble(lo, hi);
  const double y0 = rng.NextDouble(lo, hi);
  const double t0 = rng.NextDouble(lo, hi);
  return STRange::FromBounds(x0, x0 + rng.NextDouble(0, max_extent), y0,
                             y0 + rng.NextDouble(0, max_extent), t0,
                             t0 + rng.NextDouble(0, max_extent));
}

// Sampled queries of 1-80% per dimension plus the universe and a cell
// corner (touching closed bounds).
void ExpectFleetQueriesMatch(const PartitionIndex& index,
                             const STRange& universe, std::uint64_t seed) {
  Rng rng(seed);
  for (int trial = 0; trial < 200; ++trial) {
    const GroupedQuery q{{universe.Width() * rng.NextDouble(0.01, 0.8),
                          universe.Height() * rng.NextDouble(0.01, 0.8),
                          universe.Duration() * rng.NextDouble(0.01, 0.8)}};
    ExpectMatchesBruteForce(index, SampleQueryInstance(q, universe, rng));
  }
  ExpectMatchesBruteForce(index, universe);
  const STRange& cell = index.Range(index.NumPartitions() / 2);
  ExpectMatchesBruteForce(
      index, STRange::FromBounds(cell.x_max(), cell.x_max(), cell.y_max(),
                                 cell.y_max(), cell.t_max(), cell.t_max()));
}

TEST(PartitionIndexTest, InvolvedMatchesBruteForce) {
  STRange universe;
  const PartitionIndex index = FleetIndex(universe);
  ExpectFleetQueriesMatch(index, universe, 5);
}

TEST(PartitionIndexTest, FineKdTilingMatchesBruteForce) {
  STRange universe;
  const PartitionIndex index = FleetIndex(
      universe, {.spatial_partitions = 1024, .temporal_partitions = 16});
  ASSERT_EQ(index.NumPartitions(), 1024u * 16u);
  ExpectFleetQueriesMatch(index, universe, 6);
}

TEST(PartitionIndexTest, GridTilingMatchesBruteForce) {
  STRange universe;
  const PartitionIndex index =
      FleetIndex(universe, {.spatial_partitions = 64,
                            .temporal_partitions = 8,
                            .method = SpatialMethod::kGrid});
  ExpectFleetQueriesMatch(index, universe, 8);
}

TEST(PartitionIndexTest, TreeShapeEdgesMatchBruteForce) {
  // Partition counts around powers of two and around whole leaves: a
  // single partition, a partly filled leaf, full trees and trees with one
  // partition past full.
  Rng rng(11);
  for (const std::size_t n : {1, 2, 3, 7, 8, 9, 63, 64, 65, 1025}) {
    std::vector<STRange> ranges;
    for (std::size_t i = 0; i < n; ++i)
      ranges.push_back(RandomBox(rng, 0, 100, 10));
    const PartitionIndex index(ranges);
    ASSERT_EQ(index.NumPartitions(), n);
    for (int q = 0; q < 50; ++q)
      ExpectMatchesBruteForce(index, RandomBox(rng, -10, 110, 40));
    ExpectMatchesBruteForce(index, index.Cover());
  }
}

TEST(PartitionIndexTest, EmptyAndZeroExtentRangesMatchBruteForce) {
  // Empty ranges never intersect, even under a query containing their
  // whole subtree; zero-extent ranges intersect on closed bounds.
  Rng rng(13);
  std::vector<STRange> ranges;
  for (int i = 0; i < 100; ++i) {
    switch (i % 4) {
      case 0:
        ranges.push_back(STRange());
        break;
      case 1: {
        const double x = rng.NextDouble(0, 100);
        const double t = rng.NextDouble(0, 100);
        ranges.push_back(STRange::FromBounds(x, x, 5, 5, t, t));
        break;
      }
      default:
        ranges.push_back(RandomBox(rng, 0, 100, 20));
    }
  }
  // A run of empty ranges fills whole subtrees.
  for (std::size_t i = 64; i < 72; ++i) ranges[i] = STRange();
  const PartitionIndex index(ranges);
  for (int q = 0; q < 200; ++q)
    ExpectMatchesBruteForce(index, RandomBox(rng, -10, 110, 60));
  ExpectMatchesBruteForce(index, STRange::FromBounds(-1e9, 1e9, -1e9, 1e9,
                                                     -1e9, 1e9));
  ExpectMatchesBruteForce(index, ranges[1]);  // a zero-extent query
  EXPECT_TRUE(index.InvolvedPartitions(STRange()).empty());

  const PartitionIndex all_empty(std::vector<STRange>(5));
  EXPECT_TRUE(all_empty.Cover().empty());
  EXPECT_EQ(all_empty.CountInvolved(
                STRange::FromBounds(-1e9, 1e9, -1e9, 1e9, -1e9, 1e9)),
            0u);
}

TEST(PartitionIndexTest, FullUniverseQueryInvolvesAllPartitions) {
  STRange universe;
  const PartitionIndex index = FleetIndex(universe);
  EXPECT_EQ(index.CountInvolved(universe), index.NumPartitions());
}

TEST(PartitionIndexTest, DisjointQueryInvolvesNone) {
  STRange universe;
  const PartitionIndex index = FleetIndex(universe);
  const STRange far = STRange::FromBounds(500, 501, 500, 501, 0, 1);
  EXPECT_EQ(index.CountInvolved(far), 0u);
  EXPECT_TRUE(index.InvolvedPartitions(far).empty());
}

TEST(PartitionIndexTest, CoverEqualsUniverseForTilingSchemes) {
  STRange universe;
  const PartitionIndex index = FleetIndex(universe);
  const STRange cover = index.Cover();
  EXPECT_NEAR(cover.x_min(), universe.x_min(), 1e-12);
  EXPECT_NEAR(cover.x_max(), universe.x_max(), 1e-12);
  EXPECT_NEAR(cover.t_min(), universe.t_min(), 1e-9);
  EXPECT_NEAR(cover.t_max(), universe.t_max(), 1e-9);
}

TEST(PartitionIndexTest, RandomNonTilingRangesMatchBruteForce) {
  // The tree walk must be correct for arbitrary (overlapping, gappy,
  // skewed-duration) range sets, whose node boxes overlap, not just for
  // partitioner tilings.
  Rng rng(77);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<STRange> ranges;
    const std::size_t n = 1 + rng.NextUint64(400);
    for (std::size_t i = 0; i < n; ++i) {
      const double x0 = rng.NextDouble(0, 100);
      const double y0 = rng.NextDouble(0, 100);
      const double t0 = rng.NextDouble(0, 1000);
      ranges.push_back(STRange::FromBounds(
          x0, x0 + rng.NextDouble(0, 30), y0, y0 + rng.NextDouble(0, 30),
          t0, t0 + rng.NextExponential(0.01)));
    }
    const PartitionIndex index(ranges);
    for (int q = 0; q < 30; ++q) {
      const double x0 = rng.NextDouble(-10, 110);
      const double y0 = rng.NextDouble(-10, 110);
      const double t0 = rng.NextDouble(-100, 1100);
      const STRange query = STRange::FromBounds(
          x0, x0 + rng.NextDouble(0, 50), y0, y0 + rng.NextDouble(0, 50),
          t0, t0 + rng.NextDouble(0, 500));
      SCOPED_TRACE("trial " + std::to_string(trial) + " query " +
                   std::to_string(q));
      ExpectMatchesBruteForce(index, query);
    }
  }
}

TEST(PartitionIndexTest, ZeroDurationUniverse) {
  // All partitions at the same instant: every node box has zero
  // duration, and the walk must still work.
  std::vector<STRange> ranges;
  for (int i = 0; i < 10; ++i)
    ranges.push_back(
        STRange::FromBounds(i, i + 1, 0, 1, 42, 42));
  const PartitionIndex index(ranges);
  EXPECT_EQ(index.CountInvolved(STRange::FromBounds(0, 100, 0, 1, 42, 42)),
            10u);
  EXPECT_EQ(index.CountInvolved(STRange::FromBounds(0, 100, 0, 1, 43, 44)),
            0u);
}

TEST(PartitionIndexTest, EmptyIndex) {
  const PartitionIndex index;
  EXPECT_EQ(index.NumPartitions(), 0u);
  EXPECT_TRUE(index.Cover().empty());
  EXPECT_EQ(index.CountInvolved(STRange::FromBounds(0, 1, 0, 1, 0, 1)), 0u);
}

}  // namespace
}  // namespace blot
