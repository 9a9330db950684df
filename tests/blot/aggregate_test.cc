#include "blot/aggregate.h"

#include <gtest/gtest.h>

#include <set>

#include "core/workload.h"
#include "gen/taxi_generator.h"

namespace blot {
namespace {

struct Fixture {
  Dataset dataset;
  STRange universe;
  Replica replica;

  Fixture()
      : replica(Build()) {}

  Replica Build() {
    TaxiFleetConfig config;
    config.num_taxis = 12;
    config.samples_per_taxi = 400;
    dataset = GenerateTaxiFleet(config);
    universe = config.Universe();
    return Replica::Build(
        dataset,
        {{.spatial_partitions = 16, .temporal_partitions = 8},
         EncodingScheme::FromName("COL-GZIP")},
        universe);
  }

  // Ground-truth statistics by direct filter.
  RangeStatistics BruteForce(const STRange& query) const {
    RangeStatistics s;
    std::set<std::uint32_t> objects;
    for (const Record& r : dataset.FilterByRange(query)) {
      ++s.count;
      if (r.status == 1) {
        ++s.occupied;
        s.fare_cents_sum += r.fare_cents;
      }
      s.speed_sum += r.speed;
      s.first_time = std::min(s.first_time, r.time);
      s.last_time = std::max(s.last_time, r.time);
      objects.insert(r.oid);
    }
    s.distinct_objects = objects.size();
    return s;
  }
};

TEST(AggregateTest, MatchesBruteForceAcrossQuerySizes) {
  const Fixture f;
  Rng rng(3);
  for (const double frac : {0.05, 0.2, 0.5, 1.0}) {
    const STRange query = SampleQueryInstance(
        {{f.universe.Width() * frac, f.universe.Height() * frac,
          f.universe.Duration() * frac}},
        f.universe, rng);
    const RangeStatistics got = AggregateRange(f.replica, query);
    const RangeStatistics want = f.BruteForce(query);
    EXPECT_EQ(got.count, want.count) << "frac " << frac;
    EXPECT_EQ(got.occupied, want.occupied);
    EXPECT_EQ(got.distinct_objects, want.distinct_objects);
    EXPECT_DOUBLE_EQ(got.fare_cents_sum, want.fare_cents_sum);
    EXPECT_NEAR(got.speed_sum, want.speed_sum,
                1e-9 * std::max(1.0, want.speed_sum));
    EXPECT_EQ(got.first_time, want.first_time);
    EXPECT_EQ(got.last_time, want.last_time);
  }
}

TEST(AggregateTest, WholeUniverseCoversEverything) {
  const Fixture f;
  const RangeStatistics s = AggregateRange(f.replica, f.universe);
  EXPECT_EQ(s.count, f.dataset.size());
  EXPECT_EQ(s.distinct_objects, 12u);
  EXPECT_EQ(s.stats.partitions_scanned, f.replica.NumPartitions());
  EXPECT_GT(s.MeanSpeed(), 0.0);
  EXPECT_GT(s.OccupancyRate(), 0.0);
  EXPECT_LT(s.OccupancyRate(), 1.0);
}

TEST(AggregateTest, EmptyRangeYieldsZeroes) {
  const Fixture f;
  const RangeStatistics s = AggregateRange(
      f.replica, STRange::FromBounds(0, 1, 0, 1, 0, 1));
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.distinct_objects, 0u);
  EXPECT_EQ(s.MeanSpeed(), 0.0);
  EXPECT_EQ(s.OccupancyRate(), 0.0);
  EXPECT_EQ(s.stats.partitions_scanned, 0u);
}

TEST(AggregateTest, ParallelMatchesSerial) {
  const Fixture f;
  ThreadPool pool(4);
  Rng rng(5);
  const STRange query = SampleQueryInstance(
      {{f.universe.Width() * 0.4, f.universe.Height() * 0.4,
        f.universe.Duration() * 0.4}},
      f.universe, rng);
  const RangeStatistics serial = AggregateRange(f.replica, query);
  const RangeStatistics parallel = AggregateRange(f.replica, query, &pool);
  EXPECT_EQ(serial.count, parallel.count);
  EXPECT_EQ(serial.occupied, parallel.occupied);
  EXPECT_EQ(serial.distinct_objects, parallel.distinct_objects);
  EXPECT_DOUBLE_EQ(serial.fare_cents_sum, parallel.fare_cents_sum);
}

TEST(AggregateTest, ScanAccountingMatchesQueryPath) {
  const Fixture f;
  Rng rng(7);
  const STRange query = SampleQueryInstance(
      {{f.universe.Width() * 0.3, f.universe.Height() * 0.3,
        f.universe.Duration() * 0.3}},
      f.universe, rng);
  const RangeStatistics agg = AggregateRange(f.replica, query);
  const QueryResult full = f.replica.Execute(query);
  EXPECT_EQ(agg.stats.partitions_scanned, full.stats.partitions_scanned);
  EXPECT_EQ(agg.stats.records_scanned, full.stats.records_scanned);
  EXPECT_EQ(agg.stats.bytes_read, full.stats.bytes_read);
  EXPECT_EQ(agg.count, full.records.size());
}

// A slab along the universe's west edge: the index involves every
// partition whose cell reaches the edge, and a stored zone (the tight box
// around the partition's records) excludes most of them. The aggregate
// must skip the same partitions the query path skips.
TEST(AggregateTest, ZonePrunedPartitionsMatchQueryPath) {
  const Fixture f;
  const STRange query = STRange::FromBounds(
      f.universe.x_min(), f.universe.x_min() + f.universe.Width() * 1e-4,
      f.universe.y_min(), f.universe.y_max(), f.universe.t_min(),
      f.universe.t_max());
  const QueryResult full = f.replica.Execute(query);
  ASSERT_LT(full.stats.partitions_scanned,
            f.replica.index().InvolvedPartitions(query).size());
  const RangeStatistics agg = AggregateRange(f.replica, query);
  EXPECT_EQ(agg.stats.partitions_scanned, full.stats.partitions_scanned);
  EXPECT_EQ(agg.stats.records_scanned, full.stats.records_scanned);
  EXPECT_EQ(agg.stats.bytes_read, full.stats.bytes_read);
  EXPECT_EQ(agg.count, full.records.size());
}

}  // namespace
}  // namespace blot
