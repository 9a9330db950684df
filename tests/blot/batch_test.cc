#include "blot/batch.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <tuple>

#include "common/fixtures.h"
#include "core/workload.h"

namespace blot {
namespace {

using test::Sorted;

struct Fixture : test::TaxiFixture {
  Replica replica;

  explicit Fixture(const char* encoding = "COL-GZIP")
      : TaxiFixture(12, 300),
        replica(Replica::Build(
            dataset,
            {{.spatial_partitions = 16, .temporal_partitions = 8},
             EncodingScheme::FromName(encoding)},
            universe)) {}

  // An overlapping grid of queries, like a heat-map computation, over
  // the whole time span or (`last_day`) only its final 24 hours.
  std::vector<STRange> GridQueries(int cells, bool last_day = false) const {
    const double t_min =
        last_day ? universe.t_max() - 86400.0 : universe.t_min();
    std::vector<STRange> queries;
    for (int gx = 0; gx < cells; ++gx) {
      for (int gy = 0; gy < cells; ++gy) {
        queries.push_back(STRange::FromBounds(
            universe.x_min() + universe.Width() * gx / cells,
            universe.x_min() + universe.Width() * (gx + 1) / cells,
            universe.y_min() + universe.Height() * gy / cells,
            universe.y_min() + universe.Height() * (gy + 1) / cells,
            t_min, universe.t_max()));
      }
    }
    return queries;
  }
};

// Batch output is per-query Execute output exactly, records and order
// (both ascend by partition), on row and column replicas, whole-month
// and selective grids, with the decoded-partition cache off and on,
// serial and pooled.
TEST(ExecuteBatchTest, MatchesPerQueryExecution) {
  ThreadPool pool(4);
  for (const char* encoding : {"ROW-SNAPPY", "COL-GZIP"}) {
    const Fixture f(encoding);
    for (const bool last_day : {false, true}) {
      const std::vector<STRange> queries = f.GridQueries(4, last_day);
      for (const bool cached : {false, true}) {
        std::optional<test::GlobalCacheGuard> cache;
        if (cached) cache.emplace(64 << 20);
        for (ThreadPool* executor : {static_cast<ThreadPool*>(nullptr),
                                     &pool}) {
          const BatchResult batch =
              ExecuteBatch(f.replica, queries, executor);
          ASSERT_EQ(batch.per_query.size(), queries.size());
          std::size_t matched = 0;
          for (std::size_t q = 0; q < queries.size(); ++q) {
            EXPECT_EQ(batch.per_query[q], f.replica.Execute(queries[q]).records)
                << encoding << (last_day ? " last-24h" : " whole-month")
                << (cached ? " cached" : " uncached")
                << (executor != nullptr ? " pooled" : " serial") << " query "
                << q;
            matched += batch.per_query[q].size();
          }
          EXPECT_GT(matched, 0u);
        }
      }
    }
  }
}

TEST(ExecuteBatchTest, SharedScanBeatsNaiveScanCount) {
  const Fixture f;
  // Whole-month grid cells: each partition is involved in several cells'
  // queries, so sharing must be substantial.
  const std::vector<STRange> queries = f.GridQueries(6);
  const BatchResult batch = ExecuteBatch(f.replica, queries);
  EXPECT_GT(batch.naive_partition_scans, batch.stats.partitions_scanned);
  EXPECT_LE(batch.stats.partitions_scanned, f.replica.NumPartitions());
  // 36 overlapping queries over 128 partitions: at least 2x sharing.
  EXPECT_GT(static_cast<double>(batch.naive_partition_scans) /
                static_cast<double>(batch.stats.partitions_scanned),
            2.0);
}

TEST(ExecuteBatchTest, EmptyBatch) {
  const Fixture f;
  const BatchResult batch = ExecuteBatch(f.replica, {});
  EXPECT_TRUE(batch.per_query.empty());
  EXPECT_EQ(batch.stats.partitions_scanned, 0u);
}

TEST(ExecuteBatchTest, DisjointQueriesStillCorrect) {
  const Fixture f;
  const std::vector<STRange> queries = {
      STRange::FromBounds(0, 1, 0, 1, 0, 1),  // far away: no matches
      f.universe,                              // everything
  };
  const BatchResult batch = ExecuteBatch(f.replica, queries);
  EXPECT_TRUE(batch.per_query[0].empty());
  EXPECT_EQ(batch.per_query[1].size(), f.dataset.size());
}

TEST(ExecuteBatchTest, ParallelMatchesSerial) {
  const Fixture f;
  ThreadPool pool(4);
  const std::vector<STRange> queries = f.GridQueries(3);
  const BatchResult serial = ExecuteBatch(f.replica, queries);
  const BatchResult parallel = ExecuteBatch(f.replica, queries, &pool);
  ASSERT_EQ(serial.per_query.size(), parallel.per_query.size());
  for (std::size_t q = 0; q < queries.size(); ++q)
    EXPECT_EQ(Sorted(serial.per_query[q]), Sorted(parallel.per_query[q]));
  EXPECT_EQ(serial.stats.records_scanned, parallel.stats.records_scanned);
}

}  // namespace
}  // namespace blot
