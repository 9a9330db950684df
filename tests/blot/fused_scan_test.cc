// Equivalence tests for the fused decode-filter kernels: for every
// layout x codec and a spread of query shapes, DeserializeRecordsInRange /
// DecodePartitionInRange must return exactly what decode-then-filter
// returns, in the same order, while reporting the true record count.
#include <algorithm>
#include <cstdint>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "blot/encoding_scheme.h"
#include "blot/layout.h"
#include "blot/replica.h"
#include "gen/taxi_generator.h"
#include "util/error.h"

namespace blot {
namespace {

std::vector<Record> NaiveFilter(const std::vector<Record>& records,
                                const STRange& range) {
  std::vector<Record> out;
  for (const Record& r : records)
    if (range.Contains(r.Position())) out.push_back(r);
  return out;
}

std::vector<EncodingScheme> SchemesUnderTest() {
  // The paper's 7 schemes plus the excluded COL-PLAIN: the fused column
  // kernel must be correct whether or not a codec sits in front of it.
  std::vector<EncodingScheme> schemes = AllEncodingSchemes();
  schemes.push_back({Layout::kColumn, CodecKind::kNone});
  return schemes;
}

struct FusedScanTest : public ::testing::Test {
  Dataset dataset;
  STRange universe;

  void SetUp() override {
    TaxiFleetConfig config;
    config.num_taxis = 12;
    config.samples_per_taxi = 300;
    dataset = GenerateTaxiFleet(config);
    universe = config.Universe();
  }

  std::vector<STRange> QueryShapes() const {
    const double w = universe.Width(), h = universe.Height();
    const double d = universe.Duration();
    const Record& probe = dataset.records()[dataset.size() / 2];
    return {
        universe,  // everything matches
        // Disjoint from the universe: nothing matches, so the column
        // kernel's early-out (skip attribute columns) is exercised.
        STRange::FromBounds(universe.x_max() + 1.0, universe.x_max() + 2.0,
                            universe.y_min(), universe.y_max(),
                            universe.t_min(), universe.t_max()),
        // Selective corner box.
        STRange::FromBounds(universe.x_min(), universe.x_min() + w * 0.15,
                            universe.y_min(), universe.y_min() + h * 0.15,
                            universe.t_min(),
                            universe.t_min() + d * 0.25),
        // Spatially wide, temporally thin slab.
        STRange::FromBounds(universe.x_min(), universe.x_max(),
                            universe.y_min(), universe.y_max(),
                            universe.t_min() + d * 0.5,
                            universe.t_min() + d * 0.52),
        // Degenerate zero-extent range pinned on one real record:
        // closed-bound handling must keep that exact point.
        STRange::FromBounds(probe.x, probe.x, probe.y, probe.y,
                            static_cast<double>(probe.time),
                            static_cast<double>(probe.time)),
    };
  }
};

// The reference is the filtered source records, not a decode of `data`:
// a full decode runs the same block decoders the range scan does, so it
// could not catch a decoder bug.
TEST_F(FusedScanTest, MatchesDecodeThenFilterForAllSchemes) {
  for (const EncodingScheme& scheme : SchemesUnderTest()) {
    const Bytes data = EncodePartition(dataset.records(), scheme);
    ASSERT_EQ(DecodePartition(data, scheme), dataset.records())
        << scheme.Name();
    for (const STRange& query : QueryShapes()) {
      std::uint64_t total = 0;
      const std::vector<Record> fused =
          DecodePartitionInRange(data, scheme, query, &total);
      EXPECT_EQ(total, dataset.size())
          << scheme.Name() << " on " << query.ToString();
      EXPECT_EQ(fused, NaiveFilter(dataset.records(), query))
          << scheme.Name() << " on " << query.ToString();
    }
  }
}

TEST_F(FusedScanTest, EmptyPartitionYieldsNothing) {
  for (const EncodingScheme& scheme : SchemesUnderTest()) {
    const Bytes data = EncodePartition({}, scheme);
    std::uint64_t total = 99;
    EXPECT_TRUE(DecodePartitionInRange(data, scheme, universe, &total).empty())
        << scheme.Name();
    EXPECT_EQ(total, 0u) << scheme.Name();
  }
}

TEST_F(FusedScanTest, TotalRecordsOutParamIsOptional) {
  const EncodingScheme scheme{Layout::kRow, CodecKind::kNone};
  const Bytes data = EncodePartition(dataset.records(), scheme);
  EXPECT_EQ(DecodePartitionInRange(data, scheme, universe).size(),
            dataset.size());
}

TEST_F(FusedScanTest, TruncatedInputThrows) {
  for (const Layout layout : {Layout::kRow, Layout::kColumn}) {
    const EncodingScheme scheme{layout, CodecKind::kNone};
    Bytes data = EncodePartition(dataset.records(), scheme);
    data.resize(data.size() / 2);
    EXPECT_THROW(DecodePartitionInRange(data, scheme, universe), Error)
        << scheme.Name();
  }
}

// Replica::ScanPartition with the cache off (the default) is the fused
// kernel with block pruning; it must equal decode-then-filter.
TEST_F(FusedScanTest, ReplicaScanPartitionInRangeMatchesDecode) {
  for (const char* name : {"ROW-SNAPPY", "COL-GZIP"}) {
    const Replica replica = Replica::Build(
        dataset,
        {{.spatial_partitions = 8, .temporal_partitions = 4},
         EncodingScheme::FromName(name)},
        universe);
    for (const STRange& query : QueryShapes()) {
      for (std::size_t p : replica.index().InvolvedPartitions(query)) {
        EXPECT_EQ(replica.ScanPartition(p, query, true).matches,
                  NaiveFilter(replica.DecodePartitionRecords(p), query))
            << name << " partition " << p;
      }
    }
  }
}

// With the cache disabled (the default), Execute runs the fused path;
// its results must match brute force over the raw dataset.
TEST_F(FusedScanTest, ExecuteEqualsBruteForce) {
  // (oid, time) alone is not a total order — the generator can emit
  // coincident samples — so tie-break on every field.
  auto sorted = [](std::vector<Record> records) {
    std::sort(records.begin(), records.end(),
              [](const Record& a, const Record& b) {
                return std::tie(a.oid, a.time, a.x, a.y, a.speed, a.heading,
                                a.status, a.passengers, a.fare_cents) <
                       std::tie(b.oid, b.time, b.x, b.y, b.speed, b.heading,
                                b.status, b.passengers, b.fare_cents);
              });
    return records;
  };
  for (const EncodingScheme& scheme : SchemesUnderTest()) {
    const Replica replica = Replica::Build(
        dataset,
        {{.spatial_partitions = 8, .temporal_partitions = 4}, scheme},
        universe);
    for (const STRange& query : QueryShapes()) {
      const QueryResult result = replica.Execute(query);
      EXPECT_EQ(sorted(result.records),
                sorted(dataset.FilterByRange(query)))
          << scheme.Name() << " on " << query.ToString();
      EXPECT_EQ(result.stats.cache_hits, 0u);
      EXPECT_EQ(result.stats.cache_misses, 0u);
    }
  }
}

// Under the per-partition codec policy the fused kernel must honor each
// stored partition's own codec, not the replica default.
TEST_F(FusedScanTest, HybridEncodingPolicyUsesPerPartitionCodec) {
  const Replica replica = Replica::Build(
      dataset,
      {{.spatial_partitions = 8, .temporal_partitions = 4},
       EncodingScheme::FromName("COL-GZIP"),
       EncodingPolicy::kBestCodecPerPartition},
      universe);
  for (const STRange& query : QueryShapes()) {
    for (std::size_t p : replica.index().InvolvedPartitions(query)) {
      EXPECT_EQ(replica.ScanPartition(p, query, true).matches,
                NaiveFilter(replica.DecodePartitionRecords(p), query));
    }
  }
}

}  // namespace
}  // namespace blot
