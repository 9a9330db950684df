// Zone-map edge cases and manifest-versioning tests: the blocked wire
// format's pruning must never change answers — only skip work — version-2
// segment directories round-trip byte-identically, and directories
// naming the retired monolithic format (version-1 manifests, or format
// byte 1) are rejected as corrupt.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <optional>

#include "blot/encoding_scheme.h"
#include "blot/layout.h"
#include "blot/partitioner.h"
#include "blot/segment_store.h"
#include "codec/codec.h"
#include "gen/taxi_generator.h"
#include "util/bytes.h"
#include "util/error.h"

namespace blot {
namespace {

namespace fs = std::filesystem;

std::vector<Record> FleetRecords(std::size_t taxis, std::size_t samples) {
  TaxiFleetConfig config;
  config.num_taxis = taxis;
  config.samples_per_taxi = samples;
  return GenerateTaxiFleet(config).records();
}

std::vector<Record> Filter(const std::vector<Record>& records,
                           const STRange& range) {
  std::vector<Record> out;
  for (const Record& r : records)
    if (range.Contains({r.x, r.y, double(r.time)})) out.push_back(r);
  return out;
}

// Scans `records` through the blocked format with pruning on and off and
// checks both against a straight filter; returns the pruned-run counters.
ScanCounters ExpectPrunedEqualsUnpruned(const std::vector<Record>& records,
                                        Layout layout, const STRange& query) {
  const Bytes data = SerializeRecords(records, layout);
  const std::vector<Record> expected = Filter(records, query);
  ScanCounters pruned;
  std::uint64_t total = 0;
  EXPECT_EQ(DeserializeRecordsInRange(data, layout, query, &total,
                                      /*prune_blocks=*/true, &pruned),
            expected);
  EXPECT_EQ(total, records.size());
  ScanCounters unpruned;
  EXPECT_EQ(DeserializeRecordsInRange(data, layout, query, nullptr,
                                      /*prune_blocks=*/false, &unpruned),
            expected);
  EXPECT_EQ(unpruned.blocks_pruned, 0u);
  EXPECT_EQ(unpruned.blocks_total, pruned.blocks_total);
  return pruned;
}

class ZoneMapLayoutTest : public ::testing::TestWithParam<Layout> {};

TEST_P(ZoneMapLayoutTest, EmptyPartitionScans) {
  const Bytes data = SerializeRecords({}, GetParam());
  ScanCounters counters;
  EXPECT_TRUE(DeserializeRecordsInRange(
                  data, GetParam(),
                  STRange::FromBounds(0, 1, 0, 1, 0, 1), nullptr, true,
                  &counters)
                  .empty());
  EXPECT_EQ(counters.blocks_total, 0u);
}

TEST_P(ZoneMapLayoutTest, SingleRecordBlocks) {
  // One record: a single block of one; zone is the degenerate point.
  Record r;
  r.oid = 3;
  r.time = 1000;
  r.x = 5.0;
  r.y = 7.0;
  const std::vector<Record> records = {r};
  // A query containing the point keeps the block...
  ScanCounters hit = ExpectPrunedEqualsUnpruned(
      records, GetParam(), STRange::FromBounds(0, 10, 0, 10, 0, 2000));
  EXPECT_EQ(hit.blocks_total, 1u);
  EXPECT_EQ(hit.blocks_pruned, 0u);
  // ...and a disjoint query prunes it without decoding.
  ScanCounters miss = ExpectPrunedEqualsUnpruned(
      records, GetParam(), STRange::FromBounds(100, 200, 100, 200, 0, 2000));
  EXPECT_EQ(miss.blocks_total, 1u);
  EXPECT_EQ(miss.blocks_pruned, 1u);
}

TEST_P(ZoneMapLayoutTest, AllRecordsFilteredOut) {
  // The query intersects every block's zone (time matches) but no record
  // (location misses): blocks are decoded, nothing is returned, and the
  // match-count short-circuit (column layout skips attribute columns)
  // must not corrupt the scan position of subsequent blocks.
  std::vector<Record> records = FleetRecords(4, 400);
  std::int64_t t_min = records.front().time, t_max = t_min;
  for (const Record& r : records) {
    t_min = std::min(t_min, r.time);
    t_max = std::max(t_max, r.time);
  }
  const STRange query = STRange::FromBounds(
      1e6, 2e6, 1e6, 2e6, double(t_min), double(t_max));
  ScanCounters counters = ExpectPrunedEqualsUnpruned(records, GetParam(),
                                                     query);
  EXPECT_EQ(counters.blocks_pruned, counters.blocks_total);
}

TEST_P(ZoneMapLayoutTest, DegenerateMinEqualsMaxZone) {
  // All records at one point and one instant: zone min == max in every
  // dimension; boundary queries must treat the zone as closed.
  std::vector<Record> records;
  for (int i = 0; i < 700; ++i) {  // > one block
    Record r;
    r.oid = std::uint32_t(i);
    r.time = 5000;
    r.x = 42.0;
    r.y = -17.0;
    records.push_back(r);
  }
  // Query whose corner touches the degenerate zone exactly.
  ScanCounters touch = ExpectPrunedEqualsUnpruned(
      records, GetParam(),
      STRange::FromBounds(42.0, 50.0, -20.0, -17.0, 5000, 5000));
  EXPECT_EQ(touch.blocks_pruned, 0u);
  // Disjoint by the smallest representable margin above.
  ScanCounters miss = ExpectPrunedEqualsUnpruned(
      records, GetParam(),
      STRange::FromBounds(std::nextafter(42.0, 100.0), 50.0, -20.0, -17.0,
                          5000, 5000));
  EXPECT_EQ(miss.blocks_pruned, miss.blocks_total);
}

TEST_P(ZoneMapLayoutTest, NanCoordinatesDisableTheBlockZone) {
  // A NaN coordinate makes min/max meaningless: such blocks carry no
  // zone and are never pruned, for any query.
  std::vector<Record> records = FleetRecords(1, 100);
  records[50].x = std::numeric_limits<double>::quiet_NaN();
  ScanCounters counters = ExpectPrunedEqualsUnpruned(
      records, GetParam(),
      STRange::FromBounds(1e6, 2e6, 1e6, 2e6, 0, 1));  // misses everything
  EXPECT_EQ(counters.blocks_total, 1u);
  EXPECT_EQ(counters.blocks_pruned, 0u);
}

TEST_P(ZoneMapLayoutTest, SelectiveQueryPrunesMostBlocks) {
  // Time-sorted data + a ~10% time window: pruning must both skip most
  // blocks and stay answer-identical. This is the access pattern the
  // zone maps exist for.
  std::vector<Record> records = FleetRecords(6, 500);
  std::sort(records.begin(), records.end(),
            [](const Record& a, const Record& b) { return a.time < b.time; });
  const double t_lo = double(records.front().time);
  const double t_hi = double(records.back().time);
  const STRange query = STRange::FromBounds(
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::infinity(), t_lo,
      t_lo + (t_hi - t_lo) * 0.1);
  ScanCounters counters =
      ExpectPrunedEqualsUnpruned(records, GetParam(), query);
  EXPECT_GT(counters.blocks_total, 4u);
  EXPECT_GT(counters.blocks_pruned, counters.blocks_total / 2);
}

INSTANTIATE_TEST_SUITE_P(
    Layouts, ZoneMapLayoutTest,
    ::testing::Values(Layout::kRow, Layout::kColumn),
    [](const ::testing::TestParamInfo<Layout>& info) {
      return std::string(LayoutName(info.param));
    });

// --- Segment versioning -------------------------------------------------

class SegmentVersioningTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("blot_zone_map_test_" +
            std::to_string(
                ::testing::UnitTest::GetInstance()->random_seed()) +
            "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    TaxiFleetConfig config;
    config.num_taxis = 6;
    config.samples_per_taxi = 250;
    dataset_ = GenerateTaxiFleet(config);
    universe_ = config.Universe();
  }

  void TearDown() override { fs::remove_all(dir_); }

  Replica BuildReplica(const char* encoding = "COL-SNAPPY") {
    return Replica::Build(dataset_,
                          {{.spatial_partitions = 4, .temporal_partitions = 4},
                           EncodingScheme::FromName(encoding)},
                          universe_);
  }

  static void WriteFile(const fs::path& path, const Bytes& contents) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.good());
    out.write(reinterpret_cast<const char*>(contents.data()),
              std::streamsize(contents.size()));
  }

  static void PutRange(ByteWriter& w, const STRange& r) {
    w.PutF64(r.x_min());
    w.PutF64(r.x_max());
    w.PutF64(r.y_min());
    w.PutF64(r.y_max());
    w.PutF64(r.t_min());
    w.PutF64(r.t_max());
  }

  static Bytes ReadFile(const fs::path& path) {
    std::ifstream in(path, std::ios::binary);
    return Bytes((std::istreambuf_iterator<char>(in)),
                 std::istreambuf_iterator<char>());
  }

  // Writes `replica`'s payloads and a hand-built manifest under dir_:
  // `version` in the header, and per partition the `format` byte plus a
  // "no zone" flag when `format` is set (version 1 has neither field).
  void WriteHandManifest(const Replica& replica, std::uint32_t version,
                         std::optional<std::uint8_t> format) {
    Bytes segments;
    std::vector<std::uint64_t> offsets;
    for (std::size_t p = 0; p < replica.NumPartitions(); ++p) {
      const Bytes& data = replica.partition(p).data;
      offsets.push_back(segments.size());
      segments.insert(segments.end(), data.begin(), data.end());
    }
    fs::create_directories(dir_);
    WriteFile(dir_ / "segments.dat", segments);

    ByteWriter manifest;
    manifest.PutU64(0x31474553544F4C42ull);  // "BLOTSEG1"
    manifest.PutU32(version);
    manifest.PutString(replica.config().encoding.Name());
    manifest.PutU8(0);  // uniform policy
    manifest.PutString(
        SpatialMethodName(replica.config().partitioning.method));
    manifest.PutVarint(replica.config().partitioning.spatial_partitions);
    manifest.PutVarint(replica.config().partitioning.temporal_partitions);
    PutRange(manifest, replica.universe());
    manifest.PutVarint(replica.NumPartitions());
    for (std::size_t p = 0; p < replica.NumPartitions(); ++p) {
      const StoredPartition& stored = replica.partition(p);
      PutRange(manifest, replica.index().Range(p));
      manifest.PutVarint(stored.num_records);
      manifest.PutVarint(offsets[p]);
      manifest.PutVarint(stored.data.size());
      manifest.PutU64(stored.checksum);
      manifest.PutString(std::string(CodecKindName(stored.codec)));
      if (format) {
        manifest.PutU8(*format);
        manifest.PutU8(0);  // no zone
      }
    }
    manifest.PutU64(Fnv1a64(manifest.buffer()));
    WriteFile(dir_ / "manifest.blot", manifest.buffer());
  }

  fs::path dir_;
  Dataset dataset_;
  STRange universe_;
};

TEST_F(SegmentVersioningTest, Version2RoundTripPreservesFormatAndZones) {
  const Replica original = BuildReplica();
  SegmentStore::Save(original, dir_);
  const Replica loaded = SegmentStore::Load(dir_);
  ASSERT_EQ(loaded.NumPartitions(), original.NumPartitions());
  bool any_zone = false;
  for (std::size_t p = 0; p < original.NumPartitions(); ++p) {
    const StoredPartition& before = original.partition(p);
    const StoredPartition& after = loaded.partition(p);
    ASSERT_EQ(after.has_zone, before.has_zone);
    if (before.has_zone) {
      any_zone = true;
      EXPECT_EQ(after.zone, before.zone);
    }
  }
  EXPECT_TRUE(any_zone);  // real data must produce zones
  EXPECT_EQ(loaded.Reconstruct(), original.Reconstruct());
  // Saving what was loaded writes the same bytes: the manifest (format
  // byte included) and the data file are stable across a round trip.
  const fs::path again = dir_.string() + "_again";
  SegmentStore::Save(loaded, again);
  EXPECT_EQ(ReadFile(again / "manifest.blot"),
            ReadFile(dir_ / "manifest.blot"));
  EXPECT_EQ(ReadFile(again / "segments.dat"), ReadFile(dir_ / "segments.dat"));
  fs::remove_all(again);
}

TEST_F(SegmentVersioningTest, HandWrittenVersion1ManifestIsRejected) {
  // The pre-zone-map on-disk shape, written by hand: a version-1 manifest
  // (no per-partition format/zone fields). Its payloads were the retired
  // monolithic wire format, which no reader decodes any more, so Load
  // must refuse the directory as corrupt rather than misread it. The
  // payloads here are the current encoding; the manifest alone decides.
  const Replica modern = BuildReplica();
  WriteHandManifest(modern, /*version=*/1, /*format=*/std::nullopt);
  EXPECT_THROW(SegmentStore::Load(dir_), CorruptData);

  // A version-2 manifest naming format byte 1 (the retired format) for
  // its partitions is rejected the same way.
  WriteHandManifest(modern, /*version=*/2, /*format=*/1);
  EXPECT_THROW(SegmentStore::Load(dir_), CorruptData);

  // The writer itself is sound: with format byte 2 the same hand-written
  // manifest loads and answers like the replica it describes.
  WriteHandManifest(modern, /*version=*/2, /*format=*/2);
  const Replica loaded = SegmentStore::Load(dir_);
  EXPECT_EQ(loaded.Reconstruct(), modern.Reconstruct());
}

TEST_F(SegmentVersioningTest, UnknownManifestVersionRejected) {
  SegmentStore::Save(BuildReplica(), dir_);
  Bytes manifest;
  {
    std::ifstream in(dir_ / "manifest.blot", std::ios::binary);
    manifest.assign((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  }
  manifest[8] = 99;  // version field follows the 8-byte magic
  // Re-seal the tampered manifest so the version check (not the
  // checksum) is what rejects it.
  const BytesView body(manifest.data(), manifest.size() - 8);
  const std::uint64_t checksum = Fnv1a64(body);
  for (int i = 0; i < 8; ++i)
    manifest[manifest.size() - 8 + i] =
        std::uint8_t(checksum >> (8 * i));
  WriteFile(dir_ / "manifest.blot", manifest);
  EXPECT_THROW(SegmentStore::Load(dir_), CorruptData);
}

}  // namespace
}  // namespace blot
