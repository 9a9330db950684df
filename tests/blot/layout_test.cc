#include "blot/layout.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>

#include "gen/taxi_generator.h"
#include "util/error.h"

namespace blot {
namespace {

std::vector<Record> FleetRecords(std::size_t taxis, std::size_t samples) {
  TaxiFleetConfig config;
  config.num_taxis = taxis;
  config.samples_per_taxi = samples;
  return GenerateTaxiFleet(config).records();
}

class LayoutTest : public ::testing::TestWithParam<Layout> {};

TEST_P(LayoutTest, EmptyRoundTrip) {
  const Bytes data = SerializeRecords({}, GetParam());
  EXPECT_TRUE(DeserializeRecords(data, GetParam()).empty());
}

TEST_P(LayoutTest, SingleRecordRoundTrip) {
  Record r;
  r.oid = 7;
  r.time = 1193875200;
  r.x = 121.5;
  r.y = 31.25;
  r.speed = 33.5f;
  r.heading = 359;
  r.status = 1;
  r.passengers = 4;
  r.fare_cents = 12345;
  const std::vector<Record> records = {r};
  EXPECT_EQ(DeserializeRecords(SerializeRecords(records, GetParam()),
                               GetParam()),
            records);
}

TEST_P(LayoutTest, FleetRoundTrip) {
  const std::vector<Record> records = FleetRecords(5, 400);
  EXPECT_EQ(DeserializeRecords(SerializeRecords(records, GetParam()),
                               GetParam()),
            records);
}

TEST_P(LayoutTest, ExtremeValuesRoundTrip) {
  Record r;
  r.oid = 0xFFFFFFFFu;
  r.time = std::numeric_limits<std::int64_t>::max();
  r.x = -179.9999999;
  r.y = 89.9999999;
  r.speed = std::numeric_limits<float>::max();
  r.heading = 0xFFFF;
  r.status = 0xFF;
  r.passengers = 0xFF;
  r.fare_cents = 0xFFFFFFFFu;
  Record zero;
  zero.time = std::numeric_limits<std::int64_t>::min();
  const std::vector<Record> records = {r, zero, r};
  EXPECT_EQ(DeserializeRecords(SerializeRecords(records, GetParam()),
                               GetParam()),
            records);
}

TEST_P(LayoutTest, TruncatedInputThrows) {
  const std::vector<Record> records = FleetRecords(2, 100);
  Bytes data = SerializeRecords(records, GetParam());
  data.resize(data.size() / 3);
  EXPECT_THROW(DeserializeRecords(data, GetParam()), CorruptData);
}

TEST_P(LayoutTest, TrailingGarbageThrows) {
  const std::vector<Record> records = FleetRecords(1, 50);
  Bytes data = SerializeRecords(records, GetParam());
  data.push_back(0x00);
  EXPECT_THROW(DeserializeRecords(data, GetParam()), CorruptData);
}

// A full decode keeps every record: one with a NaN coordinate, which no
// range contains, must come back too.
TEST_P(LayoutTest, NanCoordinateRoundTrips) {
  Record plain;
  plain.oid = 3;
  plain.time = 1193875200;
  plain.x = 121.5;
  plain.y = 31.25;
  Record nan_x = plain;
  nan_x.time += 60;
  nan_x.x = std::numeric_limits<double>::quiet_NaN();
  const std::vector<Record> records = {plain, nan_x, plain};
  const std::vector<Record> decoded =
      DeserializeRecords(SerializeRecords(records, GetParam()), GetParam());
  ASSERT_EQ(decoded.size(), records.size());
  EXPECT_EQ(decoded[0], plain);
  EXPECT_TRUE(std::isnan(decoded[1].x));
  EXPECT_EQ(decoded[1].y, nan_x.y);
  EXPECT_EQ(decoded[1].time, nan_x.time);
  EXPECT_EQ(decoded[2], plain);
}

INSTANTIATE_TEST_SUITE_P(
    Layouts, LayoutTest, ::testing::Values(Layout::kRow, Layout::kColumn),
    [](const ::testing::TestParamInfo<Layout>& info) {
      return std::string(LayoutName(info.param));
    });

TEST(LayoutPropertyTest, RowLayoutIsFixedWidth) {
  // Every row payload is exactly kRecordRowBytes per record; the blocked
  // format adds only its framing: count + block size prefixes, then per
  // 512-record block a header of count, flags, six zone bounds and the
  // payload length.
  const auto varint_bytes = [](std::size_t v) {
    std::size_t bytes = 1;
    for (; v >= 0x80; v >>= 7) ++bytes;
    return bytes;
  };
  const std::vector<Record> records = FleetRecords(2, 600);  // 3 blocks
  std::size_t expected =
      varint_bytes(records.size()) + varint_bytes(kScanBlockRecords);
  for (std::size_t off = 0; off < records.size(); off += kScanBlockRecords) {
    const std::size_t n = std::min(kScanBlockRecords, records.size() - off);
    expected += varint_bytes(n) + 1 + 6 * 8 +
                varint_bytes(n * kRecordRowBytes) + n * kRecordRowBytes;
  }
  EXPECT_EQ(SerializeRecords(records, Layout::kRow).size(), expected);
}

TEST(LayoutPropertyTest, ColumnLayoutIsSmallerOnTrajectoryData) {
  // Per-column delta/XOR coding exploits trajectory continuity, so the
  // column layout should beat rows even before general compression —
  // this is the premise of Table I's ROW vs COL gap.
  TaxiFleetConfig config;
  config.num_taxis = 1;  // single trajectory maximizes continuity
  config.samples_per_taxi = 2000;
  const std::vector<Record> records = GenerateTaxiFleet(config).records();
  const Bytes row = SerializeRecords(records, Layout::kRow);
  const Bytes col = SerializeRecords(records, Layout::kColumn);
  EXPECT_LT(col.size(), row.size());
}

TEST(LayoutPropertyTest, LayoutNamesRoundTrip) {
  EXPECT_EQ(LayoutFromName("ROW"), Layout::kRow);
  EXPECT_EQ(LayoutFromName("COL"), Layout::kColumn);
  EXPECT_THROW(LayoutFromName("PAX"), InvalidArgument);
}

// The column block's range filter, seen through the scan and checked
// against STRange::Contains on the source records in both layouts, with
// block pruning on and off. The Simd* suite keeps the name it had when
// the filter came in several instruction-set flavours.
void ExpectScanMatchesContains(const std::vector<Record>& records,
                               const STRange& range) {
  std::vector<Record> expected;
  for (const Record& r : records)
    if (range.Contains(r.Position())) expected.push_back(r);
  for (const Layout layout : {Layout::kRow, Layout::kColumn}) {
    const Bytes data = SerializeRecords(records, layout);
    for (const bool prune : {true, false}) {
      EXPECT_EQ(DeserializeRecordsInRange(data, layout, range, nullptr, prune),
                expected)
          << LayoutName(layout) << (prune ? " pruned" : " unpruned")
          << " count=" << records.size();
    }
  }
}

std::vector<Record> UniformRecords(std::size_t count, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> dist(0.0, 100.0);
  std::vector<Record> records(count);
  for (Record& r : records) {
    r.x = dist(rng);
    r.y = dist(rng);
    r.time = static_cast<std::int64_t>(rng() % 101);
    r.oid = static_cast<std::uint32_t>(rng() % 7);
  }
  return records;
}

const STRange kFilterBox = STRange::FromBounds(20.0, 80.0, 10.0, 90.0, 5.0,
                                               55.0);

TEST(SimdFilterRangeTest, MatchesScalarReferenceAtBoundaryCounts) {
  // 64 is the bitmap-word boundary and 512 the block size; the odd
  // counts leave partial final words.
  for (const std::size_t count : {std::size_t(0), std::size_t(1),
                                  std::size_t(15), std::size_t(16),
                                  std::size_t(17), std::size_t(63),
                                  std::size_t(64), std::size_t(65),
                                  std::size_t(100), std::size_t(512),
                                  std::size_t(1000)}) {
    ExpectScanMatchesContains(UniformRecords(count, 1000 + count),
                              kFilterBox);
  }
}

TEST(SimdFilterRangeTest, BoundaryValuesAreInclusive) {
  std::vector<Record> records(4);
  const double xs[] = {20.0, 80.0, 19.999999, 80.000001};
  const double ys[] = {10.0, 90.0, 10.0, 90.0};
  const std::int64_t ts[] = {5, 55, 5, 55};
  for (std::size_t i = 0; i < records.size(); ++i) {
    records[i].x = xs[i];
    records[i].y = ys[i];
    records[i].time = ts[i];
  }
  ExpectScanMatchesContains(records, kFilterBox);
  // Closed bounds keep 20 and 80.
  EXPECT_EQ(DeserializeRecordsInRange(
                SerializeRecords(records, Layout::kColumn), Layout::kColumn,
                kFilterBox)
                .size(),
            2u);
}

TEST(SimdFilterRangeTest, NanCoordinatesNeverMatch) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<Record> records(70);
  for (std::size_t i = 0; i < records.size(); ++i) {
    records[i].x = i % 3 == 0 ? nan : 50.0;
    records[i].y = i % 5 == 1 ? nan : 50.0;
    records[i].time = 30;
  }
  ExpectScanMatchesContains(
      records, STRange::FromBounds(0.0, 100.0, 0.0, 100.0, 0.0, 100.0));
}

TEST(SimdFilterRangeTest, InvertedBoundsMatchNothing) {
  // The empty STRange matches nothing, in every block of both layouts.
  const std::vector<Record> records = UniformRecords(130, 9);
  ExpectScanMatchesContains(records, STRange());
  for (const Layout layout : {Layout::kRow, Layout::kColumn})
    EXPECT_TRUE(DeserializeRecordsInRange(SerializeRecords(records, layout),
                                          layout, STRange())
                    .empty());
}

}  // namespace
}  // namespace blot
