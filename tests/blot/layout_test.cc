#include "blot/layout.h"

#include <gtest/gtest.h>

#include <algorithm>

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

}  // namespace
}  // namespace blot
