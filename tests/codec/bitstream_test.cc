#include "codec/bitstream.h"

#include <gtest/gtest.h>

#include "util/error.h"
#include "util/rng.h"

namespace blot {
namespace {

TEST(BitstreamTest, SingleBitsRoundTrip) {
  BitWriter w;
  const std::vector<int> bits = {1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1};
  for (int b : bits) w.WriteBits(static_cast<std::uint32_t>(b), 1);
  const Bytes buf = w.Finish();
  EXPECT_EQ(buf.size(), 2u);
  BitReader r(buf);
  for (int b : bits) EXPECT_EQ(r.ReadBit(), static_cast<std::uint32_t>(b));
}

TEST(BitstreamTest, MultiBitValuesRoundTrip) {
  BitWriter w;
  w.WriteBits(0x5, 3);
  w.WriteBits(0xABC, 12);
  w.WriteBits(0xFFFFFFFF, 32);
  w.WriteBits(0, 0);
  w.WriteBits(1, 1);
  const Bytes buf = w.Finish();
  BitReader r(buf);
  EXPECT_EQ(r.ReadBits(3), 0x5u);
  EXPECT_EQ(r.ReadBits(12), 0xABCu);
  EXPECT_EQ(r.ReadBits(32), 0xFFFFFFFFu);
  EXPECT_EQ(r.ReadBits(0), 0u);
  EXPECT_EQ(r.ReadBits(1), 1u);
}

TEST(BitstreamTest, RandomizedRoundTrip) {
  Rng rng(99);
  BitWriter w;
  std::vector<std::pair<std::uint32_t, int>> writes;
  for (int i = 0; i < 2000; ++i) {
    const int count = static_cast<int>(rng.NextUint64(33));
    const std::uint32_t value =
        count == 32 ? static_cast<std::uint32_t>(rng())
                    : static_cast<std::uint32_t>(rng()) & ((1u << count) - 1);
    writes.emplace_back(value, count);
    w.WriteBits(value, count);
  }
  const Bytes buf = w.Finish();
  BitReader r(buf);
  for (const auto& [value, count] : writes)
    EXPECT_EQ(r.ReadBits(count), value);
}

TEST(BitstreamTest, ReadPastEndThrows) {
  BitWriter w;
  w.WriteBits(1, 1);
  const Bytes buf = w.Finish();
  BitReader r(buf);
  r.ReadBits(8);  // padded byte is readable
  EXPECT_THROW(r.ReadBit(), CorruptData);
}

TEST(BitstreamTest, CountValidation) {
  BitWriter w;
  EXPECT_THROW(w.WriteBits(0, 33), InvalidArgument);
  EXPECT_THROW(w.WriteBits(0, -1), InvalidArgument);
  const Bytes buf = {0xFF};
  BitReader r(buf);
  EXPECT_THROW(r.ReadBits(33), InvalidArgument);
}

// The writer packs whole bytes from a 64-bit accumulator; a one-bit-at-a-
// time reference must produce the same bytes for any mix of widths.
TEST(BitstreamTest, MixedWidthsMatchBitByBitReference) {
  Rng rng(7);
  BitWriter w;
  Bytes reference;
  std::size_t bit_count = 0;
  for (int i = 0; i < 5000; ++i) {
    const int count = static_cast<int>(rng.NextUint64(33));
    // High garbage above `count` must be ignored.
    const std::uint32_t bits = static_cast<std::uint32_t>(rng());
    w.WriteBits(bits, count);
    for (int b = 0; b < count; ++b, ++bit_count) {
      if (bit_count % 8 == 0) reference.push_back(0);
      reference.back() |=
          static_cast<std::uint8_t>(((bits >> b) & 1u) << (bit_count % 8));
    }
    ASSERT_EQ(w.BitCount(), bit_count);
  }
  EXPECT_EQ(w.Finish(), reference);
}

TEST(BitstreamTest, BitCountTracksProgress) {
  BitWriter w;
  EXPECT_EQ(w.BitCount(), 0u);
  w.WriteBits(0, 5);
  EXPECT_EQ(w.BitCount(), 5u);
  w.WriteBits(0, 5);
  EXPECT_EQ(w.BitCount(), 10u);
}

}  // namespace
}  // namespace blot
