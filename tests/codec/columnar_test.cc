#include "codec/columnar.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

#include "util/error.h"
#include "util/rng.h"

namespace blot {
namespace {

// Decodes `count` values of one column transform from `buf`, checking
// that the decoder consumed the whole encoding.
template <typename T, typename Decode>
std::vector<T> DecodeAll(const Bytes& buf, std::size_t count,
                         Decode decode) {
  std::vector<T> out(count);
  EXPECT_EQ(decode(BytesView(buf), std::span<T>(out)), buf.size());
  return out;
}

std::vector<std::int64_t> DecodeDelta(const Bytes& buf, std::size_t count) {
  return DecodeAll<std::int64_t>(buf, count, DecodeDeltaColumn);
}
std::vector<std::uint8_t> DecodeRle(const Bytes& buf, std::size_t count) {
  return DecodeAll<std::uint8_t>(buf, count, DecodeRleColumn);
}
std::vector<double> DecodeXor(const Bytes& buf, std::size_t count) {
  return DecodeAll<double>(buf, count, DecodeXorColumn);
}
std::vector<double> DecodeAdaptive(const Bytes& buf, std::size_t count) {
  return DecodeAll<double>(buf, count, DecodeAdaptiveDoubleColumn);
}
std::vector<float> DecodeF32(const Bytes& buf, std::size_t count) {
  return DecodeAll<float>(buf, count, DecodeF32Column);
}

TEST(DeltaColumnTest, RoundTripMonotonicTimestamps) {
  Rng rng(1);
  std::vector<std::int64_t> times;
  std::int64_t t = 1193875200;
  for (int i = 0; i < 10000; ++i) {
    t += rng.NextInt64(0, 120);
    times.push_back(t);
  }
  ByteWriter w;
  EncodeDeltaColumn(w, times);
  const Bytes buf = w.Take();
  // Monotonic small deltas should use ~1-2 bytes per value, far below the
  // 8 bytes of raw storage.
  EXPECT_LT(buf.size(), times.size() * 3);
  EXPECT_EQ(DecodeDelta(buf, times.size()), times);
}

TEST(DeltaColumnTest, RoundTripExtremeValues) {
  const std::vector<std::int64_t> values = {
      0, std::numeric_limits<std::int64_t>::max(),
      std::numeric_limits<std::int64_t>::min(), -1, 1, 0};
  ByteWriter w;
  EncodeDeltaColumn(w, values);
  const Bytes buf = w.Take();
  EXPECT_EQ(DecodeDelta(buf, values.size()), values);
}

TEST(DeltaColumnTest, EmptyColumn) {
  ByteWriter w;
  EncodeDeltaColumn(w, {});
  const Bytes buf = w.Take();
  EXPECT_TRUE(buf.empty());
  EXPECT_TRUE(DecodeDelta(buf, 0).empty());
}

TEST(RleColumnTest, RoundTripLowCardinality) {
  Rng rng(2);
  std::vector<std::uint8_t> values;
  while (values.size() < 5000) {
    const std::uint8_t v = static_cast<std::uint8_t>(rng.NextUint64(3));
    const std::size_t run = 1 + rng.NextUint64(200);
    values.insert(values.end(), run, v);
  }
  ByteWriter w;
  EncodeRleColumn(w, values);
  const Bytes buf = w.Take();
  EXPECT_LT(buf.size(), values.size() / 10);
  EXPECT_EQ(DecodeRle(buf, values.size()), values);
}

TEST(RleColumnTest, WorstCaseAlternating) {
  std::vector<std::uint8_t> values;
  for (int i = 0; i < 1000; ++i)
    values.push_back(static_cast<std::uint8_t>(i & 1));
  ByteWriter w;
  EncodeRleColumn(w, values);
  const Bytes buf = w.Take();
  EXPECT_EQ(DecodeRle(buf, values.size()), values);
}

TEST(RleColumnTest, RunOverflowingCountThrows) {
  ByteWriter w;
  w.PutU8(7);
  w.PutVarint(10);
  const Bytes buf = w.Take();
  std::vector<std::uint8_t> out(5);
  EXPECT_THROW(DecodeRleColumn(buf, out), CorruptData);
}

TEST(XorColumnTest, LosslessRoundTripIncludingSpecials) {
  std::vector<double> values = {0.0, -0.0, 1.5, -2.25,
                                std::numeric_limits<double>::infinity(),
                                -std::numeric_limits<double>::infinity(),
                                std::numeric_limits<double>::denorm_min(),
                                121.473700001};
  ByteWriter w;
  EncodeXorColumn(w, values);
  const Bytes buf = w.Take();
  const auto decoded = DecodeXor(buf, values.size());
  ASSERT_EQ(decoded.size(), values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(decoded[i]),
              std::bit_cast<std::uint64_t>(values[i]));
  }
}

TEST(XorColumnTest, IdenticalValuesAreOneBytePerEntry) {
  const std::vector<double> values(1000, 121.4737);
  ByteWriter w;
  EncodeXorColumn(w, values);
  // First value costs up to 10 varint bytes; repeats XOR to zero = 1 byte.
  EXPECT_LE(w.size(), 1010u);
}

TEST(AdaptiveDoubleColumnTest, QuantizedPathRoundTripsGpsData) {
  // Values produced like the taxi generator: exact multiples of 1e-6 (in
  // the round-then-divide sense), which should take the compact path.
  std::vector<double> values;
  for (int i = 0; i < 5000; ++i)
    values.push_back(std::round((121.4 + i * 1e-4) * 1e6) / 1e6);
  ByteWriter w;
  EncodeAdaptiveDoubleColumn(w, values);
  const Bytes buf = w.Take();
  EXPECT_LT(buf.size(), values.size() * 3);  // far below 8 B/value
  const auto decoded = DecodeAdaptive(buf, values.size());
  ASSERT_EQ(decoded.size(), values.size());
  for (std::size_t i = 0; i < values.size(); ++i)
    EXPECT_EQ(std::bit_cast<std::uint64_t>(decoded[i]),
              std::bit_cast<std::uint64_t>(values[i]));
}

TEST(AdaptiveDoubleColumnTest, XorFallbackForArbitraryDoubles) {
  Rng rng(9);
  std::vector<double> values;
  for (int i = 0; i < 1000; ++i)
    values.push_back(rng.NextGaussian() * 1e-9);  // not 1e-6 multiples
  values.push_back(std::numeric_limits<double>::infinity());
  values.push_back(0.1 + 0.2);
  ByteWriter w;
  EncodeAdaptiveDoubleColumn(w, values);
  const Bytes buf = w.Take();
  const auto decoded = DecodeAdaptive(buf, values.size());
  ASSERT_EQ(decoded.size(), values.size());
  for (std::size_t i = 0; i < values.size(); ++i)
    EXPECT_EQ(std::bit_cast<std::uint64_t>(decoded[i]),
              std::bit_cast<std::uint64_t>(values[i]));
}

TEST(AdaptiveDoubleColumnTest, EmptyColumnTakesQuantizedPath) {
  ByteWriter w;
  EncodeAdaptiveDoubleColumn(w, {});
  const Bytes buf = w.Take();
  EXPECT_EQ(buf.size(), 1u + 8u);  // mode byte + denominator, no values
  EXPECT_TRUE(DecodeAdaptive(buf, 0).empty());
}

TEST(AdaptiveDoubleColumnTest, MalformedHeaderThrows) {
  std::vector<double> out(1);
  EXPECT_THROW(DecodeAdaptiveDoubleColumn(BytesView(), out), CorruptData);
  const Bytes unknown_mode = {7, 0};
  EXPECT_THROW(DecodeAdaptiveDoubleColumn(unknown_mode, out), CorruptData);
  const Bytes short_denominator = {1, 0, 0, 0};
  EXPECT_THROW(DecodeAdaptiveDoubleColumn(short_denominator, out),
               CorruptData);
  ByteWriter w;
  w.PutU8(1);
  w.PutF64(-1.0);
  w.PutSignedVarint(0);
  const Bytes negative_denominator = w.Take();
  EXPECT_THROW(DecodeAdaptiveDoubleColumn(negative_denominator, out),
               CorruptData);
}

TEST(F32ColumnTest, RoundTrip) {
  Rng rng(4);
  std::vector<float> values;
  for (int i = 0; i < 1000; ++i)
    values.push_back(static_cast<float>(rng.NextDouble(0, 120)));
  ByteWriter w;
  EncodeF32Column(w, values);
  const Bytes buf = w.Take();
  EXPECT_EQ(buf.size(), values.size() * 4);
  EXPECT_EQ(DecodeF32(buf, values.size()), values);
}

// Edge cases of the column decoders, byte for byte. The Simd* suites
// keep the names they had when these decoders came in several
// instruction-set flavours, so each case's history stays one series.

Bytes EncodeDelta(const std::vector<std::int64_t>& values) {
  ByteWriter out;
  EncodeDeltaColumn(out, values);
  return out.Take();
}

void ExpectDeltaDecodes(const std::vector<std::int64_t>& values) {
  EXPECT_EQ(DecodeDelta(EncodeDelta(values), values.size()), values);
}

TEST(SimdDeltaDecodeTest, AllEnginesMatchEncoderInverse) {
  // Dense single-byte deltas.
  std::vector<std::int64_t> dense;
  for (int i = 0; i < 1000; ++i) dense.push_back(i * 3 - (i % 7));
  ExpectDeltaDecodes(dense);

  // Large jumps force multi-byte varints on every value.
  std::vector<std::int64_t> sparse;
  std::int64_t v = 0;
  for (int i = 0; i < 300; ++i) {
    v += (i % 2 ? 1 : -1) * (std::int64_t(1) << (i % 50));
    sparse.push_back(v);
  }
  ExpectDeltaDecodes(sparse);
}

TEST(SimdDeltaDecodeTest, MixedRunsCrossTheSixteenByteFastPath) {
  // Long single-byte runs alternate with multi-byte spikes, so varint
  // lengths change at every offset mod 16.
  std::mt19937_64 rng(42);
  std::vector<std::int64_t> values;
  std::int64_t v = 0;
  for (int run = 0; run < 40; ++run) {
    const std::size_t len = 1 + rng() % 37;
    for (std::size_t i = 0; i < len; ++i) {
      v += std::int64_t(rng() % 64) - 31;  // one-byte zig-zag deltas
      values.push_back(v);
    }
    v += std::int64_t(rng()) % (std::int64_t(1) << 40);  // spike
    values.push_back(v);
  }
  ExpectDeltaDecodes(values);
}

TEST(SimdDeltaDecodeTest, ExtremeValuesRoundTrip) {
  ExpectDeltaDecodes({std::numeric_limits<std::int64_t>::max(),
                      std::numeric_limits<std::int64_t>::min(), 0, -1, 1,
                      std::numeric_limits<std::int64_t>::min()});
}

TEST(SimdDeltaDecodeTest, CountsOfEveryResidueMod16) {
  for (std::size_t n = 0; n <= 48; ++n) {
    std::vector<std::int64_t> values;
    for (std::size_t i = 0; i < n; ++i) values.push_back(std::int64_t(i) * 5);
    ExpectDeltaDecodes(values);
  }
}

TEST(SimdDeltaDecodeTest, TruncatedInputThrows) {
  std::vector<std::int64_t> values;
  for (int i = 0; i < 64; ++i) values.push_back(i * 1000003);  // multi-byte
  const Bytes data = EncodeDelta(values);
  for (const std::size_t cut : {std::size_t(0), std::size_t(1),
                                data.size() / 2, data.size() - 1}) {
    std::vector<std::int64_t> out(values.size());
    EXPECT_THROW(DecodeDeltaColumn(BytesView(data).first(cut), out),
                 CorruptData)
        << "cut=" << cut;
  }
}

TEST(SimdDeltaDecodeTest, VarintOverflowThrows) {
  // Eleven continuation bytes: shift reaches 70 before termination.
  const Bytes bad(11, 0x80);
  std::vector<std::int64_t> out(1);
  EXPECT_THROW(DecodeDeltaColumn(bad, out), CorruptData);
}

TEST(SimdDeltaDecodeTest, MaxLengthVarintDecodes) {
  // 10-byte varint carrying all 64 bits: zig-zag of UINT64_MAX is
  // int64 min.
  Bytes max10(10, 0xFF);
  max10[9] = 0x01;
  std::vector<std::int64_t> out(1);
  EXPECT_EQ(DecodeDeltaColumn(max10, out), 10u);
  EXPECT_EQ(out[0], std::numeric_limits<std::int64_t>::min());
}

TEST(SimdXorDecodeTest, AllEnginesMatchEncoderInverse) {
  std::mt19937_64 rng(7);
  std::vector<double> values;
  double x = 121.47;
  for (int i = 0; i < 777; ++i) {
    x += double(rng() % 1000) * 1e-6 - 5e-4;
    values.push_back(x);
  }
  values.push_back(std::numeric_limits<double>::quiet_NaN());
  values.push_back(-std::numeric_limits<double>::infinity());
  ByteWriter enc;
  EncodeXorColumn(enc, values);
  const std::vector<double> out = DecodeXor(enc.Take(), values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (std::isnan(values[i]))
      EXPECT_TRUE(std::isnan(out[i]));
    else
      EXPECT_EQ(out[i], values[i]) << "i=" << i;
  }
}

TEST(SimdRleDecodeTest, AllEnginesMatchEncoderInverse) {
  std::vector<std::uint8_t> values;
  for (int run = 0; run < 30; ++run)
    values.insert(values.end(), 1 + (run * 13) % 200,
                  std::uint8_t(run % 5));
  ByteWriter enc;
  EncodeRleColumn(enc, values);
  EXPECT_EQ(DecodeRle(enc.Take(), values.size()), values);
}

TEST(SimdRleDecodeTest, OverlongRunThrows) {
  // A run longer than the requested count must throw, not overflow out.
  ByteWriter enc;
  EncodeRleColumn(enc, std::vector<std::uint8_t>(10, 3));
  const Bytes data = enc.Take();
  std::vector<std::uint8_t> out(4);
  EXPECT_THROW(DecodeRleColumn(data, out), CorruptData);
}

TEST(SimdF32DecodeTest, AllEnginesMatchEncoderInverse) {
  std::vector<float> values;
  for (int i = 0; i < 333; ++i) values.push_back(float(i) * 0.37f - 11.0f);
  ByteWriter enc;
  EncodeF32Column(enc, values);
  const Bytes data = enc.Take();
  EXPECT_EQ(DecodeF32(data, values.size()), values);
  std::vector<float> out(values.size());
  EXPECT_THROW(DecodeF32Column(BytesView(data).first(data.size() - 1), out),
               CorruptData);
}

}  // namespace
}  // namespace blot
