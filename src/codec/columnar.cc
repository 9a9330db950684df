#include "codec/columnar.h"

#include <bit>
#include <cmath>
#include <cstring>
#include <vector>

#include "util/error.h"

namespace blot {

namespace {

constexpr std::uint8_t kDoubleModeXor = 0;
constexpr std::uint8_t kDoubleModeQuantized = 1;

// One LEB128 varint from [p, end), advancing `p`; the same checks as
// ByteReader::GetVarint, without the reader.
std::uint64_t GetVarint(const std::uint8_t*& p, const std::uint8_t* end) {
  std::uint64_t v = 0;
  int shift = 0;
  for (;;) {
    validate(p < end, "column decode: truncated varint");
    const std::uint8_t byte = *p++;
    validate(shift < 64, "column decode: varint overflow");
    v |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) return v;
    shift += 7;
  }
}

// Prefix-sums `count` zig-zag varint deltas from 0 and hands each running
// value to `emit(i, value)`; returns the bytes consumed. Deltas wrap
// modulo 2^64 like the encoder's, so the sum is accumulated unsigned.
template <typename Emit>
std::size_t DecodeDeltas(BytesView in, std::size_t count, Emit&& emit) {
  const std::uint8_t* p = in.data();
  const std::uint8_t* end = p + in.size();
  std::uint64_t prev = 0;
  for (std::size_t i = 0; i < count; ++i) {
    prev += static_cast<std::uint64_t>(ZigZagDecode(GetVarint(p, end)));
    emit(i, static_cast<std::int64_t>(prev));
  }
  return static_cast<std::size_t>(p - in.data());
}

}  // namespace

void EncodeDeltaColumn(ByteWriter& out,
                       std::span<const std::int64_t> values) {
  // Deltas wrap modulo 2^64 (extreme values overflow int64); unsigned
  // arithmetic keeps the wraparound well-defined and the decoder's
  // matching addition undoes it exactly.
  std::uint64_t prev = 0;
  for (std::int64_t v : values) {
    const std::uint64_t u = static_cast<std::uint64_t>(v);
    out.PutSignedVarint(static_cast<std::int64_t>(u - prev));
    prev = u;
  }
}

std::size_t DecodeDeltaColumn(BytesView in, std::span<std::int64_t> out) {
  return DecodeDeltas(in, out.size(),
                      [&](std::size_t i, std::int64_t v) { out[i] = v; });
}

void EncodeRleColumn(ByteWriter& out, std::span<const std::uint8_t> values) {
  std::size_t i = 0;
  while (i < values.size()) {
    std::size_t run = 1;
    while (i + run < values.size() && values[i + run] == values[i]) ++run;
    out.PutU8(values[i]);
    out.PutVarint(run);
    i += run;
  }
}

std::size_t DecodeRleColumn(BytesView in, std::span<std::uint8_t> out) {
  const std::uint8_t* p = in.data();
  const std::uint8_t* end = p + in.size();
  std::size_t filled = 0;
  while (filled < out.size()) {
    validate(p < end, "DecodeRleColumn: truncated input");
    const std::uint8_t value = *p++;
    const std::uint64_t run = GetVarint(p, end);
    validate(run > 0 && run <= out.size() - filled,
             "DecodeRleColumn: run overflows column");
    std::memset(out.data() + filled, value, static_cast<std::size_t>(run));
    filled += static_cast<std::size_t>(run);
  }
  return static_cast<std::size_t>(p - in.data());
}

void EncodeXorColumn(ByteWriter& out, std::span<const double> values) {
  std::uint64_t prev = 0;
  for (double v : values) {
    const std::uint64_t bits = std::bit_cast<std::uint64_t>(v);
    out.PutVarint(bits ^ prev);
    prev = bits;
  }
}

std::size_t DecodeXorColumn(BytesView in, std::span<double> out) {
  const std::uint8_t* p = in.data();
  const std::uint8_t* end = p + in.size();
  std::uint64_t prev = 0;
  for (double& v : out) {
    prev ^= GetVarint(p, end);
    v = std::bit_cast<double>(prev);
  }
  return static_cast<std::size_t>(p - in.data());
}

void EncodeAdaptiveDoubleColumn(ByteWriter& out,
                                std::span<const double> values,
                                double denominator) {
  require(denominator > 0,
          "EncodeAdaptiveDoubleColumn: denominator must be positive");
  bool exact = true;
  std::vector<std::int64_t> quantized;
  quantized.reserve(values.size());
  for (double v : values) {
    const double scaled = v * denominator;
    if (!(std::abs(scaled) < 9.0e15)) {  // llround domain, rejects NaN/inf
      exact = false;
      break;
    }
    const std::int64_t q = std::llround(scaled);
    if (static_cast<double>(q) / denominator != v) {
      exact = false;
      break;
    }
    quantized.push_back(q);
  }
  if (exact) {
    out.PutU8(kDoubleModeQuantized);
    out.PutF64(denominator);
    EncodeDeltaColumn(out, quantized);
  } else {
    out.PutU8(kDoubleModeXor);
    EncodeXorColumn(out, values);
  }
}

std::size_t DecodeAdaptiveDoubleColumn(BytesView in, std::span<double> out) {
  validate(!in.empty(), "DecodeAdaptiveDoubleColumn: truncated input");
  const std::uint8_t mode = in[0];
  if (mode == kDoubleModeXor) return 1 + DecodeXorColumn(in.subspan(1), out);
  validate(mode == kDoubleModeQuantized,
           "DecodeAdaptiveDoubleColumn: unknown mode");
  validate(in.size() >= 9, "DecodeAdaptiveDoubleColumn: truncated input");
  std::uint64_t bits = 0;
  for (int i = 0; i < 8; ++i)
    bits |= static_cast<std::uint64_t>(in[1 + i]) << (8 * i);
  const double denominator = std::bit_cast<double>(bits);
  validate(denominator > 0, "DecodeAdaptiveDoubleColumn: bad denominator");
  return 9 + DecodeDeltas(in.subspan(9), out.size(),
                          [&](std::size_t i, std::int64_t q) {
                            out[i] = static_cast<double>(q) / denominator;
                          });
}

void EncodeF32Column(ByteWriter& out, std::span<const float> values) {
  for (float v : values) out.PutF32(v);
}

std::size_t DecodeF32Column(BytesView in, std::span<float> out) {
  validate(in.size() / 4 >= out.size(), "DecodeF32Column: truncated input");
  const std::uint8_t* p = in.data();
  for (float& v : out) {
    // Explicit little-endian assembly, matching ByteReader::GetF32.
    const std::uint32_t bits = static_cast<std::uint32_t>(p[0]) |
                               static_cast<std::uint32_t>(p[1]) << 8 |
                               static_cast<std::uint32_t>(p[2]) << 16 |
                               static_cast<std::uint32_t>(p[3]) << 24;
    v = std::bit_cast<float>(bits);
    p += 4;
  }
  return out.size() * 4;
}

}  // namespace blot
