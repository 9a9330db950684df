// Column-wise encoding primitives: delta, run-length, and float packing.
//
// The column layout of Section II-C stores each attribute contiguously and
// applies per-column transforms before general compression: timestamps and
// object IDs delta-encode extremely well within a spatio-temporal
// partition, and low-cardinality attributes (status flags) run-length
// encode. All emitters append to a ByteWriter.
//
// Each transform has exactly one decoder. It reads `out.size()` values
// from the front of `in`, writes them to `out`, and returns the number of
// bytes it consumed. Malformed input (truncation, varint overflow, an RLE
// run past the end of `out`, an unknown mode byte) throws CorruptData.
#ifndef BLOT_CODEC_COLUMNAR_H_
#define BLOT_CODEC_COLUMNAR_H_

#include <cstddef>
#include <cstdint>
#include <span>

#include "util/bytes.h"

namespace blot {

// Delta + zig-zag + varint coding for integer columns. The first value is
// stored absolutely; each subsequent value as a signed delta.
void EncodeDeltaColumn(ByteWriter& out, std::span<const std::int64_t> values);
std::size_t DecodeDeltaColumn(BytesView in, std::span<std::int64_t> out);

// Run-length coding for byte columns: (value, varint run) pairs.
void EncodeRleColumn(ByteWriter& out, std::span<const std::uint8_t> values);
std::size_t DecodeRleColumn(BytesView in, std::span<std::uint8_t> out);

// Lossless doubles: XOR of consecutive IEEE-754 bit patterns, varint-coded
// (Gorilla-style without bit packing).
void EncodeXorColumn(ByteWriter& out, std::span<const double> values);
std::size_t DecodeXorColumn(BytesView in, std::span<double> out);

// Lossless adaptive doubles, tuned for GPS coordinates: when every value
// round-trips exactly through fixed-point quantization v ==
// double(llround(v * denominator)) / denominator, stores zig-zag varint
// deltas of the quantized integers (tiny for trajectory data); otherwise
// falls back to XOR coding. A mode byte selects the decoder path.
void EncodeAdaptiveDoubleColumn(ByteWriter& out,
                                std::span<const double> values,
                                double denominator = 1e6);
std::size_t DecodeAdaptiveDoubleColumn(BytesView in, std::span<double> out);

// 32-bit floats stored as raw little-endian words.
void EncodeF32Column(ByteWriter& out, std::span<const float> values);
std::size_t DecodeF32Column(BytesView in, std::span<float> out);

}  // namespace blot

#endif  // BLOT_CODEC_COLUMNAR_H_
