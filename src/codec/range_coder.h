// Adaptive binary range coder (LZMA design point).
//
// Probabilities are 11-bit adaptive counters updated with shift-5
// exponential decay, the exact scheme of the LZMA reference coder. The
// encoder carries the standard cache/cache-size mechanism to propagate
// carries into already-emitted bytes.
#ifndef BLOT_CODEC_RANGE_CODER_H_
#define BLOT_CODEC_RANGE_CODER_H_

#include <cstdint>
#include <span>

#include "util/bytes.h"

namespace blot {

// One adaptive binary probability state.
using BitProb = std::uint16_t;

inline constexpr int kProbBits = 11;
inline constexpr BitProb kProbInit = (1u << kProbBits) / 2;
inline constexpr int kProbMoveBits = 5;

class RangeEncoder {
 public:
  // Encodes one bit under the adaptive probability `p` (updated in place).
  void EncodeBit(BitProb& p, std::uint32_t bit);

  // Encodes `count` bits of `value` (MSB first) with probability 1/2 each.
  void EncodeDirectBits(std::uint32_t value, int count);

  // Encodes `value` in [0, 2^bits) through a bit tree rooted at probs[1];
  // `probs` must hold at least 2^bits entries.
  void EncodeBitTree(std::span<BitProb> probs, int bits, std::uint32_t value);

  // Flushes pending state and returns the encoded bytes.
  Bytes Finish();

 private:
  void ShiftLow();

  std::uint64_t low_ = 0;
  std::uint32_t range_ = 0xFFFFFFFFu;
  std::uint8_t cache_ = 0;
  std::uint64_t cache_size_ = 1;
  Bytes out_;
};

class RangeDecoder {
 public:
  // Begins decoding; consumes the 5-byte preamble.
  explicit RangeDecoder(BytesView data);

  std::uint32_t DecodeBit(BitProb& p);
  std::uint32_t DecodeDirectBits(int count);
  std::uint32_t DecodeBitTree(std::span<BitProb> probs, int bits);

 private:
  std::uint8_t NextByte();
  void Normalize();

  BytesView data_;
  std::size_t position_ = 0;
  std::uint32_t range_ = 0xFFFFFFFFu;
  std::uint32_t code_ = 0;
};

}  // namespace blot

#endif  // BLOT_CODEC_RANGE_CODER_H_
