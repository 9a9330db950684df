#include "codec/range_coder.h"

#include "util/error.h"

namespace blot {

namespace {
constexpr std::uint32_t kTopValue = 1u << 24;
}  // namespace

void RangeEncoder::EncodeBit(BitProb& p, std::uint32_t bit) {
  const std::uint32_t bound = (range_ >> kProbBits) * p;
  if (bit == 0) {
    range_ = bound;
    p = static_cast<BitProb>(p + (((1u << kProbBits) - p) >> kProbMoveBits));
  } else {
    low_ += bound;
    range_ -= bound;
    p = static_cast<BitProb>(p - (p >> kProbMoveBits));
  }
  while (range_ < kTopValue) {
    ShiftLow();
    range_ <<= 8;
  }
}

void RangeEncoder::EncodeDirectBits(std::uint32_t value, int count) {
  for (int i = count - 1; i >= 0; --i) {
    range_ >>= 1;
    if ((value >> i) & 1u) low_ += range_;
    while (range_ < kTopValue) {
      ShiftLow();
      range_ <<= 8;
    }
  }
}

void RangeEncoder::EncodeBitTree(std::span<BitProb> probs, int bits,
                                 std::uint32_t value) {
  std::uint32_t node = 1;
  for (int i = bits - 1; i >= 0; --i) {
    const std::uint32_t bit = (value >> i) & 1u;
    EncodeBit(probs[node], bit);
    node = (node << 1) | bit;
  }
}

void RangeEncoder::ShiftLow() {
  if (static_cast<std::uint32_t>(low_) < 0xFF000000u || (low_ >> 32) != 0) {
    const std::uint8_t carry = static_cast<std::uint8_t>(low_ >> 32);
    std::uint8_t byte = cache_;
    do {
      out_.push_back(static_cast<std::uint8_t>(byte + carry));
      byte = 0xFF;
    } while (--cache_size_ != 0);
    cache_ = static_cast<std::uint8_t>(low_ >> 24);
  }
  ++cache_size_;
  low_ = (low_ << 8) & 0xFFFFFFFFull;
}

Bytes RangeEncoder::Finish() {
  for (int i = 0; i < 5; ++i) ShiftLow();
  return std::move(out_);
}

RangeDecoder::RangeDecoder(BytesView data) : data_(data) {
  // The first preamble byte is always zero by construction of the encoder
  // cache; the following four initialize the code register.
  NextByte();
  for (int i = 0; i < 4; ++i) code_ = (code_ << 8) | NextByte();
}

std::uint8_t RangeDecoder::NextByte() {
  // Reads past the end decode as zero; the caller validates the final
  // output size, which catches truncation.
  if (position_ >= data_.size()) return 0;
  return data_[position_++];
}

void RangeDecoder::Normalize() {
  while (range_ < kTopValue) {
    code_ = (code_ << 8) | NextByte();
    range_ <<= 8;
  }
}

std::uint32_t RangeDecoder::DecodeBit(BitProb& p) {
  const std::uint32_t bound = (range_ >> kProbBits) * p;
  std::uint32_t bit;
  if (code_ < bound) {
    range_ = bound;
    p = static_cast<BitProb>(p + (((1u << kProbBits) - p) >> kProbMoveBits));
    bit = 0;
  } else {
    code_ -= bound;
    range_ -= bound;
    p = static_cast<BitProb>(p - (p >> kProbMoveBits));
    bit = 1;
  }
  Normalize();
  return bit;
}

std::uint32_t RangeDecoder::DecodeDirectBits(int count) {
  std::uint32_t value = 0;
  for (int i = 0; i < count; ++i) {
    range_ >>= 1;
    std::uint32_t bit = 0;
    if (code_ >= range_) {
      code_ -= range_;
      bit = 1;
    }
    value = (value << 1) | bit;
    Normalize();
  }
  return value;
}

std::uint32_t RangeDecoder::DecodeBitTree(std::span<BitProb> probs,
                                          int bits) {
  std::uint32_t node = 1;
  for (int i = 0; i < bits; ++i) node = (node << 1) | DecodeBit(probs[node]);
  return node - (1u << bits);
}

}  // namespace blot
