#include "codec/bitstream.h"

#include "util/error.h"

namespace blot {

void BitWriter::WriteBits(std::uint32_t bits, int count) {
  require(count >= 0 && count <= 32, "BitWriter: bit count out of range");
  const std::uint64_t mask = (std::uint64_t{1} << count) - 1;
  pending_ |= (bits & mask) << pending_bits_;
  pending_bits_ += count;
  for (; pending_bits_ >= 8; pending_bits_ -= 8) {
    buffer_.push_back(static_cast<std::uint8_t>(pending_));
    pending_ >>= 8;
  }
}

Bytes BitWriter::Finish() {
  if (pending_bits_ > 0) {
    buffer_.push_back(static_cast<std::uint8_t>(pending_));
    pending_ = 0;
    pending_bits_ = 0;
  }
  return std::move(buffer_);
}

std::uint32_t BitReader::ReadBits(int count) {
  require(count >= 0 && count <= 32, "BitReader: bit count out of range");
  std::uint32_t v = 0;
  for (int i = 0; i < count; ++i) v |= ReadBit() << i;
  return v;
}

std::uint32_t BitReader::ReadBit() {
  validate(bit_position_ < data_.size() * 8, "BitReader: truncated input");
  const std::uint32_t bit =
      (data_[bit_position_ >> 3] >> (bit_position_ & 7)) & 1u;
  ++bit_position_;
  return bit;
}

}  // namespace blot
