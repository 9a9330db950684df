// Bit-level I/O used by the Huffman stage of the Gzip-class codec.
//
// Bits are packed LSB-first within each byte (DEFLATE convention).
#ifndef BLOT_CODEC_BITSTREAM_H_
#define BLOT_CODEC_BITSTREAM_H_

#include <cstdint>

#include "util/bytes.h"

namespace blot {

class BitWriter {
 public:
  // Writes the low `count` bits of `bits` (0 <= count <= 32),
  // least-significant bit first.
  void WriteBits(std::uint32_t bits, int count);

  // Pads the current byte with zero bits and returns the buffer.
  Bytes Finish();

  std::size_t BitCount() const { return buffer_.size() * 8 + pending_bits_; }

 private:
  Bytes buffer_;
  std::uint64_t pending_ = 0;  // bits not yet in buffer_, LSB first
  int pending_bits_ = 0;       // < 8 between calls
};

class BitReader {
 public:
  explicit BitReader(BytesView data) : data_(data) {}

  // Reads `count` bits (0 <= count <= 32), least-significant bit first.
  // Throws CorruptData past end of input.
  std::uint32_t ReadBits(int count);

  // Reads a single bit.
  std::uint32_t ReadBit();

  // Number of whole bits still available.
  std::size_t RemainingBits() const {
    return data_.size() * 8 - bit_position_;
  }

 private:
  BytesView data_;
  std::size_t bit_position_ = 0;
};

}  // namespace blot

#endif  // BLOT_CODEC_BITSTREAM_H_
