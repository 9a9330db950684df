// Canonical Huffman coding (DEFLATE-style, MSB-first code bits).
//
// Used by the Gzip-class codec: code lengths are derived from symbol
// frequencies with a 15-bit length limit, transmitted in the frame header,
// and both sides reconstruct identical canonical codes from the lengths.
#ifndef BLOT_CODEC_HUFFMAN_H_
#define BLOT_CODEC_HUFFMAN_H_

#include <cstdint>
#include <vector>

#include "codec/bitstream.h"

namespace blot {

inline constexpr int kMaxHuffmanBits = 15;

// Computes canonical code lengths (<= kMaxHuffmanBits) for the given
// symbol frequencies. Symbols with zero frequency get length 0 (no code).
// If only one symbol occurs it is assigned length 1.
std::vector<std::uint8_t> BuildHuffmanCodeLengths(
    const std::vector<std::uint64_t>& frequencies);

// Encoder table: canonical code bits per symbol, derived from lengths.
class HuffmanEncoder {
 public:
  explicit HuffmanEncoder(const std::vector<std::uint8_t>& lengths);

  // Writes the code for `symbol` (which must have a non-zero length).
  void Write(BitWriter& out, std::size_t symbol) const;

 private:
  std::vector<std::uint16_t> reversed_codes_;  // canonical code, LSB first
  std::vector<std::uint8_t> lengths_;
};

// Decoder table over the same canonical code.
class HuffmanDecoder {
 public:
  // Throws CorruptData if `lengths` does not describe a prefix code.
  explicit HuffmanDecoder(const std::vector<std::uint8_t>& lengths);

  // Reads one symbol. Throws CorruptData on invalid codes or truncation.
  std::size_t Read(BitReader& in) const;

 private:
  std::vector<std::uint16_t> first_code_;   // per bit length
  std::vector<std::uint32_t> first_index_;  // per bit length
  std::vector<std::uint16_t> count_;        // per bit length
  std::vector<std::uint32_t> symbols_;      // sorted by (length, symbol)
};

}  // namespace blot

#endif  // BLOT_CODEC_HUFFMAN_H_
