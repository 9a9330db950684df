#include "codec/gzip_like.h"

#include <algorithm>
#include <array>

#include "codec/bitstream.h"
#include "codec/huffman.h"
#include "codec/lz_common.h"
#include "util/error.h"

namespace blot {
namespace {

constexpr std::uint8_t kFrameStored = 0;
constexpr std::uint8_t kFrameHuffman = 1;

constexpr std::size_t kEndOfBlock = 256;
constexpr std::size_t kNumLitLenSymbols = 286;
constexpr std::size_t kNumDistSymbols = 30;

// DEFLATE length codes 257..285: base length and number of extra bits.
constexpr std::array<std::uint16_t, 29> kLengthBase = {
    3,  4,  5,  6,  7,  8,  9,  10, 11,  13,  15,  17,  19,  23, 27,
    31, 35, 43, 51, 59, 67, 83, 99, 115, 131, 163, 195, 227, 258};
constexpr std::array<std::uint8_t, 29> kLengthExtra = {
    0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2,
    2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0};

// DEFLATE distance codes 0..29: base distance and number of extra bits.
constexpr std::array<std::uint32_t, 30> kDistBase = {
    1,    2,    3,    4,    5,    7,     9,     13,    17,   25,
    33,   49,   65,   97,   129,  193,   257,   385,   513,  769,
    1025, 1537, 2049, 3073, 4097, 6145,  8193,  12289, 16385, 24577};
constexpr std::array<std::uint8_t, 30> kDistExtra = {
    0, 0, 0, 0, 1, 1, 2, 2,  3,  3,  4,  4,  5,  5,  6,
    6, 7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13, 13};

// Maps a match length in [3, 258] to its length-code index in [0, 28].
std::size_t LengthCodeIndex(std::uint32_t length) {
  for (std::size_t i = kLengthBase.size(); i-- > 0;) {
    if (length >= kLengthBase[i]) return i;
  }
  throw InternalError("GzipLike: match length below minimum");
}

// Maps a distance in [1, 32768] to its distance-code index in [0, 29].
std::size_t DistCodeIndex(std::uint32_t distance) {
  for (std::size_t i = kDistBase.size(); i-- > 0;) {
    if (distance >= kDistBase[i]) return i;
  }
  throw InternalError("GzipLike: distance below minimum");
}

// Code-length tables are mostly runs (unused symbols are zero); RLE them
// as (length, varint run) pairs — DEFLATE compresses its tables for the
// same reason.
void PutCodeLengths(ByteWriter& out, const std::vector<std::uint8_t>& lengths) {
  std::size_t i = 0;
  while (i < lengths.size()) {
    std::size_t run = 1;
    while (i + run < lengths.size() && lengths[i + run] == lengths[i]) ++run;
    out.PutU8(lengths[i]);
    out.PutVarint(run);
    i += run;
  }
}

std::vector<std::uint8_t> GetCodeLengths(ByteReader& in, std::size_t count) {
  std::vector<std::uint8_t> lengths;
  lengths.reserve(count);
  while (lengths.size() < count) {
    const std::uint8_t length = in.GetU8();
    const std::uint64_t run = in.GetVarint();
    validate(run > 0 && lengths.size() + run <= count,
             "GzipLike: code-length run overflows table");
    lengths.insert(lengths.end(), static_cast<std::size_t>(run), length);
  }
  return lengths;
}

struct Token {
  // literal if length == 0 (value holds the byte), match otherwise.
  std::uint32_t length = 0;
  std::uint32_t distance = 0;
  std::uint8_t literal = 0;
};

// LZSS tokenization with one-step lazy matching, as in zlib's deflate.
std::vector<Token> Tokenize(BytesView input) {
  std::vector<Token> tokens;
  HashChainMatcher matcher(
      input,
      {.window_size = 32768, .min_match = 3, .max_match = 258,
       .max_chain = 64});
  std::size_t pos = 0;
  while (pos < input.size()) {
    LzMatch match = matcher.FindMatch(pos);
    if (match.length >= 3) {
      // Lazy evaluation: prefer a strictly longer match starting one byte
      // later; emit the current byte as a literal in that case.
      const LzMatch next =
          pos + 1 < input.size() ? matcher.FindMatch(pos + 1) : LzMatch{};
      if (next.length > match.length) {
        tokens.push_back({.literal = input[pos]});
        matcher.Insert(pos);
        ++pos;
        continue;
      }
      tokens.push_back({.length = match.length, .distance = match.distance});
      for (std::uint32_t i = 0; i < match.length; ++i)
        matcher.Insert(pos + i);
      pos += match.length;
    } else {
      tokens.push_back({.literal = input[pos]});
      matcher.Insert(pos);
      ++pos;
    }
  }
  return tokens;
}

}  // namespace

Bytes GzipLikeCodec::Compress(BytesView input) const {
  const std::vector<Token> tokens = Tokenize(input);

  std::vector<std::uint64_t> litlen_freq(kNumLitLenSymbols, 0);
  std::vector<std::uint64_t> dist_freq(kNumDistSymbols, 0);
  litlen_freq[kEndOfBlock] = 1;
  for (const Token& t : tokens) {
    if (t.length == 0) {
      litlen_freq[t.literal]++;
    } else {
      litlen_freq[257 + LengthCodeIndex(t.length)]++;
      dist_freq[DistCodeIndex(t.distance)]++;
    }
  }
  const std::vector<std::uint8_t> litlen_lengths =
      BuildHuffmanCodeLengths(litlen_freq);
  const std::vector<std::uint8_t> dist_lengths =
      BuildHuffmanCodeLengths(dist_freq);

  // The Huffman payload's exact size, from the frequencies alone: every
  // symbol costs its code length plus its extra bits.
  std::uint64_t payload_bits = 0;
  for (std::size_t s = 0; s < kNumLitLenSymbols; ++s) {
    const std::uint64_t extra = s > 256 ? kLengthExtra[s - 257] : 0;
    payload_bits += litlen_freq[s] * (litlen_lengths[s] + extra);
  }
  for (std::size_t d = 0; d < kNumDistSymbols; ++d)
    payload_bits += dist_freq[d] * (dist_lengths[d] + kDistExtra[d]);
  const std::uint64_t payload_size = (payload_bits + 7) / 8;

  ByteWriter out;
  out.PutVarint(input.size());
  // Header: flag + RLE'd code-length tables + payload. Fall back to a
  // stored frame when Huffman coding does not pay off — decided before
  // any bit is written, since small partitions mostly store.
  ByteWriter tables;
  PutCodeLengths(tables, litlen_lengths);
  PutCodeLengths(tables, dist_lengths);
  if (1 + tables.size() + payload_size >= input.size()) {
    out.PutU8(kFrameStored);
    out.PutBytes(input);
    return out.Take();
  }

  const HuffmanEncoder litlen_encoder(litlen_lengths);
  const HuffmanEncoder dist_encoder(dist_lengths);
  BitWriter bits;
  for (const Token& t : tokens) {
    if (t.length == 0) {
      litlen_encoder.Write(bits, t.literal);
      continue;
    }
    const std::size_t lc = LengthCodeIndex(t.length);
    litlen_encoder.Write(bits, 257 + lc);
    bits.WriteBits(t.length - kLengthBase[lc], kLengthExtra[lc]);
    const std::size_t dc = DistCodeIndex(t.distance);
    dist_encoder.Write(bits, dc);
    bits.WriteBits(t.distance - kDistBase[dc], kDistExtra[dc]);
  }
  litlen_encoder.Write(bits, kEndOfBlock);
  const Bytes payload = bits.Finish();
  ensure(payload.size() == payload_size,
         "GzipLike: Huffman payload differs from its predicted size");
  out.PutU8(kFrameHuffman);
  out.PutBytes(tables.buffer());
  out.PutBytes(payload);
  return out.Take();
}

Bytes GzipLikeCodec::Decompress(BytesView input) const {
  ByteReader in(input);
  const std::uint64_t expected_size = in.GetVarint();
  const std::uint8_t flag = in.GetU8();
  if (flag == kFrameStored) {
    BytesView stored = in.GetBytes(static_cast<std::size_t>(expected_size));
    validate(in.AtEnd(), "GzipLike: trailing bytes after stored frame");
    return Bytes(stored.begin(), stored.end());
  }
  validate(flag == kFrameHuffman, "GzipLike: unknown frame flag");

  const std::vector<std::uint8_t> litlen_lengths =
      GetCodeLengths(in, kNumLitLenSymbols);
  const std::vector<std::uint8_t> dist_lengths =
      GetCodeLengths(in, kNumDistSymbols);
  const HuffmanDecoder litlen_decoder(litlen_lengths);
  const HuffmanDecoder dist_decoder(dist_lengths);

  BitReader bits(in.GetBytes(in.remaining()));
  Bytes out;
  // The declared size is untrusted; cap the up-front reservation and
  // bound the decode loop by it (valid frames never overrun).
  out.reserve(std::min<std::uint64_t>(expected_size, 1u << 22));
  for (;;) {
    validate(out.size() <= expected_size,
             "GzipLike: output exceeds declared size");
    const std::size_t symbol = litlen_decoder.Read(bits);
    if (symbol == kEndOfBlock) break;
    if (symbol < 256) {
      out.push_back(static_cast<std::uint8_t>(symbol));
      continue;
    }
    const std::size_t lc = symbol - 257;
    validate(lc < kLengthBase.size(), "GzipLike: bad length symbol");
    const std::uint32_t length =
        kLengthBase[lc] + bits.ReadBits(kLengthExtra[lc]);
    const std::size_t dc = dist_decoder.Read(bits);
    validate(dc < kDistBase.size(), "GzipLike: bad distance symbol");
    const std::uint32_t distance =
        kDistBase[dc] + bits.ReadBits(kDistExtra[dc]);
    validate(distance >= 1 && distance <= out.size(),
             "GzipLike: copy distance out of range");
    std::size_t from = out.size() - distance;
    for (std::uint32_t i = 0; i < length; ++i) out.push_back(out[from + i]);
  }
  validate(out.size() == expected_size,
           "GzipLike: size mismatch after decompression");
  return out;
}

}  // namespace blot
