#include "codec/lzma_like.h"

#include <algorithm>
#include <array>
#include <bit>
#include <span>

#include "codec/lz_common.h"
#include "codec/range_coder.h"
#include "util/error.h"

namespace blot {
namespace {

constexpr std::uint32_t kMinMatch = 3;
constexpr std::uint32_t kMaxMatch = 258;
constexpr std::uint32_t kWindow = 1u << 20;
constexpr int kNumSlotBits = 6;

// The probability model shared by encoder and decoder. All trees use the
// standard "node index" layout where probs[1] is the root. It lives on the
// stack: one model per partition costs no allocation.
struct Model {
  BitProb is_match = kProbInit;
  // Repeated-distance flag: reuse the previous match distance (LZMA's
  // rep0). Fixed-stride record data repeats distances constantly, so one
  // cheap bit replaces a whole distance encoding.
  BitProb is_rep = kProbInit;
  std::array<BitProb, 256> length;
  std::array<BitProb, 256> rep_length;
  std::array<BitProb, 1u << kNumSlotBits> dist_slot;
  // Adaptive probabilities for distance direct bits, one per bit index.
  std::array<BitProb, 32> dist_direct;

  Model() {
    literal_.fill(kProbInit);
    length.fill(kProbInit);
    rep_length.fill(kProbInit);
    dist_slot.fill(kProbInit);
    dist_direct.fill(kProbInit);
  }

  // The 256-leaf literal tree under order-1 context `prev_byte`.
  std::span<BitProb> Literal(std::uint8_t prev_byte) {
    return std::span<BitProb>(literal_).subspan(std::size_t{prev_byte} * 256,
                                                256);
  }

 private:
  // 256 order-1 contexts x 256-leaf literal tree, row-major.
  std::array<BitProb, 256 * 256> literal_;
};

// Distance slot for value = distance - 1: slots 0..3 are the value itself;
// larger slots encode (top two bits, exponent) as in LZMA.
std::uint32_t DistSlot(std::uint32_t value) {
  if (value < 4) return value;
  int msb = 31 - std::countl_zero(value);
  return static_cast<std::uint32_t>(2 * msb) + ((value >> (msb - 1)) & 1u);
}

std::uint32_t SlotBase(std::uint32_t slot) {
  if (slot < 4) return slot;
  return (2u | (slot & 1u)) << (slot / 2 - 1);
}

int SlotDirectBits(std::uint32_t slot) {
  if (slot < 4) return 0;
  return static_cast<int>(slot / 2 - 1);
}

void EncodeDistance(RangeEncoder& rc, Model& model, std::uint32_t distance) {
  const std::uint32_t value = distance - 1;
  const std::uint32_t slot = DistSlot(value);
  rc.EncodeBitTree(model.dist_slot, kNumSlotBits, slot);
  const int direct = SlotDirectBits(slot);
  if (direct == 0) return;
  const std::uint32_t rest = value - SlotBase(slot);
  // Adaptive per-bit-position probabilities rather than raw direct bits:
  // distances in partition data are highly repetitive, so this pays off.
  for (int i = direct - 1; i >= 0; --i)
    rc.EncodeBit(model.dist_direct[static_cast<std::size_t>(i)],
                 (rest >> i) & 1u);
}

std::uint32_t DecodeDistance(RangeDecoder& rc, Model& model) {
  const std::uint32_t slot =
      rc.DecodeBitTree(model.dist_slot, kNumSlotBits);
  const int direct = SlotDirectBits(slot);
  std::uint32_t value = SlotBase(slot);
  for (int i = direct - 1; i >= 0; --i)
    value |= rc.DecodeBit(model.dist_direct[static_cast<std::size_t>(i)])
             << i;
  return value + 1;
}

}  // namespace

Bytes LzmaLikeCodec::Compress(BytesView input) const {
  ByteWriter out;
  out.PutVarint(input.size());

  Model model;
  RangeEncoder rc;
  HashChainMatcher matcher(
      input, {.window_size = kWindow,
              .min_match = kMinMatch,
              .max_match = kMaxMatch,
              .max_chain = 256});
  std::size_t pos = 0;
  std::uint8_t prev_byte = 0;
  std::uint32_t last_distance = 0;

  // Longest match at the previously used distance, the rep0 candidate.
  const auto rep_match_length = [&](std::size_t at) -> std::uint32_t {
    if (last_distance == 0 || at < last_distance) return 0;
    const std::size_t limit =
        std::min<std::size_t>(kMaxMatch, input.size() - at);
    std::uint32_t len = 0;
    while (len < limit && input[at + len] == input[at - last_distance + len])
      ++len;
    return len;
  };

  while (pos < input.size()) {
    LzMatch match = matcher.FindMatch(pos);
    // Prefer the repeated distance unless the fresh match is notably
    // longer: a rep match costs one flag bit instead of a full distance.
    const std::uint32_t rep_len = rep_match_length(pos);
    const bool use_rep =
        rep_len >= kMinMatch && rep_len + 1 >= match.length;
    if (use_rep) {
      match.length = rep_len;
      match.distance = last_distance;
    }
    if (match.length >= kMinMatch) {
      const LzMatch next =
          pos + 1 < input.size() ? matcher.FindMatch(pos + 1) : LzMatch{};
      if (!use_rep && next.length > match.length) match.length = 0;
    }
    if (match.length >= kMinMatch) {
      rc.EncodeBit(model.is_match, 1);
      if (use_rep) {
        rc.EncodeBit(model.is_rep, 1);
        rc.EncodeBitTree(model.rep_length, 8, match.length - kMinMatch);
      } else {
        rc.EncodeBit(model.is_rep, 0);
        rc.EncodeBitTree(model.length, 8, match.length - kMinMatch);
        EncodeDistance(rc, model, match.distance);
        last_distance = match.distance;
      }
      for (std::uint32_t i = 0; i < match.length; ++i) matcher.Insert(pos + i);
      pos += match.length;
      prev_byte = input[pos - 1];
    } else {
      rc.EncodeBit(model.is_match, 0);
      rc.EncodeBitTree(model.Literal(prev_byte), 8, input[pos]);
      matcher.Insert(pos);
      prev_byte = input[pos];
      ++pos;
    }
  }
  out.PutBytes(rc.Finish());
  return out.Take();
}

Bytes LzmaLikeCodec::Decompress(BytesView input) const {
  ByteReader in(input);
  const std::uint64_t expected_size = in.GetVarint();
  // The declared size is untrusted. Even at fully saturated adaptive
  // probabilities a symbol costs well above 1/2048 bits, so legitimate
  // expansion is bounded by a (generous) constant per input byte; this
  // also bounds the decode loop on truncated streams, whose reader yields
  // zero bytes forever.
  validate(expected_size <= (input.size() + 16) * 300000,
           "LzmaLike: implausible declared size");
  Model model;
  RangeDecoder rc(in.GetBytes(in.remaining()));
  Bytes out;
  // The declared size is untrusted: cap the up-front reservation (the
  // decode loop is already bounded by expected_size, so memory only grows
  // with bytes actually produced).
  out.reserve(std::min<std::uint64_t>(expected_size, 1u << 22));
  std::uint8_t prev_byte = 0;
  std::uint32_t last_distance = 0;
  while (out.size() < expected_size) {
    if (rc.DecodeBit(model.is_match) == 0) {
      prev_byte = static_cast<std::uint8_t>(
          rc.DecodeBitTree(model.Literal(prev_byte), 8));
      out.push_back(prev_byte);
      continue;
    }
    std::uint32_t length, distance;
    if (rc.DecodeBit(model.is_rep) == 1) {
      validate(last_distance != 0, "LzmaLike: rep match before any match");
      length = rc.DecodeBitTree(model.rep_length, 8) + kMinMatch;
      distance = last_distance;
    } else {
      length = rc.DecodeBitTree(model.length, 8) + kMinMatch;
      distance = DecodeDistance(rc, model);
      last_distance = distance;
    }
    validate(distance >= 1 && distance <= out.size(),
             "LzmaLike: copy distance out of range");
    validate(out.size() + length <= expected_size,
             "LzmaLike: match overruns declared size");
    std::size_t from = out.size() - distance;
    for (std::uint32_t i = 0; i < length; ++i) out.push_back(out[from + i]);
    prev_byte = out.back();
  }
  return out;
}

}  // namespace blot
