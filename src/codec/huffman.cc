#include "codec/huffman.h"

#include <algorithm>
#include <utility>

#include "util/error.h"

namespace blot {
namespace {

// Huffman tree depths per symbol, by the two-queue construction: leaves
// sorted by (freq, symbol) and merged nodes in creation order. Merged
// frequencies never decrease, so each queue stays sorted, and taking the
// smaller front — the leaf on a tie — pops in exactly the order of a
// (freq, node index) min-heap whose leaves are indexed in symbol order
// before any merged node. Returns the deepest leaf's depth; depths above
// 255 are stored as 255 (the caller only needs to know they exceed the
// length limit).
int TreeDepths(const std::vector<std::uint64_t>& frequencies,
               std::vector<std::uint8_t>& depths) {
  depths.assign(frequencies.size(), 0);
  std::vector<std::pair<std::uint64_t, std::uint32_t>> leaves;  // freq, sym
  for (std::size_t s = 0; s < frequencies.size(); ++s)
    if (frequencies[s] > 0)
      leaves.emplace_back(frequencies[s], static_cast<std::uint32_t>(s));
  const std::size_t n = leaves.size();
  if (n == 0) return 0;
  if (n == 1) {
    depths[leaves[0].second] = 1;
    return 1;
  }
  std::sort(leaves.begin(), leaves.end());
  // Node ids: sorted leaves 0..n-1, then merged nodes n..2n-2, root last.
  // link[id] holds the parent id until the sweep below turns it into the
  // depth; parents are created after their children, so sweeping down
  // from the root always finds the parent's depth already in place.
  std::vector<std::uint64_t> merged_freq;
  merged_freq.reserve(n - 1);
  std::vector<std::uint32_t> link(2 * n - 1);
  std::size_t next_leaf = 0, next_merged = 0;
  const auto pop = [&]() -> std::pair<std::uint64_t, std::size_t> {
    const bool merged_left = next_merged < merged_freq.size();
    if (next_leaf < n && (!merged_left || leaves[next_leaf].first <=
                                              merged_freq[next_merged])) {
      const std::size_t leaf = next_leaf++;
      return {leaves[leaf].first, leaf};
    }
    const std::size_t m = next_merged++;
    return {merged_freq[m], n + m};
  };
  for (std::size_t m = 0; m + 1 < n; ++m) {
    const auto [fa, a] = pop();
    const auto [fb, b] = pop();
    link[a] = link[b] = static_cast<std::uint32_t>(n + m);
    merged_freq.push_back(fa + fb);
  }
  link[2 * n - 2] = 0;
  std::uint32_t max_depth = 0;
  for (std::size_t id = 2 * n - 2; id-- > 0;) {
    link[id] = link[link[id]] + 1;
    if (id < n) {
      depths[leaves[id].second] =
          static_cast<std::uint8_t>(std::min<std::uint32_t>(link[id], 255));
      max_depth = std::max(max_depth, link[id]);
    }
  }
  return static_cast<int>(max_depth);
}

}  // namespace

std::vector<std::uint8_t> BuildHuffmanCodeLengths(
    const std::vector<std::uint64_t>& frequencies) {
  // If the unconstrained tree exceeds the length limit, flatten the
  // frequency distribution and retry; this converges because repeated
  // halving drives all frequencies towards 1 (a balanced tree), whose
  // depth ceil(log2(n)) <= 15 for n <= 2^15 symbols.
  require(frequencies.size() <= (std::size_t{1} << kMaxHuffmanBits),
          "BuildHuffmanCodeLengths: alphabet too large for length limit");
  std::vector<std::uint64_t> adjusted = frequencies;
  std::vector<std::uint8_t> depths;
  while (TreeDepths(adjusted, depths) > kMaxHuffmanBits) {
    for (auto& f : adjusted)
      if (f > 0) f = (f + 1) / 2;
  }
  return depths;
}

namespace {

// Canonical code values: symbols sorted by (length, symbol index) get
// consecutive codes, starting each length at (prev_first + prev_count)<<1.
std::vector<std::uint16_t> CanonicalCodes(
    const std::vector<std::uint8_t>& lengths) {
  std::vector<std::uint16_t> count(kMaxHuffmanBits + 1, 0);
  for (std::uint8_t len : lengths)
    if (len > 0) count[len]++;
  std::vector<std::uint16_t> next_code(kMaxHuffmanBits + 1, 0);
  std::uint32_t code = 0;
  for (int len = 1; len <= kMaxHuffmanBits; ++len) {
    code = (code + count[len - 1]) << 1;
    validate(code + count[len] <= (1u << len) + 0u ||
                 count[len] == 0,
             "CanonicalCodes: over-subscribed code lengths");
    next_code[len] = static_cast<std::uint16_t>(code);
  }
  std::vector<std::uint16_t> codes(lengths.size(), 0);
  for (std::size_t s = 0; s < lengths.size(); ++s) {
    if (lengths[s] == 0) continue;
    codes[s] = next_code[lengths[s]]++;
  }
  return codes;
}

}  // namespace

HuffmanEncoder::HuffmanEncoder(const std::vector<std::uint8_t>& lengths)
    : reversed_codes_(CanonicalCodes(lengths)), lengths_(lengths) {
  // Code bits go out MSB first into an LSB-first stream: store each code
  // bit-reversed so Write() is a single WriteBits().
  for (std::size_t s = 0; s < lengths_.size(); ++s) {
    std::uint16_t reversed = 0;
    for (int i = 0; i < lengths_[s]; ++i)
      reversed = static_cast<std::uint16_t>(
          (reversed << 1) | ((reversed_codes_[s] >> i) & 1u));
    reversed_codes_[s] = reversed;
  }
}

void HuffmanEncoder::Write(BitWriter& out, std::size_t symbol) const {
  ensure(symbol < lengths_.size() && lengths_[symbol] > 0,
         "HuffmanEncoder: symbol has no code");
  out.WriteBits(reversed_codes_[symbol], lengths_[symbol]);
}

HuffmanDecoder::HuffmanDecoder(const std::vector<std::uint8_t>& lengths)
    : first_code_(kMaxHuffmanBits + 1, 0),
      first_index_(kMaxHuffmanBits + 1, 0),
      count_(kMaxHuffmanBits + 1, 0) {
  for (std::uint8_t len : lengths) {
    validate(len <= kMaxHuffmanBits, "HuffmanDecoder: code length too long");
    if (len > 0) count_[len]++;
  }
  std::uint32_t code = 0;
  std::uint32_t index = 0;
  for (int len = 1; len <= kMaxHuffmanBits; ++len) {
    code = (code + count_[len - 1]) << 1;
    validate(code + count_[len] <= (1u << len),
             "HuffmanDecoder: over-subscribed code lengths");
    first_code_[len] = static_cast<std::uint16_t>(code);
    first_index_[len] = index;
    index += count_[len];
  }
  symbols_.resize(index);
  std::vector<std::uint32_t> next_index(first_index_);
  for (std::size_t s = 0; s < lengths.size(); ++s) {
    if (lengths[s] == 0) continue;
    symbols_[next_index[lengths[s]]++] = static_cast<std::uint32_t>(s);
  }
}

std::size_t HuffmanDecoder::Read(BitReader& in) const {
  std::uint32_t code = 0;
  for (int len = 1; len <= kMaxHuffmanBits; ++len) {
    code = (code << 1) | in.ReadBit();
    const std::uint32_t offset = code - first_code_[len];
    if (code >= first_code_[len] && offset < count_[len])
      return symbols_[first_index_[len] + offset];
  }
  throw CorruptData("HuffmanDecoder: invalid code");
}

}  // namespace blot
