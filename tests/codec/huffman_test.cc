#include "codec/huffman.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <queue>

#include "util/error.h"
#include "util/rng.h"

namespace blot {
namespace {

// Kraft sum in units of 2^-kMaxHuffmanBits; a valid prefix code needs
// sum(2^(max-len)) <= 2^max.
std::uint64_t KraftSum(const std::vector<std::uint8_t>& lengths) {
  std::uint64_t sum = 0;
  for (std::uint8_t len : lengths)
    if (len > 0) sum += std::uint64_t{1} << (kMaxHuffmanBits - len);
  return sum;
}

// The heap construction BuildHuffmanCodeLengths used before the two-queue
// one, kept verbatim (including its 8-bit depth stack) as the reference
// the new code must match bit for bit, ties included.
std::vector<std::uint8_t> HeapTreeDepths(
    const std::vector<std::uint64_t>& frequencies) {
  struct Node {
    std::uint64_t freq;
    int left;
    int right;
    int symbol;
  };
  std::vector<Node> nodes;
  using HeapItem = std::pair<std::uint64_t, int>;  // (freq, node index)
  std::priority_queue<HeapItem, std::vector<HeapItem>, std::greater<>> heap;
  for (std::size_t s = 0; s < frequencies.size(); ++s) {
    if (frequencies[s] == 0) continue;
    nodes.push_back({frequencies[s], -1, -1, static_cast<int>(s)});
    heap.emplace(frequencies[s], static_cast<int>(nodes.size()) - 1);
  }
  std::vector<std::uint8_t> depths(frequencies.size(), 0);
  if (nodes.empty()) return depths;
  if (nodes.size() == 1) {
    depths[static_cast<std::size_t>(nodes[0].symbol)] = 1;
    return depths;
  }
  while (heap.size() > 1) {
    const auto [fa, a] = heap.top();
    heap.pop();
    const auto [fb, b] = heap.top();
    heap.pop();
    nodes.push_back({fa + fb, a, b, -1});
    heap.emplace(fa + fb, static_cast<int>(nodes.size()) - 1);
  }
  std::vector<std::pair<int, std::uint8_t>> stack;
  stack.emplace_back(heap.top().second, 0);
  while (!stack.empty()) {
    const auto [idx, depth] = stack.back();
    stack.pop_back();
    const Node& node = nodes[static_cast<std::size_t>(idx)];
    if (node.symbol >= 0) {
      depths[static_cast<std::size_t>(node.symbol)] =
          std::max<std::uint8_t>(depth, 1);
    } else {
      stack.emplace_back(node.left, static_cast<std::uint8_t>(depth + 1));
      stack.emplace_back(node.right, static_cast<std::uint8_t>(depth + 1));
    }
  }
  return depths;
}

std::vector<std::uint8_t> HeapCodeLengths(
    const std::vector<std::uint64_t>& frequencies) {
  std::vector<std::uint64_t> adjusted = frequencies;
  for (;;) {
    std::vector<std::uint8_t> depths = HeapTreeDepths(adjusted);
    const std::uint8_t max_depth =
        depths.empty() ? 0 : *std::max_element(depths.begin(), depths.end());
    if (max_depth <= kMaxHuffmanBits) return depths;
    for (auto& f : adjusted)
      if (f > 0) f = (f + 1) / 2;
  }
}

// n frequencies cycling through the first 80 Fibonacci numbers, small
// enough that no tree weight overflows 64 bits.
std::vector<std::uint64_t> Fibonacci(std::size_t n) {
  std::vector<std::uint64_t> freq(n);
  std::uint64_t a = 1, b = 1;
  for (std::size_t s = 0; s < n; ++s) {
    if (s % 80 == 0) a = b = 1;
    freq[s] = a;
    const std::uint64_t next = a + b;
    a = b;
    b = next;
  }
  return freq;
}

TEST(HuffmanTest, LengthsSatisfyKraftInequality) {
  Rng rng(1);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<std::uint64_t> freq(286);
    for (auto& f : freq) f = rng.NextUint64(1000);
    const auto lengths = BuildHuffmanCodeLengths(freq);
    EXPECT_LE(KraftSum(lengths),
              std::uint64_t{1} << kMaxHuffmanBits);
    for (std::size_t s = 0; s < freq.size(); ++s) {
      if (freq[s] > 0)
        EXPECT_GT(lengths[s], 0) << "symbol " << s;
      else
        EXPECT_EQ(lengths[s], 0) << "symbol " << s;
    }
  }
}

TEST(HuffmanTest, LengthLimitHoldsUnderExtremeSkew) {
  // Fibonacci-like frequencies drive unconstrained Huffman depths far
  // beyond 15 bits; the builder must cap them.
  std::vector<std::uint64_t> freq(40);
  std::uint64_t a = 1, b = 1;
  for (auto& f : freq) {
    f = a;
    const std::uint64_t next = a + b;
    a = b;
    b = next;
  }
  const auto lengths = BuildHuffmanCodeLengths(freq);
  for (std::uint8_t len : lengths) EXPECT_LE(len, kMaxHuffmanBits);
  EXPECT_LE(KraftSum(lengths), std::uint64_t{1} << kMaxHuffmanBits);
}

TEST(HuffmanTest, SingleSymbolGetsLengthOne) {
  std::vector<std::uint64_t> freq(10, 0);
  freq[3] = 7;
  const auto lengths = BuildHuffmanCodeLengths(freq);
  EXPECT_EQ(lengths[3], 1);
  for (std::size_t s = 0; s < freq.size(); ++s) {
    if (s != 3) {
      EXPECT_EQ(lengths[s], 0);
    }
  }
}

TEST(HuffmanTest, FrequentSymbolsGetShorterCodes) {
  std::vector<std::uint64_t> freq = {1000, 1, 1, 1, 1, 1, 1, 1};
  const auto lengths = BuildHuffmanCodeLengths(freq);
  for (std::size_t s = 1; s < freq.size(); ++s)
    EXPECT_LE(lengths[0], lengths[s]);
}

TEST(HuffmanTest, EncodeDecodeRoundTrip) {
  Rng rng(2);
  std::vector<std::uint64_t> freq(100);
  for (auto& f : freq) f = 1 + rng.NextUint64(500);
  const auto lengths = BuildHuffmanCodeLengths(freq);
  const HuffmanEncoder encoder(lengths);
  const HuffmanDecoder decoder(lengths);

  std::vector<std::size_t> symbols;
  for (int i = 0; i < 5000; ++i)
    symbols.push_back(rng.NextUint64(freq.size()));
  BitWriter w;
  for (std::size_t s : symbols) encoder.Write(w, s);
  const Bytes buf = w.Finish();
  BitReader r(buf);
  for (std::size_t s : symbols) EXPECT_EQ(decoder.Read(r), s);
}

TEST(HuffmanTest, CodedSizeBeatsFixedWidthOnSkewedData) {
  Rng rng(3);
  // Zipf-ish skew over 64 symbols.
  std::vector<std::size_t> symbols;
  for (int i = 0; i < 20000; ++i) symbols.push_back(rng.NextZipf(64, 1.2));
  std::vector<std::uint64_t> freq(64, 0);
  for (std::size_t s : symbols) freq[s]++;
  const auto lengths = BuildHuffmanCodeLengths(freq);
  const HuffmanEncoder encoder(lengths);
  BitWriter w;
  for (std::size_t s : symbols) encoder.Write(w, s);
  const std::size_t coded_bits = w.BitCount();
  EXPECT_LT(coded_bits, symbols.size() * 6);  // fixed width would be 6 bits
}

TEST(HuffmanTest, DecoderRejectsOversubscribedLengths) {
  // Three symbols of length 1 cannot form a prefix code.
  std::vector<std::uint8_t> lengths = {1, 1, 1};
  EXPECT_THROW(HuffmanDecoder{lengths}, CorruptData);
}

TEST(HuffmanTest, DecoderRejectsTooLongLength) {
  std::vector<std::uint8_t> lengths = {1, 16};
  EXPECT_THROW(HuffmanDecoder{lengths}, CorruptData);
}

TEST(HuffmanParityTest, RandomTablesWithHeavyTies) {
  Rng rng(11);
  for (int trial = 0; trial < 300; ++trial) {
    const std::size_t size = 2 + rng.NextUint64(300);
    // Few distinct values and many zeros: most merges tie.
    const std::uint64_t distinct = 1 + rng.NextUint64(4);
    std::vector<std::uint64_t> freq(size);
    for (auto& f : freq)
      f = rng.NextBool(0.3) ? 0 : 1 + rng.NextUint64(distinct);
    EXPECT_EQ(BuildHuffmanCodeLengths(freq), HeapCodeLengths(freq))
        << "trial " << trial;
  }
}

TEST(HuffmanParityTest, RandomWideTables) {
  Rng rng(12);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<std::uint64_t> freq(286);
    // Skewed: many small counts, a few large ones, some zeros.
    for (auto& f : freq) f = rng.NextUint64(1 + rng.NextUint64(5000));
    EXPECT_EQ(BuildHuffmanCodeLengths(freq), HeapCodeLengths(freq))
        << "trial " << trial;
  }
}

TEST(HuffmanParityTest, AllEqualFrequencies) {
  for (const std::size_t n : {2u, 3u, 7u, 30u, 256u, 286u}) {
    const std::vector<std::uint64_t> freq(n, 5);
    EXPECT_EQ(BuildHuffmanCodeLengths(freq), HeapCodeLengths(freq)) << n;
  }
}

TEST(HuffmanParityTest, OneAndTwoSymbols) {
  for (const auto& freq : std::vector<std::vector<std::uint64_t>>{
           {0, 0, 9, 0}, {4}, {3, 3}, {1, 1000}, {0, 8, 0, 2, 0}}) {
    EXPECT_EQ(BuildHuffmanCodeLengths(freq), HeapCodeLengths(freq));
  }
}

TEST(HuffmanParityTest, FibonacciFrequenciesForceTheLengthLimit) {
  // Fibonacci frequencies make the unconstrained tree about 80 deep, so
  // the flattening loop runs several times.
  const std::vector<std::uint64_t> freq = Fibonacci(286);
  const std::vector<std::uint8_t> lengths = BuildHuffmanCodeLengths(freq);
  EXPECT_EQ(lengths, HeapCodeLengths(freq));
  EXPECT_EQ(*std::max_element(lengths.begin(), lengths.end()),
            kMaxHuffmanBits);
  // Reversed and interleaved with zeros, ties and order shift.
  std::vector<std::uint64_t> shuffled(freq.rbegin(), freq.rend());
  for (std::size_t s = 0; s < shuffled.size(); s += 3) shuffled[s] = 0;
  EXPECT_EQ(BuildHuffmanCodeLengths(shuffled), HeapCodeLengths(shuffled));
}

TEST(HuffmanTest, AllZeroFrequenciesYieldNoCodes) {
  const auto lengths = BuildHuffmanCodeLengths(std::vector<std::uint64_t>(8));
  for (std::uint8_t len : lengths) EXPECT_EQ(len, 0);
}

}  // namespace
}  // namespace blot
