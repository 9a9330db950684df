// Golden byte-identity check for the partition encoders.
//
// Every scheme in AllEncodingSchemes() encodes fixed, seeded taxi
// partitions at the record counts replicas actually hold (1–49 records per
// partition at benchmark scale, 781 and 12 500 at the paper's). The FNV-1a
// hash of each encoded partition is pinned: an encoder optimisation must
// leave the stored bytes — and with them every storage figure — exactly as
// they were. The sizes cover both gzip frame kinds (stored and Huffman).
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "blot/encoding_scheme.h"
#include "gen/taxi_generator.h"
#include "util/bytes.h"

namespace blot {
namespace {

constexpr std::array<std::size_t, 5> kSizes = {1, 12, 49, 781, 12500};

// The encoded-partition hashes, recorded before any encoder optimisation.
struct Golden {
  const char* scheme;
  std::array<std::uint64_t, kSizes.size()> fnv;  // one per kSizes entry
};
constexpr Golden kGolden[] = {
    {"ROW-PLAIN",
     {0xda55ed0cb789eb79, 0x9019a03f1b2a0b34, 0x4c3abdc84cbe7c7a,
      0xcb999321b0c4ca19, 0x2d5bfba5d1f6142d}},
    {"ROW-SNAPPY",
     {0x9cfbb1e88f27392b, 0x350f93fd96dad985, 0x43559b29ff959809,
      0xed94dec539fa71a6, 0x6c183ba01171dd1b}},
    {"ROW-GZIP",
     {0x4ebbe8f603e085cf, 0x17350311589abaf8, 0x7f166e80cb65dacb,
      0xc8219ee61ed6f77f, 0x52d4863bcf165038}},
    {"ROW-LZMA",
     {0x96a27b37b20b5aa9, 0x832ce3ffc14dba10, 0x55e81feaedf33306,
      0x6ab998c48e1df28f, 0x087bc800c04ab06a}},
    {"COL-SNAPPY",
     {0xc7cef8827efd0773, 0x12912e7e8c17be6f, 0x815e95a3b2672e0b,
      0x57f41851131e238e, 0xb94f344089718886}},
    {"COL-GZIP",
     {0x3d5cc9b27ea21d5e, 0xb5ff061691be7104, 0xfc188f8052c45544,
      0xc9331d90f594b3a1, 0xcb61e66452df8a6d}},
    {"COL-LZMA",
     {0x8671f76835ded070, 0xd32c7f02e5b6cae4, 0xe85771c162a35579,
      0x74d88807c4f0fa19, 0x352a9ff5ce5e331d}},
};

// 50 taxis x 250 samples; a partition of n records is the first n records
// of the fleet, so the small ones follow one taxi's trajectory and the
// large ones span several.
const std::vector<Record>& Fleet() {
  static const std::vector<Record> records = [] {
    TaxiFleetConfig config;
    config.seed = 28;
    config.num_taxis = 50;
    config.samples_per_taxi = 250;
    return GenerateTaxiFleet(config).records();
  }();
  return records;
}

std::string Hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

TEST(EncoderGoldenTest, CoversEverySchemeOnce) {
  const std::vector<EncodingScheme> schemes = AllEncodingSchemes();
  ASSERT_EQ(schemes.size(), std::size(kGolden));
  for (const Golden& g : kGolden) {
    std::size_t matches = 0;
    for (const EncodingScheme& s : schemes) matches += s.Name() == g.scheme;
    EXPECT_EQ(matches, 1u) << g.scheme;
  }
}

TEST(EncoderGoldenTest, EncodedPartitionsMatchRecordedHashes) {
  ASSERT_EQ(Fleet().size(), kSizes.back());
  for (const Golden& g : kGolden) {
    const EncodingScheme scheme = EncodingScheme::FromName(g.scheme);
    for (std::size_t i = 0; i < kSizes.size(); ++i) {
      const std::span<const Record> records(Fleet().data(), kSizes[i]);
      const std::uint64_t fnv = Fnv1a64(EncodePartition(records, scheme));
      EXPECT_EQ(Hex(fnv), Hex(g.fnv[i]))
          << g.scheme << " at " << kSizes[i] << " records";
    }
  }
}

// The gzip frame flag follows the varint input size: 0 = stored,
// 1 = Huffman. Both must occur, or the golden hashes would not cover the
// frame decision.
TEST(EncoderGoldenTest, GzipSizesCoverStoredAndHuffmanFrames) {
  bool stored = false, huffman = false;
  for (const char* name : {"ROW-GZIP", "COL-GZIP"}) {
    const EncodingScheme scheme = EncodingScheme::FromName(name);
    for (const std::size_t n : kSizes) {
      const Bytes encoded = EncodePartition(
          std::span<const Record>(Fleet().data(), n), scheme);
      ByteReader in(encoded);
      in.GetVarint();
      const std::uint8_t flag = in.GetU8();
      stored |= flag == 0;
      huffman |= flag == 1;
    }
  }
  EXPECT_TRUE(stored);
  EXPECT_TRUE(huffman);
}

}  // namespace
}  // namespace blot
