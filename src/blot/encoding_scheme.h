// Encoding schemes E: a physical layout plus an optional general-purpose
// compressor (Section II-C, Table I).
//
// The paper's candidate set stores data "either by row or by column (with
// delta encoding), with an option of whether or not using a general
// compression method chosen from Gzip, Snappy and LZMA2", excluding the
// uncompressed column store — 2 x 4 - 1 = 7 schemes. AllEncodingSchemes()
// returns exactly that set.
#ifndef BLOT_BLOT_ENCODING_SCHEME_H_
#define BLOT_BLOT_ENCODING_SCHEME_H_

#include <span>
#include <string>
#include <vector>

#include "blot/layout.h"
#include "blot/record.h"
#include "codec/codec.h"

namespace blot {

struct EncodingScheme {
  Layout layout = Layout::kRow;
  CodecKind codec = CodecKind::kNone;

  // Stable identifier, e.g. "ROW-GZIP" or "COL-LZMA".
  std::string Name() const;
  static EncodingScheme FromName(const std::string& name);

  friend bool operator==(const EncodingScheme&,
                         const EncodingScheme&) = default;
};

// The paper's 7 candidate encoding schemes (COL-PLAIN excluded: "poor
// performance in terms of both compression ratio and scan speed").
std::vector<EncodingScheme> AllEncodingSchemes();

// Encodes records: layout serialization followed by block compression.
Bytes EncodePartition(std::span<const Record> records,
                      const EncodingScheme& scheme);

// Inverse of EncodePartition.
std::vector<Record> DecodePartition(BytesView data,
                                    const EncodingScheme& scheme);

// Fused decode-filter: decompresses, then deserializes only the records
// inside `range` (layout.h's DeserializeRecordsInRange). Returns exactly
// the records DecodePartition + filter would, in the same order;
// `total_records` receives the partition's record count for scan
// accounting. `prune_blocks` controls zone-map block skipping and
// `counters` receives block-level scan accounting.
// `cancel` (requires `counters`) stops the scan at the next block
// boundary, reporting `counters->interrupted`; an already-cancelled
// token skips even the decompression.
std::vector<Record> DecodePartitionInRange(
    BytesView data, const EncodingScheme& scheme, const STRange& range,
    std::uint64_t* total_records = nullptr, bool prune_blocks = true,
    ScanCounters* counters = nullptr, const CancelToken* cancel = nullptr);

// Compressed bytes / uncompressed-row-layout bytes, measured on a sample
// (Table I's metric; the paper estimates Storage(r) this way because
// "compression ratio is stable in most situations").
double MeasureCompressionRatio(std::span<const Record> sample,
                               const EncodingScheme& scheme);

}  // namespace blot

#endif  // BLOT_BLOT_ENCODING_SCHEME_H_
