#include "blot/encoding_scheme.h"

#include "util/error.h"

namespace blot {

std::string EncodingScheme::Name() const {
  return std::string(LayoutName(layout)) + "-" +
         std::string(CodecKindName(codec));
}

EncodingScheme EncodingScheme::FromName(const std::string& name) {
  const std::size_t dash = name.find('-');
  require(dash != std::string::npos,
          "EncodingScheme::FromName: expected LAYOUT-CODEC: " + name);
  return {LayoutFromName(name.substr(0, dash)),
          CodecKindFromName(name.substr(dash + 1))};
}

std::vector<EncodingScheme> AllEncodingSchemes() {
  std::vector<EncodingScheme> schemes;
  for (const Layout layout : {Layout::kRow, Layout::kColumn}) {
    for (const CodecKind codec : AllCodecKinds()) {
      if (layout == Layout::kColumn && codec == CodecKind::kNone) continue;
      schemes.push_back({layout, codec});
    }
  }
  return schemes;
}

Bytes EncodePartition(std::span<const Record> records,
                      const EncodingScheme& scheme) {
  const Bytes serialized = SerializeRecords(records, scheme.layout);
  return GetCodec(scheme.codec).Compress(serialized);
}

std::vector<Record> DecodePartition(BytesView data,
                                    const EncodingScheme& scheme) {
  const Bytes serialized = GetCodec(scheme.codec).Decompress(data);
  return DeserializeRecords(serialized, scheme.layout);
}

std::vector<Record> DecodePartitionInRange(BytesView data,
                                           const EncodingScheme& scheme,
                                           const STRange& range,
                                           std::uint64_t* total_records,
                                           bool prune_blocks,
                                           ScanCounters* counters,
                                           const CancelToken* cancel) {
  if (cancel != nullptr && counters != nullptr && cancel->ShouldStop()) {
    counters->interrupted = true;
    if (total_records != nullptr) *total_records = 0;
    return {};
  }
  const Bytes serialized = GetCodec(scheme.codec).Decompress(data);
  return DeserializeRecordsInRange(serialized, scheme.layout, range,
                                   total_records, prune_blocks, counters,
                                   cancel);
}

double MeasureCompressionRatio(std::span<const Record> sample,
                               const EncodingScheme& scheme) {
  require(!sample.empty(), "MeasureCompressionRatio: empty sample");
  const Bytes encoded = EncodePartition(sample, scheme);
  const double raw =
      static_cast<double>(sample.size()) * kRecordRowBytes;
  return static_cast<double>(encoded.size()) / raw;
}

}  // namespace blot
