// Microbenchmarks for the compression substrate: throughput of each codec
// and layout on partition-sized blocks of taxi records. These back the
// ratio/speed frontier the encoding-scheme trade-off relies on: SNAPPY
// fastest, GZIP middle, LZMA slowest per byte in both directions.
// BM_EncodeSmallPartitions times encoding at the partition sizes replica
// builds actually see: 12–49 records (blotbench's paper-mix tilings) and
// 781 (KD16xT16 over 200k records), where fixed per-partition costs count.
#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "gbench_capture.h"
#include "blot/encoding_scheme.h"

namespace blot {
namespace {

const Dataset& PartitionData() {
  static const Dataset dataset = [] {
    Dataset d = bench::MakeSample(50000);
    d.SortByTime();
    return d;
  }();
  return dataset;
}

void BM_Compress(benchmark::State& state, CodecKind kind) {
  const Bytes raw =
      SerializeRecords(PartitionData().records(), Layout::kRow);
  const Codec& codec = GetCodec(kind);
  for (auto _ : state) {
    Bytes compressed = codec.Compress(raw);
    benchmark::DoNotOptimize(compressed);
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations() * raw.size()));
}

void BM_Decompress(benchmark::State& state, CodecKind kind) {
  const Bytes raw =
      SerializeRecords(PartitionData().records(), Layout::kRow);
  const Codec& codec = GetCodec(kind);
  const Bytes compressed = codec.Compress(raw);
  for (auto _ : state) {
    Bytes output = codec.Decompress(compressed);
    benchmark::DoNotOptimize(output);
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations() * raw.size()));
}

void BM_EncodePartition(benchmark::State& state, const char* scheme_name) {
  const EncodingScheme scheme = EncodingScheme::FromName(scheme_name);
  for (auto _ : state) {
    Bytes encoded = EncodePartition(PartitionData().records(), scheme);
    benchmark::DoNotOptimize(encoded);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * PartitionData().size()));
}

// Encodes consecutive `state.range(0)`-record slices of the sample, one
// partition per iteration.
void BM_EncodeSmallPartitions(benchmark::State& state,
                              const char* scheme_name) {
  const EncodingScheme scheme = EncodingScheme::FromName(scheme_name);
  const std::span<const Record> records = PartitionData().records();
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::size_t offset = 0;
  for (auto _ : state) {
    if (offset + n > records.size()) offset = 0;
    Bytes encoded = EncodePartition(records.subspan(offset, n), scheme);
    benchmark::DoNotOptimize(encoded);
    offset += n;
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * n));
}

void BM_DecodePartition(benchmark::State& state, const char* scheme_name) {
  const EncodingScheme scheme = EncodingScheme::FromName(scheme_name);
  const Bytes encoded = EncodePartition(PartitionData().records(), scheme);
  for (auto _ : state) {
    std::vector<Record> records = DecodePartition(encoded, scheme);
    benchmark::DoNotOptimize(records);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * PartitionData().size()));
}

BENCHMARK_CAPTURE(BM_Compress, snappy, CodecKind::kSnappyLike);
BENCHMARK_CAPTURE(BM_Compress, gzip, CodecKind::kGzipLike);
BENCHMARK_CAPTURE(BM_Compress, lzma, CodecKind::kLzmaLike);
BENCHMARK_CAPTURE(BM_Decompress, snappy, CodecKind::kSnappyLike);
BENCHMARK_CAPTURE(BM_Decompress, gzip, CodecKind::kGzipLike);
BENCHMARK_CAPTURE(BM_Decompress, lzma, CodecKind::kLzmaLike);
BENCHMARK_CAPTURE(BM_EncodePartition, row_snappy, "ROW-SNAPPY");
BENCHMARK_CAPTURE(BM_EncodePartition, col_gzip, "COL-GZIP");
BENCHMARK_CAPTURE(BM_EncodePartition, col_lzma, "COL-LZMA");
BENCHMARK_CAPTURE(BM_EncodeSmallPartitions, row_snappy, "ROW-SNAPPY")
    ->Arg(12)->Arg(49)->Arg(781);
BENCHMARK_CAPTURE(BM_EncodeSmallPartitions, col_gzip, "COL-GZIP")
    ->Arg(12)->Arg(49)->Arg(781);
BENCHMARK_CAPTURE(BM_EncodeSmallPartitions, col_lzma, "COL-LZMA")
    ->Arg(12)->Arg(49)->Arg(781);
BENCHMARK_CAPTURE(BM_DecodePartition, row_snappy, "ROW-SNAPPY");
BENCHMARK_CAPTURE(BM_DecodePartition, col_gzip, "COL-GZIP");
BENCHMARK_CAPTURE(BM_DecodePartition, col_lzma, "COL-LZMA");

}  // namespace
}  // namespace blot

int main(int argc, char** argv) {
  return blot::bench::RunAndReport(argc, argv, "micro_codec",
                                   "BENCH_codec.json");
}
