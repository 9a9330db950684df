#include "blot/layout.h"

#include <bit>
#include <cmath>
#include <limits>

#include "codec/columnar.h"
#include "codec/simd/dispatch.h"
#include "codec/simd/kernels.h"
#include "obs/metrics.h"
#include "util/error.h"

namespace blot {

std::string_view LayoutName(Layout layout) {
  switch (layout) {
    case Layout::kRow:
      return "ROW";
    case Layout::kColumn:
      return "COL";
  }
  throw InvalidArgument("LayoutName: unknown layout");
}

Layout LayoutFromName(std::string_view name) {
  if (name == "ROW") return Layout::kRow;
  if (name == "COL") return Layout::kColumn;
  throw InvalidArgument("LayoutFromName: unknown layout name: " +
                        std::string(name));
}

namespace {

// ---------------------------------------------------------------------
// Chunk coders: one contiguous run of records, no count prefix. Each
// block is one chunk, with every transform restarted.
// ---------------------------------------------------------------------

void EncodeRowChunk(ByteWriter& w, std::span<const Record> records) {
  for (const Record& r : records) {
    w.PutU32(r.oid);
    w.PutI64(r.time);
    w.PutF64(r.x);
    w.PutF64(r.y);
    w.PutF32(r.speed);
    w.PutU16(r.heading);
    w.PutU8(r.status);
    w.PutU8(r.passengers);
    w.PutU32(r.fare_cents);
  }
}

std::vector<Record> DeserializeRows(ByteReader& in, std::size_t count) {
  std::vector<Record> records;
  records.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    Record r;
    r.oid = in.GetU32();
    r.time = in.GetI64();
    r.x = in.GetF64();
    r.y = in.GetF64();
    r.speed = in.GetF32();
    r.heading = in.GetU16();
    r.status = in.GetU8();
    r.passengers = in.GetU8();
    r.fare_cents = in.GetU32();
    records.push_back(r);
  }
  return records;
}

void EncodeColumnChunk(ByteWriter& w, std::span<const Record> records) {
  const std::size_t n = records.size();
  std::vector<std::int64_t> ints(n);
  for (std::size_t i = 0; i < n; ++i) ints[i] = records[i].oid;
  EncodeDeltaColumn(w, ints);
  for (std::size_t i = 0; i < n; ++i) ints[i] = records[i].time;
  EncodeDeltaColumn(w, ints);

  std::vector<double> doubles(n);
  for (std::size_t i = 0; i < n; ++i) doubles[i] = records[i].x;
  EncodeAdaptiveDoubleColumn(w, doubles);
  for (std::size_t i = 0; i < n; ++i) doubles[i] = records[i].y;
  EncodeAdaptiveDoubleColumn(w, doubles);

  std::vector<float> floats(n);
  for (std::size_t i = 0; i < n; ++i) floats[i] = records[i].speed;
  EncodeF32Column(w, floats);

  for (std::size_t i = 0; i < n; ++i) ints[i] = records[i].heading;
  EncodeDeltaColumn(w, ints);

  std::vector<std::uint8_t> bytes(n);
  for (std::size_t i = 0; i < n; ++i) bytes[i] = records[i].status;
  EncodeRleColumn(w, bytes);
  for (std::size_t i = 0; i < n; ++i) bytes[i] = records[i].passengers;
  EncodeRleColumn(w, bytes);

  for (std::size_t i = 0; i < n; ++i) ints[i] = records[i].fare_cents;
  EncodeDeltaColumn(w, ints);
}

std::vector<Record> DeserializeColumns(ByteReader& in, std::size_t count) {
  std::vector<Record> records(count);
  const auto oids = DecodeDeltaColumn(in, count);
  const auto times = DecodeDeltaColumn(in, count);
  const auto xs = DecodeAdaptiveDoubleColumn(in, count);
  const auto ys = DecodeAdaptiveDoubleColumn(in, count);
  const auto speeds = DecodeF32Column(in, count);
  const auto headings = DecodeDeltaColumn(in, count);
  const auto statuses = DecodeRleColumn(in, count);
  const auto passengers = DecodeRleColumn(in, count);
  const auto fares = DecodeDeltaColumn(in, count);
  for (std::size_t i = 0; i < count; ++i) {
    validate(oids[i] >= 0 && oids[i] <= 0xFFFFFFFFll,
             "DeserializeColumns: oid out of range");
    validate(headings[i] >= 0 && headings[i] <= 0xFFFFll,
             "DeserializeColumns: heading out of range");
    validate(fares[i] >= 0 && fares[i] <= 0xFFFFFFFFll,
             "DeserializeColumns: fare out of range");
    records[i].oid = static_cast<std::uint32_t>(oids[i]);
    records[i].time = times[i];
    records[i].x = xs[i];
    records[i].y = ys[i];
    records[i].speed = speeds[i];
    records[i].heading = static_cast<std::uint16_t>(headings[i]);
    records[i].status = statuses[i];
    records[i].passengers = passengers[i];
    records[i].fare_cents = static_cast<std::uint32_t>(fares[i]);
  }
  return records;
}

// Streaming row filter: rows are fixed-width, so non-matching rows skip
// their 12 attribute bytes (speed, heading, status, passengers, fare)
// without parsing them.
std::vector<Record> ScanRowsInRange(ByteReader& in, std::size_t count,
                                    const STRange& range) {
  constexpr std::size_t kAttributeBytes = 4 + 2 + 1 + 1 + 4;
  validate(in.remaining() == count * kRecordRowBytes,
           "ScanRowsInRange: row payload size mismatch");
  std::vector<Record> matches;
  for (std::size_t i = 0; i < count; ++i) {
    Record r;
    r.oid = in.GetU32();
    r.time = in.GetI64();
    r.x = in.GetF64();
    r.y = in.GetF64();
    if (!range.Contains(r.Position())) {
      in.GetBytes(kAttributeBytes);
      continue;
    }
    r.speed = in.GetF32();
    r.heading = in.GetU16();
    r.status = in.GetU8();
    r.passengers = in.GetU8();
    r.fare_cents = in.GetU32();
    matches.push_back(r);
  }
  return matches;
}

// ---------------------------------------------------------------------
// Block stream.
// ---------------------------------------------------------------------

constexpr std::uint8_t kBlockHasZone = 1;
// A block never legitimately exceeds the writer's block size; the bound
// caps what a corrupt header can make the decoder allocate.
constexpr std::uint64_t kMaxBlockSize = 1u << 20;

struct BlockZone {
  bool has_zone = false;
  std::int64_t t_min = 0, t_max = 0;
  double x_min = 0, x_max = 0, y_min = 0, y_max = 0;
};

// Min/max over the block's records. NaN coordinates have no order, so a
// block containing one gets no zone (scans never prune it).
BlockZone ComputeBlockZone(std::span<const Record> records) {
  BlockZone z;
  if (records.empty()) return z;
  z.has_zone = true;
  z.t_min = z.t_max = records[0].time;
  z.x_min = z.x_max = records[0].x;
  z.y_min = z.y_max = records[0].y;
  for (const Record& r : records) {
    if (std::isnan(r.x) || std::isnan(r.y)) return BlockZone{};
    z.t_min = std::min(z.t_min, r.time);
    z.t_max = std::max(z.t_max, r.time);
    z.x_min = std::min(z.x_min, r.x);
    z.x_max = std::max(z.x_max, r.x);
    z.y_min = std::min(z.y_min, r.y);
    z.y_max = std::max(z.y_max, r.y);
  }
  return z;
}

// Walks the block stream: parses + validates every header, prunes
// non-intersecting blocks when `prune` is set, and hands surviving block
// payloads to `scan_block(body, n)`. Counter/timing accounting lands in
// `counters` when provided. `cancel` (requires `counters`) is polled at
// every block boundary: when it fires the walk returns early with
// `counters->interrupted` set, skipping the trailing-bytes validation —
// the stream is fine, the scan just left before its end.
template <typename Fn>
void WalkBlocks(ByteReader& in, std::uint64_t total, const STRange* prune,
                ScanCounters* counters, const CancelToken* cancel,
                Fn&& scan_block) {
  const std::uint64_t block_size = in.GetVarint();
  validate(total == 0 || (block_size > 0 && block_size <= kMaxBlockSize),
           "WalkBlocks: implausible block size");
  const bool timed = counters != nullptr && counters->timed;
  std::uint64_t done = 0;
  while (done < total) {
    if (cancel != nullptr && counters != nullptr && cancel->ShouldStop()) {
      counters->interrupted = true;
      return;
    }
    const std::uint64_t t0 = timed ? obs::MonotonicNanos() : 0;
    const std::uint64_t n64 = in.GetVarint();
    validate(n64 > 0 && n64 <= block_size && n64 <= total - done,
             "WalkBlocks: bad block record count");
    const std::uint8_t flags = in.GetU8();
    validate(flags <= kBlockHasZone, "WalkBlocks: bad block flags");
    const std::int64_t t_min = in.GetI64();
    const std::int64_t t_max = in.GetI64();
    const double x_min = in.GetF64();
    const double x_max = in.GetF64();
    const double y_min = in.GetF64();
    const double y_max = in.GetF64();
    if ((flags & kBlockHasZone) != 0)
      validate(t_min <= t_max && x_min <= x_max && y_min <= y_max,
               "WalkBlocks: malformed block zone map");
    const std::uint64_t payload = in.GetVarint();
    validate(payload <= in.remaining(),
             "WalkBlocks: block payload extends past input");
    const BytesView body = in.GetBytes(static_cast<std::size_t>(payload));
    if (counters != nullptr) ++counters->blocks_total;
    bool pruned = false;
    if (prune != nullptr && (flags & kBlockHasZone) != 0) {
      const STRange zone = STRange::FromBounds(
          x_min, x_max, y_min, y_max, static_cast<double>(t_min),
          static_cast<double>(t_max));
      pruned = !prune->Intersects(zone);
    }
    if (pruned) {
      if (counters != nullptr) {
        ++counters->blocks_pruned;
        if (timed) counters->prune_ns += obs::MonotonicNanos() - t0;
      }
    } else {
      scan_block(body, static_cast<std::size_t>(n64));
      if (timed) counters->decode_ns += obs::MonotonicNanos() - t0;
    }
    done += n64;
  }
  validate(in.AtEnd(), "WalkBlocks: trailing bytes");
}

// Reusable per-scan decode buffers: one set per partition scan, so block
// iteration does not allocate.
struct ColumnScratch {
  std::vector<std::int64_t> oids, times, ints, headings, fares;
  std::vector<double> xs, ys, ts;
  std::vector<float> speeds;
  std::vector<std::uint8_t> statuses, passengers;
  std::vector<std::uint64_t> bitmap;

  void Resize(std::size_t n) {
    oids.resize(n);
    times.resize(n);
    ints.resize(n);
    headings.resize(n);
    fares.resize(n);
    xs.resize(n);
    ys.resize(n);
    ts.resize(n);
    speeds.resize(n);
    statuses.resize(n);
    passengers.resize(n);
    bitmap.resize((n + 63) / 64);
  }
};

// Kernel-based inverse of EncodeAdaptiveDoubleColumn for one chunk.
// Mode bytes mirror codec/columnar.cc: 0 = XOR, 1 = quantized.
std::size_t DecodeAdaptiveChunk(simd::ScanEngine engine,
                                const std::uint8_t* p,
                                const std::uint8_t* end, double* out,
                                std::size_t n,
                                std::vector<std::int64_t>& tmp) {
  validate(p < end, "ByteReader: truncated input");
  const std::uint8_t mode = *p;
  if (mode == 0) return 1 + simd::DecodeXorF64(engine, p + 1, end, out, n);
  validate(mode == 1, "DecodeAdaptiveDoubleColumn: unknown mode");
  validate(static_cast<std::size_t>(end - p) >= 9,
           "ByteReader: truncated input");
  std::uint64_t bits = 0;
  for (int i = 0; i < 8; ++i)
    bits |= static_cast<std::uint64_t>(p[1 + i]) << (8 * i);
  const double denominator = std::bit_cast<double>(bits);
  validate(denominator > 0, "DecodeAdaptiveDoubleColumn: bad denominator");
  std::size_t consumed =
      9 + simd::DecodeZigZagDeltaI64(engine, p + 9, end, tmp.data(), n);
  for (std::size_t i = 0; i < n; ++i)
    out[i] = static_cast<double>(tmp[i]) / denominator;
  return consumed;
}

// Vectorized fused scan of one column block: decode core columns through
// the engine's kernels, build the selection bitmap, and parse the
// attribute columns only when something matched (their bytes are skipped
// wholesale otherwise — the block payload is length-prefixed).
void ScanColumnBlock(BytesView body, std::size_t n, const STRange& range,
                     simd::ScanEngine engine, ColumnScratch& s,
                     std::vector<Record>& out) {
  s.Resize(n);
  const std::uint8_t* base = body.data();
  const std::uint8_t* end = base + body.size();
  std::size_t pos = 0;
  pos += simd::DecodeZigZagDeltaI64(engine, base + pos, end, s.oids.data(), n);
  pos +=
      simd::DecodeZigZagDeltaI64(engine, base + pos, end, s.times.data(), n);
  pos += DecodeAdaptiveChunk(engine, base + pos, end, s.xs.data(), n, s.ints);
  pos += DecodeAdaptiveChunk(engine, base + pos, end, s.ys.data(), n, s.ints);
  for (std::size_t i = 0; i < n; ++i)
    s.ts[i] = static_cast<double>(s.times[i]);

  double bounds[6];
  if (range.empty()) {
    // Inverted bounds: nothing matches, mirroring STRange::Contains on
    // the empty range.
    const double inf = std::numeric_limits<double>::infinity();
    bounds[0] = bounds[2] = bounds[4] = inf;
    bounds[1] = bounds[3] = bounds[5] = -inf;
  } else {
    bounds[0] = range.x_min();
    bounds[1] = range.x_max();
    bounds[2] = range.y_min();
    bounds[3] = range.y_max();
    bounds[4] = range.t_min();
    bounds[5] = range.t_max();
  }
  const std::size_t matched = simd::FilterRangeBitmap(
      engine, s.xs.data(), s.ys.data(), s.ts.data(), n, bounds,
      s.bitmap.data());
  if (matched == 0) return;

  pos += simd::DecodeF32(engine, base + pos, end, s.speeds.data(), n);
  pos += simd::DecodeZigZagDeltaI64(engine, base + pos, end,
                                    s.headings.data(), n);
  pos += simd::DecodeRleU8(engine, base + pos, end, s.statuses.data(), n);
  pos += simd::DecodeRleU8(engine, base + pos, end, s.passengers.data(), n);
  pos +=
      simd::DecodeZigZagDeltaI64(engine, base + pos, end, s.fares.data(), n);
  validate(pos == body.size(), "ScanColumnBlock: trailing block bytes");

  out.reserve(out.size() + matched);
  for (std::size_t w = 0; w < (n + 63) / 64; ++w) {
    std::uint64_t word = s.bitmap[w];
    while (word != 0) {
      const std::size_t i =
          w * 64 + static_cast<std::size_t>(std::countr_zero(word));
      word &= word - 1;
      validate(s.oids[i] >= 0 && s.oids[i] <= 0xFFFFFFFFll,
               "ScanColumnBlock: oid out of range");
      validate(s.headings[i] >= 0 && s.headings[i] <= 0xFFFFll,
               "ScanColumnBlock: heading out of range");
      validate(s.fares[i] >= 0 && s.fares[i] <= 0xFFFFFFFFll,
               "ScanColumnBlock: fare out of range");
      Record r;
      r.oid = static_cast<std::uint32_t>(s.oids[i]);
      r.time = s.times[i];
      r.x = s.xs[i];
      r.y = s.ys[i];
      r.speed = s.speeds[i];
      r.heading = static_cast<std::uint16_t>(s.headings[i]);
      r.status = s.statuses[i];
      r.passengers = s.passengers[i];
      r.fare_cents = static_cast<std::uint32_t>(s.fares[i]);
      out.push_back(r);
    }
  }
}

}  // namespace

Bytes SerializeRecords(std::span<const Record> records, Layout layout) {
  ByteWriter w;
  w.PutVarint(records.size());
  w.PutVarint(kScanBlockRecords);
  for (std::size_t off = 0; off < records.size();
       off += kScanBlockRecords) {
    const std::size_t n =
        std::min(kScanBlockRecords, records.size() - off);
    const std::span<const Record> block = records.subspan(off, n);
    const BlockZone zone = ComputeBlockZone(block);
    ByteWriter body;
    if (layout == Layout::kRow) {
      EncodeRowChunk(body, block);
    } else {
      EncodeColumnChunk(body, block);
    }
    w.PutVarint(n);
    w.PutU8(zone.has_zone ? kBlockHasZone : 0);
    w.PutI64(zone.t_min);
    w.PutI64(zone.t_max);
    w.PutF64(zone.x_min);
    w.PutF64(zone.x_max);
    w.PutF64(zone.y_min);
    w.PutF64(zone.y_max);
    w.PutVarint(body.size());
    w.PutBytes(body.buffer());
  }
  return w.Take();
}

std::vector<Record> DeserializeRecords(BytesView data, Layout layout) {
  ByteReader in(data);
  const std::uint64_t count64 = in.GetVarint();
  validate(count64 <= data.size(),
           "DeserializeRecords: implausible record count");
  std::vector<Record> records;
  records.reserve(static_cast<std::size_t>(count64));
  WalkBlocks(in, count64, nullptr, nullptr, nullptr,
             [&](BytesView body, std::size_t n) {
               ByteReader block(body);
               std::vector<Record> chunk = layout == Layout::kRow
                                               ? DeserializeRows(block, n)
                                               : DeserializeColumns(block, n);
               validate(block.AtEnd(),
                        "DeserializeRecords: trailing block bytes");
               records.insert(records.end(), chunk.begin(), chunk.end());
             });
  return records;
}

std::vector<Record> DeserializeRecordsInRange(
    BytesView data, Layout layout, const STRange& range,
    std::uint64_t* total_records, bool prune_blocks, ScanCounters* counters,
    const CancelToken* cancel) {
  // Cancellation needs `counters` to report the interruption; without it
  // a partial prefix would masquerade as a full answer.
  if (counters == nullptr) cancel = nullptr;
  ByteReader in(data);
  const std::uint64_t count64 = in.GetVarint();
  validate(count64 <= data.size(),
           "DeserializeRecordsInRange: implausible record count");
  if (total_records != nullptr) *total_records = count64;
  const STRange* prune = prune_blocks ? &range : nullptr;
  std::vector<Record> matches;
  if (layout == Layout::kRow) {
    WalkBlocks(in, count64, prune, counters, cancel,
               [&](BytesView body, std::size_t n) {
                 ByteReader block(body);
                 std::vector<Record> chunk = ScanRowsInRange(block, n, range);
                 matches.insert(matches.end(), chunk.begin(), chunk.end());
               });
  } else {
    const simd::ScanEngine engine = simd::ActiveScanEngine();
    ColumnScratch scratch;
    WalkBlocks(in, count64, prune, counters, cancel,
               [&](BytesView body, std::size_t n) {
                 ScanColumnBlock(body, n, range, engine, scratch, matches);
               });
  }
  return matches;
}

}  // namespace blot
