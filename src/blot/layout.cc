#include "blot/layout.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>

#include "codec/columnar.h"
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
// Chunk encoders: one contiguous run of records, no count prefix. Each
// block is one chunk, with every transform restarted. The matching
// decoders are the block decoders below the block stream.
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

// ---------------------------------------------------------------------
// Block decoders: one per layout, shared by the full decode and range
// scans.
// ---------------------------------------------------------------------

// Row blocks are fixed-width, so a row that `range` rejects skips its 12
// attribute bytes (speed, heading, status, passengers, fare) without
// parsing them. A null `range` keeps every row.
void ScanRowBlock(BytesView body, std::size_t n, const STRange* range,
                  std::vector<Record>& out) {
  constexpr std::size_t kAttributeBytes = 4 + 2 + 1 + 1 + 4;
  validate(body.size() == n * kRecordRowBytes,
           "ScanRowBlock: row payload size mismatch");
  ByteReader in(body);
  for (std::size_t i = 0; i < n; ++i) {
    Record r;
    r.oid = in.GetU32();
    r.time = in.GetI64();
    r.x = in.GetF64();
    r.y = in.GetF64();
    if (range != nullptr && !range->Contains(r.Position())) {
      in.GetBytes(kAttributeBytes);
      continue;
    }
    r.speed = in.GetF32();
    r.heading = in.GetU16();
    r.status = in.GetU8();
    r.passengers = in.GetU8();
    r.fare_cents = in.GetU32();
    out.push_back(r);
  }
}

// Reusable per-scan decode buffers: one set per partition scan, so block
// iteration does not allocate.
struct ColumnScratch {
  std::vector<std::int64_t> oids, times, headings, fares;
  std::vector<double> xs, ys;
  std::vector<float> speeds;
  std::vector<std::uint8_t> statuses, passengers;
  std::vector<std::uint64_t> bitmap;

  void Resize(std::size_t n) {
    oids.resize(n);
    times.resize(n);
    headings.resize(n);
    fares.resize(n);
    xs.resize(n);
    ys.resize(n);
    speeds.resize(n);
    statuses.resize(n);
    passengers.resize(n);
    bitmap.resize((n + 63) / 64);
  }
};

// Sets bit i of `bitmap` (little-endian 64-bit words, zeroed here up to
// ceil(count/64) words) iff record i lies in `range`, with the closed
// compares of STRange::Contains: NaN coordinates never match and the
// empty range matches nothing. Returns the match count.
std::size_t FilterRangeBitmap(const STRange& range, const double* xs,
                              const double* ys, const std::int64_t* times,
                              std::size_t count, std::uint64_t* bitmap) {
  std::fill(bitmap, bitmap + (count + 63) / 64, 0);
  if (range.empty()) return 0;
  const double x_min = range.x_min(), x_max = range.x_max();
  const double y_min = range.y_min(), y_max = range.y_max();
  const double t_min = range.t_min(), t_max = range.t_max();
  std::size_t matches = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const double t = static_cast<double>(times[i]);
    const bool hit = xs[i] >= x_min && xs[i] <= x_max && ys[i] >= y_min &&
                     ys[i] <= y_max && t >= t_min && t <= t_max;
    bitmap[i >> 6] |= static_cast<std::uint64_t>(hit) << (i & 63);
    matches += hit;
  }
  return matches;
}

// Decodes one column block and appends the records `range` keeps (every
// record when `range` is null). A range scan decodes the core columns
// (oid, time, x, y) first, builds the selection bitmap, and parses the
// attribute columns only when something matched; their bytes are skipped
// wholesale otherwise, since the block payload is length-prefixed.
void ScanColumnBlock(BytesView body, std::size_t n, const STRange* range,
                     ColumnScratch& s, std::vector<Record>& out) {
  s.Resize(n);
  std::size_t pos = 0;
  pos += DecodeDeltaColumn(body.subspan(pos), s.oids);
  pos += DecodeDeltaColumn(body.subspan(pos), s.times);
  pos += DecodeAdaptiveDoubleColumn(body.subspan(pos), s.xs);
  pos += DecodeAdaptiveDoubleColumn(body.subspan(pos), s.ys);
  if (range != nullptr &&
      FilterRangeBitmap(*range, s.xs.data(), s.ys.data(), s.times.data(), n,
                        s.bitmap.data()) == 0)
    return;
  pos += DecodeF32Column(body.subspan(pos), s.speeds);
  pos += DecodeDeltaColumn(body.subspan(pos), s.headings);
  pos += DecodeRleColumn(body.subspan(pos), s.statuses);
  pos += DecodeRleColumn(body.subspan(pos), s.passengers);
  pos += DecodeDeltaColumn(body.subspan(pos), s.fares);
  validate(pos == body.size(), "ScanColumnBlock: trailing block bytes");

  const auto append = [&](std::size_t i) {
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
  };
  if (range == nullptr) {
    for (std::size_t i = 0; i < n; ++i) append(i);
    return;
  }
  for (std::size_t w = 0; w < (n + 63) / 64; ++w) {
    std::uint64_t word = s.bitmap[w];
    while (word != 0) {
      append(w * 64 + static_cast<std::size_t>(std::countr_zero(word)));
      word &= word - 1;
    }
  }
}

// The one block scan behind both public decoders: walks the block stream
// and hands each surviving block to its layout's block decoder, which
// appends the records `range` keeps (all of them when `range` is null).
std::vector<Record> ScanRecords(BytesView data, Layout layout,
                                const STRange* range, bool prune_blocks,
                                std::uint64_t* total_records,
                                ScanCounters* counters,
                                const CancelToken* cancel) {
  ByteReader in(data);
  const std::uint64_t count64 = in.GetVarint();
  validate(count64 <= data.size(), "ScanRecords: implausible record count");
  if (total_records != nullptr) *total_records = count64;
  std::vector<Record> records;
  if (range == nullptr) records.reserve(static_cast<std::size_t>(count64));
  ColumnScratch scratch;
  WalkBlocks(in, count64, prune_blocks ? range : nullptr, counters, cancel,
             [&](BytesView body, std::size_t n) {
               if (layout == Layout::kRow) {
                 ScanRowBlock(body, n, range, records);
               } else {
                 ScanColumnBlock(body, n, range, scratch, records);
               }
             });
  return records;
}

std::atomic<bool> zone_map_pruning{true};

}  // namespace

bool ZoneMapPruningEnabled() {
  return zone_map_pruning.load(std::memory_order_relaxed);
}

void SetZoneMapPruning(bool enabled) {
  zone_map_pruning.store(enabled, std::memory_order_relaxed);
}

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
  return ScanRecords(data, layout, nullptr, false, nullptr, nullptr, nullptr);
}

std::vector<Record> DeserializeRecordsInRange(
    BytesView data, Layout layout, const STRange& range,
    std::uint64_t* total_records, bool prune_blocks, ScanCounters* counters,
    const CancelToken* cancel) {
  // Cancellation needs `counters` to report the interruption; without it
  // a partial prefix would masquerade as a full answer.
  if (counters == nullptr) cancel = nullptr;
  return ScanRecords(data, layout, &range, prune_blocks, total_records,
                     counters, cancel);
}

}  // namespace blot
