// Physical record layouts within a partition (Section II-C).
//
//   kRow    — fixed-width binary rows, the "binary format instead of text
//             format" baseline; fastest to scan.
//   kColumn — column-major with per-column transforms ("organize the data
//             in column fashion and then apply column-wise encoding
//             schemes (e.g., delta encoding and run-length encoding)"):
//             delta+varint integers, XOR-coded doubles, RLE flags.
//
// Both layouts are lossless; a general-purpose codec is applied on top by
// the encoding scheme. The wire format is blocked: the partition is cut
// into blocks of kScanBlockRecords records; each block carries a
// zone-map header (min/max TIME and LOC over its records) plus its
// payload byte length, and every per-column transform restarts at the
// block boundary. Range scans consult the zone map and skip
// non-intersecting blocks without decoding them.
//
// Each layout has one block decoder (the column one runs the decoders of
// codec/columnar.h). A full decode is the same block scan with no range:
// it keeps every record, NaN coordinates included, so decode-then-filter
// and a range scan can only disagree on the filter, never on a decoder.
#ifndef BLOT_BLOT_LAYOUT_H_
#define BLOT_BLOT_LAYOUT_H_

#include <span>
#include <string_view>
#include <vector>

#include "blot/record.h"
#include "util/bytes.h"
#include "util/cancel.h"

namespace blot {

enum class Layout { kRow, kColumn };

std::string_view LayoutName(Layout layout);
Layout LayoutFromName(std::string_view name);

// Records per block. Chosen so a block's columns stay
// cache-resident while the per-block zone-map header (~55 bytes) stays
// under 0.3% of a raw row block.
inline constexpr std::size_t kScanBlockRecords = 512;

// Scan-internal accounting of the block walk, surfaced through the
// query profile (zone_map_prune / block_decode sub-stages) and scan.*
// metrics.
// Timings are captured only when `timed` is set — the two clock reads
// per block are not free — counters always.
struct ScanCounters {
  std::uint64_t blocks_total = 0;   // blocks seen (scanned + pruned)
  std::uint64_t blocks_pruned = 0;  // skipped via the zone map
  std::uint64_t decode_ns = 0;      // decode+filter time in surviving blocks
  std::uint64_t prune_ns = 0;       // header-parse+skip time of pruned blocks
  bool timed = false;
  // The scan stopped at a cancellation point before covering the whole
  // partition: the returned matches are a prefix, not the full answer.
  bool interrupted = false;
};

// Serializes records under the given layout.
Bytes SerializeRecords(std::span<const Record> records, Layout layout);

// Inverse of SerializeRecords: the block scan with no range, keeping
// every record. Throws CorruptData on malformed input.
std::vector<Record> DeserializeRecords(BytesView data, Layout layout);

// Fused decode-filter scan: deserializes `data` but materializes only
// the records whose Position() lies inside `range` — exactly the records
// DeserializeRecords + filter would return, in the same order.
//
//   kColumn — decodes the oid/time/x/y columns first, computes the match
//             set against `range` (a selection bitmap), and only then
//             materializes matching rows; when nothing matches, the five
//             attribute columns are never decoded at all (predicate
//             pushdown).
//   kRow    — streams over the fixed-width rows, parsing the core
//             attributes and skipping the 12 attribute bytes of rows
//             that fall outside `range`; no intermediate full-partition
//             vector is built.
//
// With `prune_blocks`, whole blocks whose zone map does not intersect
// `range` are skipped without touching their payload.
// `total_records` (optional) receives the partition's record count from
// the serialized header, for scan accounting and count validation;
// `counters` (optional) receives block-level prune/decode accounting.
// The fused path validates the framing it actually touches; byte-level
// integrity is the caller's checksum's job.
//
// `cancel` (optional) is polled at every block boundary: when it fires,
// the walk stops, `counters->interrupted` is set, and the records decoded
// so far are returned — callers must treat an interrupted partition as
// not served.
// Cancellation requires `counters`; without a place to report the
// truncation, a partial prefix would be indistinguishable from a full
// answer, so `cancel` is ignored when `counters` is null.
std::vector<Record> DeserializeRecordsInRange(
    BytesView data, Layout layout, const STRange& range,
    std::uint64_t* total_records = nullptr, bool prune_blocks = true,
    ScanCounters* counters = nullptr, const CancelToken* cancel = nullptr);

// Process-wide zone-map pruning (partition zone skips and block
// pruning). Defaults to on; every scan path, the store's routed queries
// included, reads it at scan start. Tests and the differential harness
// turn it off to check that pruning never changes an answer.
bool ZoneMapPruningEnabled();
void SetZoneMapPruning(bool enabled);

}  // namespace blot

#endif  // BLOT_BLOT_LAYOUT_H_
