#include "blot/segment_store.h"

#include <fstream>

#include "util/bytes.h"
#include "util/error.h"

namespace blot {
namespace {

constexpr std::uint64_t kManifestMagic = 0x31474553544F4C42ull;  // "BLOTSEG1"
// Version history:
//   1 — original layout: per-partition {range, num_records, offset, size,
//       checksum, codec}. Payloads predate the blocked wire format; no
//       longer loadable.
//   2 — adds per-partition {wire format, has_zone, zone range}: the wire
//       format byte (always kBlockedFormat) and the partition's exact
//       bounding cuboid for zone-map pruning.
// Load accepts version 2 only, and only the blocked format byte.
constexpr std::uint32_t kManifestVersion = 2;
// The per-partition wire format byte of the blocked layout. Byte 1 was
// the retired monolithic format; a manifest naming it is rejected.
constexpr std::uint8_t kBlockedFormat = 2;

const char* kManifestName = "manifest.blot";
const char* kSegmentsName = "segments.dat";

void PutRange(ByteWriter& w, const STRange& r) {
  w.PutF64(r.x_min());
  w.PutF64(r.x_max());
  w.PutF64(r.y_min());
  w.PutF64(r.y_max());
  w.PutF64(r.t_min());
  w.PutF64(r.t_max());
}

STRange GetRange(ByteReader& r) {
  const double x_min = r.GetF64();
  const double x_max = r.GetF64();
  const double y_min = r.GetF64();
  const double y_max = r.GetF64();
  const double t_min = r.GetF64();
  const double t_max = r.GetF64();
  validate(x_min <= x_max && y_min <= y_max && t_min <= t_max,
           "SegmentStore: malformed range in manifest");
  return STRange::FromBounds(x_min, x_max, y_min, y_max, t_min, t_max);
}

}  // namespace

void WriteFileAtomically(const std::filesystem::path& path,
                         BytesView contents) {
  const std::filesystem::path tmp = path.string() + ".tmp";
  std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
  require(out.good(), "WriteFileAtomically: cannot open " + tmp.string());
  out.write(reinterpret_cast<const char*>(contents.data()),
            static_cast<std::streamsize>(contents.size()));
  // A full device fails the flush, which only close() reports.
  out.close();
  require(!out.fail(), "WriteFileAtomically: short write to " + tmp.string());
  std::filesystem::rename(tmp, path);
}

Bytes ReadFile(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) throw ReadError("ReadFile: cannot open " + path.string());
  return Bytes((std::istreambuf_iterator<char>(in)),
               std::istreambuf_iterator<char>());
}

void SegmentStore::Save(const Replica& replica,
                        const std::filesystem::path& directory) {
  std::filesystem::create_directories(directory);

  // Data file first: concatenated encoded partitions.
  Bytes segments;
  std::vector<std::uint64_t> offsets;
  offsets.reserve(replica.NumPartitions());
  for (std::size_t p = 0; p < replica.NumPartitions(); ++p) {
    offsets.push_back(segments.size());
    const Bytes& data = replica.partition(p).data;
    segments.insert(segments.end(), data.begin(), data.end());
  }
  WriteFileAtomically(directory / kSegmentsName, segments);

  // Manifest second, so a crash between the two renames leaves a stale
  // manifest pointing at complete (old or new both checksummed) data or
  // no manifest at all.
  ByteWriter manifest;
  manifest.PutU64(kManifestMagic);
  manifest.PutU32(kManifestVersion);
  manifest.PutString(replica.config().encoding.Name());
  manifest.PutU8(replica.config().policy ==
                         EncodingPolicy::kBestCodecPerPartition
                     ? 1
                     : 0);
  manifest.PutString(SpatialMethodName(replica.config().partitioning.method));
  manifest.PutVarint(replica.config().partitioning.spatial_partitions);
  manifest.PutVarint(replica.config().partitioning.temporal_partitions);
  PutRange(manifest, replica.universe());
  manifest.PutVarint(replica.NumPartitions());
  for (std::size_t p = 0; p < replica.NumPartitions(); ++p) {
    const StoredPartition& stored = replica.partition(p);
    PutRange(manifest, replica.index().Range(p));
    manifest.PutVarint(stored.num_records);
    manifest.PutVarint(offsets[p]);
    manifest.PutVarint(stored.data.size());
    manifest.PutU64(stored.checksum);
    manifest.PutString(std::string(CodecKindName(stored.codec)));
    manifest.PutU8(kBlockedFormat);
    manifest.PutU8(stored.has_zone ? 1 : 0);
    if (stored.has_zone) PutRange(manifest, stored.zone);
  }
  // Whole-manifest checksum excluding this trailing field.
  manifest.PutU64(Fnv1a64(manifest.buffer()));
  WriteFileAtomically(directory / kManifestName, manifest.buffer());
}

Replica SegmentStore::Load(const std::filesystem::path& directory) {
  require(Exists(directory),
          "SegmentStore::Load: no manifest in " + directory.string());
  const Bytes manifest_bytes = ReadFile(directory / kManifestName);
  validate(manifest_bytes.size() > 8, "SegmentStore: manifest too small");
  const BytesView body(manifest_bytes.data(), manifest_bytes.size() - 8);
  ByteReader trailer(BytesView(manifest_bytes.data() + body.size(), 8));
  validate(trailer.GetU64() == Fnv1a64(body),
           "SegmentStore: manifest checksum mismatch");

  ByteReader manifest(body);
  validate(manifest.GetU64() == kManifestMagic,
           "SegmentStore: bad manifest magic");
  const std::uint32_t version = manifest.GetU32();
  validate(version == kManifestVersion,
           "SegmentStore: unsupported manifest version");
  ReplicaConfig config;
  config.encoding = EncodingScheme::FromName(manifest.GetString());
  config.policy = manifest.GetU8() == 1
                      ? EncodingPolicy::kBestCodecPerPartition
                      : EncodingPolicy::kUniform;
  const std::string method = manifest.GetString();
  config.partitioning.method =
      method == "KD" ? SpatialMethod::kKdTree : SpatialMethod::kGrid;
  config.partitioning.spatial_partitions =
      static_cast<std::size_t>(manifest.GetVarint());
  config.partitioning.temporal_partitions =
      static_cast<std::size_t>(manifest.GetVarint());
  const STRange universe = GetRange(manifest);
  const std::uint64_t num_partitions = manifest.GetVarint();
  validate(num_partitions == config.partitioning.TotalPartitions(),
           "SegmentStore: partition count mismatch");

  const Bytes segments = ReadFile(directory / kSegmentsName);
  std::vector<STRange> ranges;
  std::vector<StoredPartition> partitions;
  ranges.reserve(num_partitions);
  partitions.reserve(num_partitions);
  for (std::uint64_t p = 0; p < num_partitions; ++p) {
    ranges.push_back(GetRange(manifest));
    StoredPartition stored;
    stored.num_records = manifest.GetVarint();
    const std::uint64_t offset = manifest.GetVarint();
    const std::uint64_t size = manifest.GetVarint();
    stored.checksum = manifest.GetU64();
    stored.codec = CodecKindFromName(manifest.GetString());
    validate(manifest.GetU8() == kBlockedFormat,
             "SegmentStore: unsupported partition wire format");
    const std::uint8_t has_zone = manifest.GetU8();
    validate(has_zone <= 1, "SegmentStore: bad partition zone flag");
    stored.has_zone = has_zone == 1;
    if (stored.has_zone) stored.zone = GetRange(manifest);
    validate(offset + size <= segments.size(),
             "SegmentStore: segment extends past data file");
    stored.data.assign(segments.begin() + static_cast<std::ptrdiff_t>(offset),
                       segments.begin() +
                           static_cast<std::ptrdiff_t>(offset + size));
    partitions.push_back(std::move(stored));
  }
  validate(manifest.AtEnd(), "SegmentStore: trailing manifest bytes");
  return Replica::FromParts(config, universe, std::move(ranges),
                            std::move(partitions));
}

bool SegmentStore::Exists(const std::filesystem::path& directory) {
  return std::filesystem::exists(directory / kManifestName);
}

std::uintmax_t SegmentStore::DiskBytes(
    const std::filesystem::path& directory) {
  require(Exists(directory),
          "SegmentStore::DiskBytes: no manifest in " + directory.string());
  return std::filesystem::file_size(directory / kManifestName) +
         std::filesystem::file_size(directory / kSegmentsName);
}

}  // namespace blot
