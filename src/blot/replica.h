// A replica r = <D, P, E>: one physical organization of the dataset
// (Definition 4) — records partitioned by a partitioning scheme and each
// partition encoded by an encoding scheme, plus the partitioning index.
//
// Replicas answer range queries by scanning involved partitions
// (Section II-D) and expose their storage size (Definition 5). Because
// every replica stores the same logical record set, any replica can be
// reconstructed from any other (Section II-E's fault-tolerance argument);
// Reconstruct() returns that logical view.
#ifndef BLOT_BLOT_REPLICA_H_
#define BLOT_BLOT_REPLICA_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "blot/dataset.h"
#include "blot/encoding_scheme.h"
#include "blot/partition_index.h"
#include "blot/partitioner.h"
#include "obs/profile.h"
#include "util/error.h"
#include "util/thread_pool.h"

namespace blot {

struct ReplicaConfig;

// Execute() failed on specific storage units of one replica. Derives
// CorruptData (the dominant cause) so legacy catch sites keep working,
// but carries the exact failing partitions so the store can quarantine
// them and fail over to another replica instead of failing the query.
class PartitionFaultError : public CorruptData {
 public:
  PartitionFaultError(const std::string& what, std::string replica,
                      std::vector<std::size_t> partitions)
      : CorruptData(what),
        replica_(std::move(replica)),
        partitions_(std::move(partitions)) {}

  const std::string& replica_name() const { return replica_; }
  const std::vector<std::size_t>& partitions() const { return partitions_; }

  // Throws one PartitionFaultError naming every partition whose
  // `messages` entry is non-empty (messages[k] is the read fault of
  // partitions[k], empty when that scan was healthy); returns when none
  // failed. Replica::Execute and ExecuteBatch both report through it.
  static void ThrowIfAny(const ReplicaConfig& replica,
                         const std::vector<std::size_t>& partitions,
                         const std::vector<std::string>& messages);

 private:
  std::string replica_;
  std::vector<std::size_t> partitions_;
};

// Per-partition encoding policy. The paper's base definition encodes all
// partitions of a replica identically but notes the analysis "can be
// easily generalized for BLOT systems that allow a separate encoding
// scheme for each partition"; kBestCodecPerPartition implements that
// generalization by picking, for every partition, the codec that
// minimizes its encoded size (the layout stays replica-wide).
enum class EncodingPolicy { kUniform, kBestCodecPerPartition };

// A candidate replica configuration: partitioning scheme x encoding
// scheme. This is the unit the replica selection problem chooses among.
struct ReplicaConfig {
  PartitioningSpec partitioning;
  EncodingScheme encoding;
  EncodingPolicy policy = EncodingPolicy::kUniform;

  // Stable identifier, e.g. "KD64xT32/ROW-GZIP" (suffix "+HYBRID" under
  // the per-partition policy).
  std::string Name() const {
    std::string name = partitioning.Name() + "/" + encoding.Name();
    if (policy == EncodingPolicy::kBestCodecPerPartition) name += "+HYBRID";
    return name;
  }

  friend bool operator==(const ReplicaConfig&, const ReplicaConfig&) = default;
};

// What the cost model (Section IV) needs to price a replica, without its
// bytes: the partition ranges, per-partition record counts and the
// storage size. Every Replica carries its own exact sketch. Hypothetical
// sketches, scaled up from a sample ("we only need a small portion of
// the data to build the cost model", Section V-A), come from
// SketchFromSample (simenv/replica_sketch.h).
struct ReplicaSketch {
  ReplicaConfig config;
  STRange universe;
  PartitionIndex index;                // partition ranges
  std::vector<std::uint64_t> counts;   // records per partition
  std::uint64_t total_records = 0;
  std::uint64_t storage_bytes = 0;

  double MeanRecordsPerPartition() const {
    return index.NumPartitions() == 0
               ? 0.0
               : static_cast<double>(total_records) /
                     static_cast<double>(index.NumPartitions());
  }
};

// One storage unit: an encoded partition plus integrity metadata. `codec`
// is the replica's codec under the uniform policy, or this partition's
// chosen codec under kBestCodecPerPartition. `zone`, when `has_zone`, is
// the exact min/max TIME x LOC cuboid over the partition's records —
// tighter than the partitioning cell, so Execute can skip the whole
// partition without touching its bytes; partitions containing NaN
// coordinates carry no zone and are never skipped.
struct StoredPartition {
  std::uint64_t num_records = 0;
  Bytes data;               // encoded (layout + codec) bytes
  std::uint64_t checksum = 0;  // FNV-1a of `data`
  CodecKind codec = CodecKind::kNone;
  bool has_zone = false;
  STRange zone;
};

// Exact TIME x LOC bounding cuboid over `records` — a StoredPartition's
// `zone` — or nullopt when the partition is empty or contains a NaN
// coordinate (no order, so no zone). Same semantics as the per-block zone
// maps in layout.cc, one level up.
std::optional<STRange> ComputePartitionZone(std::span<const Record> records);

// Per-query execution accounting, the raw inputs of the cost model:
// Cost(q, r) is driven by records scanned and partitions touched (Eq. 7).
struct QueryStats {
  std::size_t partitions_scanned = 0;
  std::uint64_t records_scanned = 0;
  // Encoded bytes actually decoded; partitions served from the decoded-
  // partition cache contribute 0.
  std::uint64_t bytes_read = 0;
  // Partitions served from / missed in the decoded-partition cache
  // (both 0 whenever the global cache is disabled).
  std::size_t cache_hits = 0;
  std::size_t cache_misses = 0;
};

struct QueryResult {
  std::vector<Record> records;
  QueryStats stats;
  // True when the scan did not cover every involved partition — either a
  // cancellation fired (ScanOptions::cancel) or partitions were excluded
  // up front (ScanOptions::exclude_partitions). `records` then covers
  // exactly `served_partitions`; an interrupted partition contributes no
  // records at all (partition-granular coverage, never a silent prefix).
  bool truncated = false;
  // Filled only when truncated: involved partitions fully scanned /
  // not scanned, ascending. Partitions pruned by the index or a zone
  // map are provably empty for the query and appear in neither list.
  std::vector<std::size_t> served_partitions;
  std::vector<std::size_t> missed_partitions;
};

// One partition's share of a range scan (Replica::ScanPartition).
struct PartitionScan {
  std::vector<Record> matches;
  // records_scanned, bytes_read and the cache hit/miss of this partition;
  // partitions_scanned is left to the caller.
  QueryStats stats;
  // Block accounting of the fused kernel. `interrupted`: a cancellation
  // stopped the scan mid-partition, and `matches` and `stats` are empty.
  ScanCounters counters;
  // Sub-stage wall time, filled only when the scan was timed.
  double probe_ms = 0.0, decode_ms = 0.0, filter_ms = 0.0;
};

// Knobs for Replica::Execute. Results are byte-identical across every
// combination — these trade time for resources, never answers — except
// `cancel`/`exclude_partitions`, which trade *coverage* for time and
// report exactly what was given up (QueryResult::truncated).
struct ScanOptions {
  // Partitions scan concurrently when non-null.
  ThreadPool* pool = nullptr;
  // Filled with scan sub-stages and counters when non-null.
  obs::QueryProfile* profile = nullptr;
  // Cooperative cancellation, polled before each partition scan and at
  // every block boundary inside it (so a parallel scan stops within one
  // block per worker). A partition whose scan was interrupted counts
  // wholly as missed: its partial matches are discarded so the coverage
  // report stays exact.
  const CancelToken* cancel = nullptr;
  // Involved partitions to skip (sorted ascending); each is reported in
  // missed_partitions. The degraded-serving path uses this to scan
  // around quarantined partitions instead of failing the query.
  const std::vector<std::size_t>* exclude_partitions = nullptr;
};

class Replica {
 public:
  // Builds the physical replica. Every record of `dataset` must lie in
  // `universe`. When `pool` is non-null, partitions are encoded in
  // parallel.
  static Replica Build(const Dataset& dataset, const ReplicaConfig& config,
                       const STRange& universe, ThreadPool* pool = nullptr);

  // Copies get a fresh cache identity: the copy's partitions may be
  // mutated independently, so sharing cache keys could serve one copy's
  // decoded records for the other's bytes. Moves keep the identity (the
  // stored bytes travel with it).
  Replica(const Replica& other);
  Replica& operator=(const Replica& other);
  Replica(Replica&&) noexcept = default;
  Replica& operator=(Replica&&) noexcept = default;

  // The routing sketch, exact after Build, FromParts and
  // RestorePartition. The accessors below read it.
  const ReplicaSketch& sketch() const { return sketch_; }
  const ReplicaConfig& config() const { return sketch_.config; }
  const PartitionIndex& index() const { return sketch_.index; }
  const STRange& universe() const { return sketch_.universe; }

  std::size_t NumPartitions() const { return partitions_.size(); }
  std::uint64_t NumRecords() const { return sketch_.total_records; }

  // Total encoded bytes across partitions: Storage(r) of Definition 5.
  std::uint64_t StorageBytes() const { return sketch_.storage_bytes; }

  // Answers a range query: scans involved partitions and filters records
  // by `query` (Section II-D). Partitions are scanned in parallel when
  // `pool` is non-null, each through ScanPartition (the decoded-partition
  // cache when it is enabled, the fused decode-filter kernel otherwise).
  //
  // Per-partition read faults (CorruptData, ReadError — real or injected)
  // are collected across all involved partitions and rethrown as one
  // PartitionFaultError naming every failing partition, so a caller can
  // quarantine precisely and fail over. Other exceptions propagate as-is.
  //
  // When `profile` is non-null the scan fills in its sub-stages
  // (cache_probe / decode / filter wall time and bytes), partition and
  // cache counters. On the cache path a hit's lookup time lands in
  // cache_probe and a miss's decode+insert in decode; the fused
  // no-cache kernel decodes and filters in one pass, accounted as
  // decode. Under a pool the sub-stages sum CPU time across workers
  // (profile->parallel_scan is set).
  // Before any of that, partitions whose stored zone (see StoredPartition)
  // does not intersect `query` are skipped outright — never read, decoded
  // or fault-injected — and on the fused path the per-block zone maps
  // prune non-intersecting blocks of the rest. The layout's one block
  // decoder (blot/layout.h) decodes what is left.
  QueryResult Execute(const STRange& query, const ScanOptions& options) const;

  // Convenience overload: default ScanOptions with the given pool/profile.
  QueryResult Execute(const STRange& query, ThreadPool* pool = nullptr,
                      obs::QueryProfile* profile = nullptr) const;

  // Decodes one partition, verifying its checksum on first read (later
  // reads skip the hash; MutablePartition re-arms it); throws
  // CorruptData on integrity failure and ReadError on (injected) read
  // failure. When the global FaultInjector is armed it is consulted
  // before verification; injected corruption mutates a copy of the
  // encoded bytes and runs the ordinary checksum check against it.
  std::vector<Record> DecodePartitionRecords(std::size_t partition) const;

  // The records of `partition` inside `query`, in stored order: the one
  // per-partition read of every range query (Execute and ExecuteBatch).
  // With the global PartitionCache enabled it probes the cache and, on a
  // miss, decodes the whole partition, inserts it and filters; otherwise
  // it runs the fused decode-filter kernel (layout.h), which prunes
  // blocks by their zone maps when `prune_blocks` and never materializes
  // non-matching records. `timed` fills the sub-stage times and block
  // timings. `cancel` is polled at every block boundary of the fused
  // kernel. Throws CorruptData / ReadError like DecodePartitionRecords.
  PartitionScan ScanPartition(std::size_t partition, const STRange& query,
                              bool prune_blocks, bool timed = false,
                              const CancelToken* cancel = nullptr) const;

  // True when `partition`'s stored zone proves it holds no record of
  // `query`: the partition-level skip every scan applies after the index
  // (when zone-map pruning is on).
  bool ZoneExcludes(std::size_t partition, const STRange& query) const {
    const StoredPartition& stored = partitions_[partition];
    return stored.has_zone && !query.Intersects(stored.zone);
  }

  const StoredPartition& partition(std::size_t i) const {
    return partitions_[i];
  }

  // Mutable partition access for failure-injection tests and recovery
  // tooling; production query paths never mutate partitions. Re-arms the
  // partition's checksum verification and invalidates its entry in the
  // global PartitionCache, so corruption introduced through the returned
  // reference is detected (never served stale) on the next read.
  StoredPartition& MutablePartition(std::size_t i);

  // Process-unique, never-reused identity for PartitionCache keys.
  std::uint64_t cache_id() const { return cache_id_; }

  // Partition-granular self-healing: replaces partition `partition`'s
  // stored bytes by re-encoding `records` under the partition's own
  // codec (a per-partition plan survives repair). The replica takes a
  // fresh cache identity and the old one is invalidated, so a decode
  // cached before the repair can never satisfy a query after it.
  void RestorePartition(std::size_t partition,
                        const std::vector<Record>& records);

  // The shared logical view: every stored record, in partition order.
  // Any other replica can be rebuilt from this (replica recovery).
  Dataset Reconstruct() const;

  // Reassembles a replica from previously persisted parts (see
  // SegmentStore). `ranges` and `partitions` must be index-aligned;
  // counts and checksums are trusted here and re-verified on every read.
  static Replica FromParts(const ReplicaConfig& config,
                           const STRange& universe,
                           std::vector<STRange> ranges,
                           std::vector<StoredPartition> partitions);

 private:
  Replica() = default;

  // The per-partition encoding scheme (layout is replica-wide; the codec
  // may vary under kBestCodecPerPartition).
  EncodingScheme PartitionScheme(const StoredPartition& stored) const {
    return {sketch_.config.encoding.layout, stored.codec};
  }
  // Recomputes the sketch's counts, record total and storage bytes from
  // the stored partitions.
  void Resketch();
  // Checksum verification with a sticky verified bit: the FNV-1a pass
  // over the encoded bytes runs on the first read of each partition and
  // is skipped afterwards. MutablePartition clears the bit.
  void VerifyPartition(std::size_t partition) const;
  // Consults the global FaultInjector for this read (no-op when it is
  // disarmed): may throw ReadError, sleep (latency spike), or verify a
  // deterministically corrupted copy of the encoded bytes, surfacing the
  // fault as the same CorruptData a real media error would produce.
  void MaybeInjectFault(std::size_t partition) const;
  void InitCacheState(std::size_t num_partitions);

  ReplicaSketch sketch_;
  std::vector<StoredPartition> partitions_;
  std::uint64_t cache_id_ = 0;
  // Shared (not unique) so Replica stays copyable; copies sharing
  // verified bits is benign — the bits only ever skip a re-hash of bytes
  // that were already verified.
  std::shared_ptr<std::atomic<std::uint8_t>[]> verified_;
};

// Rebuilds a replica with `target_config` from the logical view of
// `source` — the diverse-replica recovery path of Section II-E: "diverse
// replicas can recover each other when failures occur because they share
// the same logical view of the data."
Replica RecoverReplica(const Replica& source, const ReplicaConfig& target_config,
                       ThreadPool* pool = nullptr);

}  // namespace blot

#endif  // BLOT_BLOT_REPLICA_H_
