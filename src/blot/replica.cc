#include "blot/replica.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <thread>
#include <utility>

#include <cmath>

#include "blot/layout.h"
#include "core/fault_injection.h"
#include "core/partition_cache.h"
#include "obs/metrics.h"
#include "util/error.h"

namespace blot {
namespace {

// Encodes one partition's records under `scheme`, or under the smallest
// codec over its layout when `best_codec` — the shared physical-encode
// step of Build and RestorePartition.
StoredPartition EncodeStoredPartition(const std::vector<Record>& records,
                                      const EncodingScheme& scheme,
                                      bool best_codec) {
  StoredPartition stored;
  stored.num_records = records.size();
  if (const auto zone = ComputePartitionZone(records)) {
    stored.has_zone = true;
    stored.zone = *zone;
  }
  if (best_codec) {
    // Try every codec over the replica's layout and keep the smallest.
    const Bytes serialized = SerializeRecords(records, scheme.layout);
    stored.codec = CodecKind::kNone;
    stored.data = GetCodec(CodecKind::kNone).Compress(serialized);
    for (const CodecKind kind : AllCodecKinds()) {
      if (kind == CodecKind::kNone) continue;
      Bytes candidate = GetCodec(kind).Compress(serialized);
      if (candidate.size() < stored.data.size()) {
        stored.data = std::move(candidate);
        stored.codec = kind;
      }
    }
  } else {
    stored.codec = scheme.codec;
    stored.data = EncodePartition(records, scheme);
  }
  stored.checksum = Fnv1a64(stored.data);
  return stored;
}

}  // namespace

std::optional<STRange> ComputePartitionZone(std::span<const Record> records) {
  if (records.empty()) return std::nullopt;
  double x_min = records[0].x, x_max = records[0].x;
  double y_min = records[0].y, y_max = records[0].y;
  std::int64_t t_min = records[0].time, t_max = records[0].time;
  for (const Record& r : records) {
    if (std::isnan(r.x) || std::isnan(r.y)) return std::nullopt;
    x_min = std::min(x_min, r.x);
    x_max = std::max(x_max, r.x);
    y_min = std::min(y_min, r.y);
    y_max = std::max(y_max, r.y);
    t_min = std::min(t_min, r.time);
    t_max = std::max(t_max, r.time);
  }
  return STRange::FromBounds(x_min, x_max, y_min, y_max,
                             static_cast<double>(t_min),
                             static_cast<double>(t_max));
}

void Replica::InitCacheState(std::size_t num_partitions) {
  cache_id_ = PartitionCache::NextReplicaId();
  verified_ = std::shared_ptr<std::atomic<std::uint8_t>[]>(
      new std::atomic<std::uint8_t>[num_partitions]());
}

void Replica::Resketch() {
  sketch_.counts.resize(partitions_.size());
  sketch_.total_records = 0;
  sketch_.storage_bytes = 0;
  for (std::size_t p = 0; p < partitions_.size(); ++p) {
    sketch_.counts[p] = partitions_[p].num_records;
    sketch_.total_records += partitions_[p].num_records;
    sketch_.storage_bytes += partitions_[p].data.size();
  }
}

Replica::Replica(const Replica& other)
    : sketch_(other.sketch_), partitions_(other.partitions_) {
  // Fresh identity and fresh (unverified) bits; see header.
  InitCacheState(partitions_.size());
}

Replica& Replica::operator=(const Replica& other) {
  if (this == &other) return *this;
  sketch_ = other.sketch_;
  partitions_ = other.partitions_;
  InitCacheState(partitions_.size());
  return *this;
}

Replica Replica::Build(const Dataset& dataset, const ReplicaConfig& config,
                       const STRange& universe, ThreadPool* pool) {
  Replica replica;
  replica.sketch_.config = config;
  replica.sketch_.universe = universe;

  PartitionedData partitioned =
      PartitionDataset(dataset, config.partitioning, universe);
  replica.sketch_.index = PartitionIndex(std::move(partitioned.ranges));
  replica.partitions_.resize(partitioned.members.size());
  replica.InitCacheState(replica.partitions_.size());

  const auto encode_one = [&](std::size_t i) {
    const auto& members = partitioned.members[i];
    std::vector<Record> records;
    records.reserve(members.size());
    for (std::uint32_t index : members)
      records.push_back(dataset.records()[index]);
    replica.partitions_[i] = EncodeStoredPartition(
        records, config.encoding,
        config.policy == EncodingPolicy::kBestCodecPerPartition);
  };
  if (pool != nullptr) {
    pool->ParallelFor(replica.partitions_.size(), encode_one);
  } else {
    for (std::size_t i = 0; i < replica.partitions_.size(); ++i)
      encode_one(i);
  }
  replica.Resketch();
  return replica;
}

void Replica::VerifyPartition(std::size_t partition) const {
  std::atomic<std::uint8_t>& verified = verified_[partition];
  if (verified.load(std::memory_order_acquire) != 0) return;
  const StoredPartition& stored = partitions_[partition];
  validate(Fnv1a64(stored.data) == stored.checksum,
           "Replica: partition checksum mismatch (corrupt storage unit)");
  verified.store(1, std::memory_order_release);
}

void Replica::MaybeInjectFault(std::size_t partition) const {
  FaultInjector& injector = FaultInjector::Global();
  if (!injector.enabled()) return;
  const StoredPartition& stored = partitions_[partition];
  const FaultDecision decision =
      injector.OnPartitionRead(config().Name(), partition, stored.data.size());
  if (!decision.fire) return;
  switch (decision.kind) {
    case FaultKind::kReadError:
      throw ReadError("Replica: injected read error on partition " +
                      std::to_string(partition) + " of " + config().Name());
    case FaultKind::kLatency:
      std::this_thread::sleep_for(std::chrono::milliseconds(decision.param));
      return;
    case FaultKind::kBitFlip:
    case FaultKind::kTruncate:
    case FaultKind::kTornRead: {
      // Corrupt a copy of the read and push it through the real checksum
      // check, so the injected fault exercises exactly the detection path
      // a failing medium would.
      Bytes corrupted = stored.data;
      FaultInjector::ApplyMutation(corrupted, decision.kind, decision.param);
      validate(Fnv1a64(corrupted) == stored.checksum,
               "Replica: partition checksum mismatch (corrupt storage unit)");
      return;
    }
  }
}

std::vector<Record> Replica::DecodePartitionRecords(
    std::size_t partition) const {
  require(partition < partitions_.size(),
          "Replica::DecodePartitionRecords: bad partition");
  MaybeInjectFault(partition);
  VerifyPartition(partition);
  const StoredPartition& stored = partitions_[partition];
  std::vector<Record> records =
      DecodePartition(stored.data, PartitionScheme(stored));
  validate(records.size() == stored.num_records,
           "Replica: decoded record count mismatch");
  return records;
}

PartitionScan Replica::ScanPartition(std::size_t partition,
                                     const STRange& query, bool prune_blocks,
                                     bool timed,
                                     const CancelToken* cancel) const {
  require(partition < partitions_.size(),
          "Replica::ScanPartition: bad partition");
  const StoredPartition& stored = partitions_[partition];
  PartitionScan scan;
  scan.counters.timed = timed;
  PartitionCache& cache = PartitionCache::Global();
  if (!cache.enabled()) {
    // The fused kernel: one pass decodes and filters, accounted as decode.
    const std::uint64_t t0 = timed ? obs::MonotonicNanos() : 0;
    MaybeInjectFault(partition);
    VerifyPartition(partition);
    std::uint64_t total_records = 0;
    scan.matches = DecodePartitionInRange(
        stored.data, PartitionScheme(stored), query, &total_records,
        prune_blocks, &scan.counters, cancel);
    if (timed) scan.decode_ms = double(obs::MonotonicNanos() - t0) * 1e-6;
    if (scan.counters.interrupted) {
      // Partition-granular coverage: the prefix scanned before the
      // cancellation is discarded (and its short count is not corrupt).
      scan.matches.clear();
      return scan;
    }
    validate(total_records == stored.num_records,
             "Replica: decoded record count mismatch");
    scan.stats.records_scanned = stored.num_records;
    scan.stats.bytes_read = stored.data.size();
    return scan;
  }
  const std::uint64_t t0 = timed ? obs::MonotonicNanos() : 0;
  PartitionCache::RecordsPtr records = cache.Lookup(cache_id_, partition);
  const bool hit = records != nullptr;
  if (!hit)
    records = cache.Insert(cache_id_, partition,
                           DecodePartitionRecords(partition));
  const std::uint64_t t1 = timed ? obs::MonotonicNanos() : 0;
  scan.stats.records_scanned = records->size();
  scan.stats.bytes_read = hit ? 0 : stored.data.size();
  scan.stats.cache_hits = hit ? 1 : 0;
  scan.stats.cache_misses = hit ? 0 : 1;
  for (const Record& r : *records)
    if (query.Contains(r.Position())) scan.matches.push_back(r);
  if (timed) {
    // A hit's latency is the probe itself; a miss's is dominated by the
    // decode (+ cache insert) behind the probe.
    (hit ? scan.probe_ms : scan.decode_ms) = double(t1 - t0) * 1e-6;
    scan.filter_ms = double(obs::MonotonicNanos() - t1) * 1e-6;
  }
  return scan;
}

void PartitionFaultError::ThrowIfAny(
    const ReplicaConfig& replica, const std::vector<std::size_t>& partitions,
    const std::vector<std::string>& messages) {
  std::vector<std::size_t> faulty;
  std::string detail;
  for (std::size_t k = 0; k < partitions.size(); ++k) {
    if (messages[k].empty()) continue;
    faulty.push_back(partitions[k]);
    detail += " [p" + std::to_string(partitions[k]) + ": " + messages[k] + "]";
  }
  if (faulty.empty()) return;
  const std::string name = replica.Name();
  throw PartitionFaultError("Replica " + name + ": read faults on " +
                                std::to_string(faulty.size()) +
                                " partition(s):" + detail,
                            name, std::move(faulty));
}

StoredPartition& Replica::MutablePartition(std::size_t i) {
  require(i < partitions_.size(), "Replica::MutablePartition: bad partition");
  verified_[i].store(0, std::memory_order_release);
  PartitionCache::Global().Invalidate(cache_id_, i);
  return partitions_[i];
}

QueryResult Replica::Execute(const STRange& query, ThreadPool* pool,
                             obs::QueryProfile* profile) const {
  ScanOptions options;
  options.pool = pool;
  options.profile = profile;
  return Execute(query, options);
}

QueryResult Replica::Execute(const STRange& query,
                             const ScanOptions& options) const {
  ThreadPool* pool = options.pool;
  obs::QueryProfile* profile = options.profile;
  const bool prune = ZoneMapPruningEnabled();
  // Partition-level zone skip: the stored zone is the exact bounding
  // cuboid over the partition's records, tighter than the partitioning
  // cell the index tested, so a partition can survive the index and
  // still be provably empty for this query.
  std::vector<std::size_t> involved;
  std::size_t zone_pruned = 0;
  sketch_.index.ForEachInvolved(query, [&](std::size_t p) {
    if (prune && ZoneExcludes(p, query)) {
      ++zone_pruned;
      return;
    }
    involved.push_back(p);
  });
  // Excluded partitions (degraded serving around quarantined units) are
  // removed from the scan up front and reported missed.
  std::vector<std::size_t> excluded;
  if (options.exclude_partitions != nullptr &&
      !options.exclude_partitions->empty()) {
    std::vector<std::size_t> kept;
    kept.reserve(involved.size());
    for (const std::size_t p : involved) {
      if (std::binary_search(options.exclude_partitions->begin(),
                             options.exclude_partitions->end(), p)) {
        excluded.push_back(p);
      } else {
        kept.push_back(p);
      }
    }
    involved.swap(kept);
  }
  QueryResult result;

  const CancelToken* cancel = options.cancel;
  const bool profiling = profile != nullptr;
  std::vector<PartitionScan> scans(involved.size());
  // One flag per involved partition: set when the scan never ran (cancel
  // fired before it) or was interrupted mid-partition. Either way the
  // partition counts wholly as missed.
  std::vector<std::uint8_t> skipped(involved.size(), 0);
  // Per-partition read faults land in `fault_messages` (empty string =
  // healthy) rather than aborting the scan, so one bad storage unit does
  // not hide the health of the rest and the store learns every failing
  // partition in a single pass.
  std::vector<std::string> fault_messages(involved.size());
  const auto scan_one = [&](std::size_t k) {
    if (cancel != nullptr && cancel->ShouldStop()) {
      skipped[k] = 1;
      return;
    }
    try {
      scans[k] = ScanPartition(involved[k], query, prune, profiling, cancel);
      if (scans[k].counters.interrupted) skipped[k] = 1;
    } catch (const CorruptData& e) {
      fault_messages[k] = e.what();
    } catch (const ReadError& e) {
      fault_messages[k] = e.what();
    }
  };
  // Each scan writes only its own k-indexed slots, so the merge below
  // is deterministic regardless of scheduling.
  const bool parallel = pool != nullptr && involved.size() > 1;
  if (parallel) {
    pool->ParallelFor(involved.size(), scan_one);
  } else {
    for (std::size_t k = 0; k < involved.size(); ++k) scan_one(k);
  }

  PartitionFaultError::ThrowIfAny(config(), involved, fault_messages);

  // Coverage report: exact served/missed partition sets whenever the
  // scan was not complete (cancellation or exclusion).
  std::size_t served_count = 0;
  for (std::size_t k = 0; k < involved.size(); ++k)
    if (skipped[k] == 0) ++served_count;
  result.stats.partitions_scanned = served_count;
  if (served_count < involved.size() || !excluded.empty()) {
    result.truncated = true;
    result.served_partitions.reserve(served_count);
    result.missed_partitions.reserve(involved.size() - served_count +
                                     excluded.size());
    for (std::size_t k = 0; k < involved.size(); ++k) {
      if (skipped[k] == 0)
        result.served_partitions.push_back(involved[k]);
      else
        result.missed_partitions.push_back(involved[k]);
    }
    result.missed_partitions.insert(result.missed_partitions.end(),
                                    excluded.begin(), excluded.end());
    std::sort(result.missed_partitions.begin(),
              result.missed_partitions.end());
  }

  for (std::size_t k = 0; k < involved.size(); ++k) {
    if (skipped[k] != 0) continue;
    const PartitionScan& scan = scans[k];
    result.stats.records_scanned += scan.stats.records_scanned;
    result.stats.bytes_read += scan.stats.bytes_read;
    result.stats.cache_hits += scan.stats.cache_hits;
    result.stats.cache_misses += scan.stats.cache_misses;
    result.records.insert(result.records.end(), scan.matches.begin(),
                          scan.matches.end());
    if (profiling) {
      const std::uint64_t encoded = partitions_[involved[k]].data.size();
      const std::uint64_t hit_bytes = scan.stats.cache_hits != 0 ? encoded : 0;
      profile->AddStage(obs::Stage::kCacheProbe, scan.probe_ms, hit_bytes);
      profile->AddStage(obs::Stage::kDecode, scan.decode_ms,
                        scan.stats.bytes_read);
      profile->AddStage(obs::Stage::kFilter, scan.filter_ms);
      profile->AddStage(obs::Stage::kZoneMapPrune,
                        double(scan.counters.prune_ns) * 1e-6);
      profile->AddStage(obs::Stage::kBlockDecode,
                        double(scan.counters.decode_ns) * 1e-6);
      profile->cache_hit_bytes += hit_bytes;
      profile->cache_miss_bytes += scan.stats.bytes_read;
    }
  }
  std::uint64_t blocks_scanned = 0, blocks_pruned = 0;
  for (const PartitionScan& scan : scans) {
    blocks_scanned += scan.counters.blocks_total - scan.counters.blocks_pruned;
    blocks_pruned += scan.counters.blocks_pruned;
  }
  if (profiling) {
    profile->partitions_touched += served_count;
    // Index-pruned only: zone-pruned and excluded partitions were
    // involved by the index and are counted on their own.
    profile->partitions_skipped += partitions_.size() - involved.size() -
                                   excluded.size() - zone_pruned;
    profile->partitions_zone_pruned += zone_pruned;
    profile->blocks_scanned += blocks_scanned;
    profile->blocks_pruned += blocks_pruned;
    profile->records_scanned += result.stats.records_scanned;
    profile->cache_hits += result.stats.cache_hits;
    profile->cache_misses += result.stats.cache_misses;
    if (parallel) profile->parallel_scan = true;
  }
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  if (registry.enabled()) {
    static obs::Counter* blocks_scanned_total =
        &registry.GetCounter("scan.blocks_scanned_total");
    static obs::Counter* blocks_pruned_total =
        &registry.GetCounter("scan.blocks_pruned_total");
    static obs::Counter* zone_pruned_total =
        &registry.GetCounter("scan.partitions_zone_pruned_total");
    blocks_scanned_total->Increment(blocks_scanned);
    blocks_pruned_total->Increment(blocks_pruned);
    zone_pruned_total->Increment(zone_pruned);
  }
  return result;
}

void Replica::RestorePartition(std::size_t partition,
                               const std::vector<Record>& records) {
  require(partition < partitions_.size(),
          "Replica::RestorePartition: bad partition");
  StoredPartition& stored = partitions_[partition];
  stored = EncodeStoredPartition(records, PartitionScheme(stored),
                                 /*best_codec=*/false);
  Resketch();
  // Decodes cached under the pre-repair identity must never satisfy a
  // post-repair query: drop them and take a fresh process-unique id.
  const std::uint64_t old_id = cache_id_;
  PartitionCache::Global().InvalidateReplica(old_id, partitions_.size());
  InitCacheState(partitions_.size());
  ensure(cache_id_ != old_id,
         "Replica::RestorePartition: cache identity was not refreshed");
}

Dataset Replica::Reconstruct() const {
  Dataset dataset;
  for (std::size_t p = 0; p < partitions_.size(); ++p) {
    for (const Record& r : DecodePartitionRecords(p)) dataset.Append(r);
  }
  return dataset;
}

Replica Replica::FromParts(const ReplicaConfig& config,
                           const STRange& universe,
                           std::vector<STRange> ranges,
                           std::vector<StoredPartition> partitions) {
  require(ranges.size() == partitions.size(),
          "Replica::FromParts: range/partition count mismatch");
  require(ranges.size() == config.partitioning.TotalPartitions(),
          "Replica::FromParts: partition count does not match config");
  Replica replica;
  replica.sketch_.config = config;
  replica.sketch_.universe = universe;
  replica.sketch_.index = PartitionIndex(std::move(ranges));
  replica.partitions_ = std::move(partitions);
  replica.InitCacheState(replica.partitions_.size());
  replica.Resketch();
  return replica;
}

Replica RecoverReplica(const Replica& source,
                       const ReplicaConfig& target_config, ThreadPool* pool) {
  return Replica::Build(source.Reconstruct(), target_config,
                        source.universe(), pool);
}

}  // namespace blot
