// Process-wide decoded-partition cache for the query hot path.
//
// Every range query pays the same dominant cost per involved partition:
// checksum + decompress + deserialize (Cost(q, p) = |D(p)|/ScanRate +
// ExtraTime, Eq. 6). Skewed workloads — the hotspot pattern of
// examples/hotspot_replication.cpp, or any zipfian query mix — hit the
// same partitions over and over, so caching the *decoded* record vectors
// converts repeat scans into in-memory filters.
//
// Design:
//   - Keyed by (replica cache id, partition index). Replica ids are
//     process-unique and never reused, so a stale entry can never be
//     served to a different replica.
//   - Entries are shared_ptr<const vector<Record>>: an in-flight scan
//     that obtained an entry keeps it alive (pinned) even if the cache
//     evicts it concurrently — eviction only drops the cache's
//     reference.
//   - Sharded: keys hash to one of `num_shards` independent
//     mutex-protected LRU maps, so concurrent scans from a ThreadPool
//     rarely contend on the same lock.
//   - Byte-budgeted: the configured budget is split evenly across
//     shards; inserting past a shard's share evicts that shard's
//     least-recently-used entries. An entry larger than a whole shard's
//     share is not cached at all.
//   - Disabled by default (budget 0): the hot path performs exactly the
//     uncached scan, and lookup/insert are never called.
//
// Observability: hits/misses/insertions/evictions/invalidations mirror
// into the global metrics registry as cache.* counters, and cache.bytes /
// cache.entries gauges track occupancy (docs/observability.md). When the
// event log is enabled, a structured `cache.pressure` warning fires each
// time cumulative evicted bytes churn through a full cache capacity —
// the signal that the working set no longer fits.
//
// The cache holds whole decoded partitions, probed per partition by
// Replica::ScanPartition, the one read of both Replica::Execute and
// blot::ExecuteBatch. A hit bypasses the fused scan's block zone maps:
// filtering a resident decoded partition is cheaper than decompressing
// even its surviving blocks. A prototype that cached decompressed bytes
// under the fused scan instead measured slower on the hotspot workload
// (docs/performance.md, "Decoded-partition cache").
//
// This header lives in src/core next to the routing/store layer that
// configures it, but the code is compiled into blot_storage because the
// scan path in Replica consumes it.
#ifndef BLOT_CORE_PARTITION_CACHE_H_
#define BLOT_CORE_PARTITION_CACHE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "blot/record.h"

namespace blot {

class PartitionCache {
 public:
  using RecordsPtr = std::shared_ptr<const std::vector<Record>>;

  // Point-in-time view of the cache's counters.
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;
    std::uint64_t invalidations = 0;
    std::uint64_t bytes = 0;    // decoded bytes currently resident
    std::uint64_t entries = 0;  // partitions currently resident

    double HitRatio() const {
      const std::uint64_t lookups = hits + misses;
      return lookups == 0 ? 0.0
                          : static_cast<double>(hits) /
                                static_cast<double>(lookups);
    }
  };

  // A budget of 0 constructs a disabled cache.
  explicit PartitionCache(std::uint64_t max_bytes,
                          std::size_t num_shards = kDefaultShards);

  PartitionCache(const PartitionCache&) = delete;
  PartitionCache& operator=(const PartitionCache&) = delete;

  // The process-wide cache consulted by Replica::ScanPartition.
  // Disabled (budget 0) at startup; blotctl's --cache-mb and the
  // examples configure it.
  static PartitionCache& Global();

  // Allocates a fresh, never-reused replica identity. Called by
  // Replica::Build / Replica::FromParts.
  static std::uint64_t NextReplicaId();

  // Changes the byte budget, evicting (or clearing, for 0) as needed.
  void Configure(std::uint64_t max_bytes);

  bool enabled() const {
    return max_bytes_.load(std::memory_order_relaxed) > 0;
  }
  std::uint64_t max_bytes() const {
    return max_bytes_.load(std::memory_order_relaxed);
  }
  std::size_t num_shards() const { return shards_.size(); }

  // Returns the pinned entry and refreshes its recency, or nullptr on
  // miss (or when disabled).
  RecordsPtr Lookup(std::uint64_t replica_id, std::size_t partition);

  // Caches `records` and returns the pinned entry. When the key is
  // already resident (two threads decoded the same partition
  // concurrently), the existing entry wins and is returned instead.
  // When disabled — or the entry alone overflows a shard's share of the
  // budget — the records are still returned (wrapped), just not
  // retained.
  RecordsPtr Insert(std::uint64_t replica_id, std::size_t partition,
                    std::vector<Record> records);

  // Drops one partition's entry (no-op when absent). Called when a
  // partition's bytes are handed out for mutation (Replica::
  // MutablePartition) so a later decode cannot serve stale records.
  void Invalidate(std::uint64_t replica_id, std::size_t partition);

  // Drops every entry of one replica with partition index below
  // `num_partitions` (recovery: the replica's storage is rebuilt).
  void InvalidateReplica(std::uint64_t replica_id,
                         std::size_t num_partitions);

  // Drops everything; counters other than bytes/entries are preserved.
  void Clear();

  // Zeroes all counters (occupancy gauges are recomputed, not reset).
  void ResetStats();

  Stats stats() const;

  // Budget accounting for one decoded partition: vector payload plus a
  // fixed per-entry overhead estimate for the map/list nodes.
  static std::uint64_t EntryBytes(const std::vector<Record>& records) {
    return records.size() * sizeof(Record) + kPerEntryOverheadBytes;
  }

  static constexpr std::size_t kDefaultShards = 16;
  static constexpr std::uint64_t kPerEntryOverheadBytes = 128;

 private:
  struct Key {
    std::uint64_t replica_id = 0;
    std::uint64_t partition = 0;
    friend bool operator==(const Key&, const Key&) = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      // splitmix64-style mix of the two words.
      std::uint64_t h = k.replica_id * 0x9E3779B97F4A7C15ull ^ k.partition;
      h ^= h >> 30;
      h *= 0xBF58476D1CE4E5B9ull;
      h ^= h >> 27;
      h *= 0x94D049BB133111EBull;
      h ^= h >> 31;
      return static_cast<std::size_t>(h);
    }
  };
  struct Entry {
    RecordsPtr records;
    std::uint64_t bytes = 0;
    std::list<Key>::iterator lru_it;  // position in Shard::lru
  };
  struct Shard {
    std::mutex mutex;
    std::unordered_map<Key, Entry, KeyHash> entries;
    std::list<Key> lru;  // front = most recently used
    std::uint64_t bytes = 0;
  };

  Shard& ShardFor(const Key& key) {
    return shards_[KeyHash{}(key) % shards_.size()];
  }
  std::uint64_t ShardBudget() const {
    return max_bytes_.load(std::memory_order_relaxed) / shards_.size();
  }
  // Evicts `shard` (which must be locked) down to `budget` bytes.
  void EvictLocked(Shard& shard, std::uint64_t budget);
  void RemoveLocked(Shard& shard,
                    std::unordered_map<Key, Entry, KeyHash>::iterator it);
  void PublishOccupancy() const;

  std::atomic<std::uint64_t> max_bytes_;
  std::vector<Shard> shards_;

  mutable std::atomic<std::uint64_t> hits_{0};
  mutable std::atomic<std::uint64_t> misses_{0};
  mutable std::atomic<std::uint64_t> insertions_{0};
  mutable std::atomic<std::uint64_t> evictions_{0};
  mutable std::atomic<std::uint64_t> invalidations_{0};
  mutable std::atomic<std::uint64_t> bytes_{0};
  mutable std::atomic<std::uint64_t> entries_{0};
  // Eviction-pressure tracking: cumulative decoded bytes evicted, and
  // the number of full-capacity turnovers already reported as a
  // cache.pressure event (one event per turnover, not per eviction).
  mutable std::atomic<std::uint64_t> evicted_bytes_{0};
  mutable std::atomic<std::uint64_t> pressure_epoch_{0};
};

}  // namespace blot

#endif  // BLOT_CORE_PARTITION_CACHE_H_
