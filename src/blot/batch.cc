#include "blot/batch.h"

#include <algorithm>
#include <limits>
#include <string>
#include <utility>

#include "blot/layout.h"


namespace blot {

BatchResult ExecuteBatch(const Replica& replica,
                         std::span<const STRange> queries,
                         ThreadPool* pool) {
  BatchResult result;
  result.per_query.resize(queries.size());

  // Invert: partition -> queries interested in it, with the partition-
  // level zone skip Execute applies, so each query involves exactly the
  // partitions its own Execute would scan. `slot` maps a partition id to
  // its position in the compact `work` list, so the inversion stays
  // O(total involvement) without an ordered map's node allocations.
  const bool prune = ZoneMapPruningEnabled();
  constexpr std::uint32_t kUnseen = std::numeric_limits<std::uint32_t>::max();
  std::vector<std::uint32_t> slot(replica.NumPartitions(), kUnseen);
  std::vector<std::pair<std::size_t, std::vector<std::size_t>>> work;
  for (std::size_t q = 0; q < queries.size(); ++q) {
    replica.index().ForEachInvolved(queries[q], [&](std::size_t p) {
      if (prune && replica.ZoneExcludes(p, queries[q])) return;
      ++result.naive_partition_scans;
      if (slot[p] == kUnseen) {
        slot[p] = static_cast<std::uint32_t>(work.size());
        work.emplace_back(p, std::vector<std::size_t>());
      }
      work[slot[p]].second.push_back(q);
    });
  }
  // Ascending partition order, so per-query record order matches
  // one-at-a-time execution.
  std::sort(work.begin(), work.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<std::size_t> partitions(work.size());
  for (std::size_t k = 0; k < work.size(); ++k) partitions[k] = work[k].first;

  // One read per partition, over the union of its interested queries,
  // then split per query. Read faults are collected per partition, as in
  // Execute, and reported together.
  std::vector<PartitionScan> scans(partitions.size());
  std::vector<std::string> fault_messages(partitions.size());
  const auto scan_one = [&](std::size_t k) {
    const std::vector<std::size_t>& query_ids = work[k].second;
    STRange range;  // empty: Union's identity
    for (const std::size_t q : query_ids)
      range = STRange::Union(range, queries[q]);
    try {
      scans[k] = replica.ScanPartition(partitions[k], range, prune);
    } catch (const CorruptData& e) {
      fault_messages[k] = e.what();
    } catch (const ReadError& e) {
      fault_messages[k] = e.what();
    }
  };
  if (pool != nullptr) {
    pool->ParallelFor(partitions.size(), scan_one);
  } else {
    for (std::size_t k = 0; k < partitions.size(); ++k) scan_one(k);
  }
  PartitionFaultError::ThrowIfAny(replica.config(), partitions,
                                  fault_messages);

  result.stats.partitions_scanned = partitions.size();
  for (std::size_t k = 0; k < work.size(); ++k) {
    const PartitionScan& scan = scans[k];
    result.stats.records_scanned += scan.stats.records_scanned;
    result.stats.bytes_read += scan.stats.bytes_read;
    result.stats.cache_hits += scan.stats.cache_hits;
    result.stats.cache_misses += scan.stats.cache_misses;
    const std::vector<std::size_t>& query_ids = work[k].second;
    for (const Record& r : scan.matches) {
      const STPoint position = r.Position();
      for (const std::size_t q : query_ids)
        if (queries[q].Contains(position)) result.per_query[q].push_back(r);
    }
  }
  return result;
}

}  // namespace blot
