// Aggregate range queries over a replica.
//
// The paper motivates BLOT systems with analytical workloads ("simple
// statistics for each grid cell", Section III-C1). This module folds the
// common statistics over the matches of Replica::Execute, so an aggregate
// reads its partitions exactly as a range query does (zone-map skip,
// block-range decode, partition cache, fault reporting).
#ifndef BLOT_BLOT_AGGREGATE_H_
#define BLOT_BLOT_AGGREGATE_H_

#include <cstdint>
#include <limits>

#include "blot/replica.h"

namespace blot {

// Statistics of the records inside a range.
struct RangeStatistics {
  std::uint64_t count = 0;
  std::uint64_t occupied = 0;        // records with status == 1
  std::uint64_t distinct_objects = 0;
  double speed_sum = 0.0;
  double fare_cents_sum = 0.0;       // over occupied records
  std::int64_t first_time = std::numeric_limits<std::int64_t>::max();
  std::int64_t last_time = std::numeric_limits<std::int64_t>::min();

  double MeanSpeed() const {
    return count == 0 ? 0.0 : speed_sum / static_cast<double>(count);
  }
  double OccupancyRate() const {
    return count == 0 ? 0.0
                      : static_cast<double>(occupied) /
                            static_cast<double>(count);
  }

  // Execution accounting, as in QueryResult.
  QueryStats stats;
};

// Computes RangeStatistics for `query` on `replica`: runs
// `replica.Execute(query, pool)` and folds its matches; `stats` is that
// query's accounting. Throws PartitionFaultError as Execute does.
RangeStatistics AggregateRange(const Replica& replica, const STRange& query,
                               ThreadPool* pool = nullptr);

}  // namespace blot

#endif  // BLOT_BLOT_AGGREGATE_H_
