#include "simenv/replica_sketch.h"

#include <cmath>

#include "util/error.h"

namespace blot {

ReplicaSketch SketchFromSample(const Dataset& sample,
                               const ReplicaConfig& config,
                               const STRange& universe,
                               std::uint64_t total_records,
                               double compression_ratio) {
  require(!sample.empty(), "SketchFromSample: empty sample");
  require(compression_ratio > 0,
          "SketchFromSample: non-positive compression ratio");
  PartitionedData partitioned =
      PartitionDataset(sample, config.partitioning, universe);
  ReplicaSketch sketch;
  sketch.config = config;
  sketch.universe = universe;
  const double scale =
      static_cast<double>(total_records) / static_cast<double>(sample.size());
  sketch.counts.reserve(partitioned.members.size());
  for (const auto& members : partitioned.members)
    sketch.counts.push_back(static_cast<std::uint64_t>(
        std::llround(static_cast<double>(members.size()) * scale)));
  sketch.index = PartitionIndex(std::move(partitioned.ranges));
  sketch.total_records = total_records;
  sketch.storage_bytes = static_cast<std::uint64_t>(
      std::llround(static_cast<double>(total_records) * kRecordRowBytes *
                   compression_ratio));
  return sketch;
}

}  // namespace blot
