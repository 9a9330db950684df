#include "core/candidates.h"

#include "simenv/replica_sketch.h"
#include "util/error.h"

namespace blot {

std::vector<ReplicaConfig> EnumerateReplicaConfigs(
    const CandidateSpaceConfig& config) {
  require(!config.spatial_counts.empty() && !config.temporal_counts.empty() &&
              !config.encodings.empty(),
          "EnumerateReplicaConfigs: empty candidate space");
  std::vector<ReplicaConfig> configs;
  configs.reserve(config.spatial_counts.size() *
                  config.temporal_counts.size() * config.encodings.size());
  for (const std::size_t spatial : config.spatial_counts) {
    for (const std::size_t temporal : config.temporal_counts) {
      for (const EncodingScheme& encoding : config.encodings) {
        configs.push_back(
            {{.spatial_partitions = spatial,
              .temporal_partitions = temporal,
              .method = config.method},
             encoding});
      }
    }
  }
  return configs;
}

std::map<std::string, double> MeasureCompressionRatios(
    const Dataset& sample, const std::vector<EncodingScheme>& encodings,
    std::size_t max_sample_records, std::uint64_t seed) {
  require(!sample.empty(), "MeasureCompressionRatios: empty sample");
  Rng rng(seed);
  const Dataset measured = sample.Sample(max_sample_records, rng);
  std::map<std::string, double> ratios;
  for (const EncodingScheme& encoding : encodings)
    ratios[encoding.Name()] =
        MeasureCompressionRatio(measured.records(), encoding);
  return ratios;
}

std::vector<ReplicaSketch> BuildCandidateSketches(
    const Dataset& sample, const STRange& universe,
    const std::vector<ReplicaConfig>& configs, std::uint64_t total_records,
    const std::map<std::string, double>& ratios) {
  std::vector<ReplicaSketch> sketches;
  sketches.reserve(configs.size());
  // Partitionings repeat across encodings; cache by partitioning name.
  std::map<std::string, ReplicaSketch> by_partitioning;
  for (const ReplicaConfig& config : configs) {
    const auto ratio_it = ratios.find(config.encoding.Name());
    require(ratio_it != ratios.end(),
            "BuildCandidateSketches: missing ratio for " +
                config.encoding.Name());
    const std::string key = config.partitioning.Name();
    auto cached = by_partitioning.find(key);
    if (cached == by_partitioning.end()) {
      ReplicaSketch base = SketchFromSample(
          sample, config, universe, total_records, ratio_it->second);
      cached = by_partitioning.emplace(key, std::move(base)).first;
    }
    ReplicaSketch sketch = cached->second;
    sketch.config = config;
    sketch.storage_bytes = static_cast<std::uint64_t>(
        static_cast<double>(total_records) * kRecordRowBytes *
        ratio_it->second);
    sketches.push_back(std::move(sketch));
  }
  return sketches;
}

CandidateMatrixResult BuildSelectionInputGrouped(
    const Dataset& sample, const STRange& universe,
    const std::vector<PartitioningSpec>& partitionings,
    const std::vector<EncodingScheme>& encodings,
    const std::map<std::string, double>& ratios,
    std::uint64_t total_records, const Workload& workload,
    const CostModel& model, double budget_bytes) {
  require(!sample.empty(), "BuildSelectionInputGrouped: empty sample");
  require(!partitionings.empty() && !encodings.empty(),
          "BuildSelectionInputGrouped: empty candidate space");
  const std::size_t n = workload.size();
  const std::size_t num_encodings = encodings.size();
  const std::size_t m = partitionings.size() * num_encodings;
  const double scale = static_cast<double>(total_records) /
                       static_cast<double>(sample.size());

  CandidateMatrixResult result;
  result.input.budget_bytes = budget_bytes;
  result.input.weights.reserve(n);
  for (const WeightedQuery& wq : workload.queries())
    result.input.weights.push_back(wq.weight);
  result.input.cost.assign(n, std::vector<double>(m, 0.0));
  result.input.storage_bytes.resize(m);
  result.configs.reserve(m);

  for (std::size_t p = 0; p < partitionings.size(); ++p) {
    // Geometry pass: one partitioning, all queries.
    PartitionedData partitioned =
        PartitionDataset(sample, partitionings[p], universe);
    std::vector<double> expected_partitions(n, 0.0);
    std::vector<double> expected_records(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      const RangeSize& size = workload.queries()[i].query.size;
      for (std::size_t part = 0; part < partitioned.NumPartitions();
           ++part) {
        const double prob = IntersectionProbability(
            partitioned.ranges[part], size, universe);
        expected_partitions[i] += prob;
        expected_records[i] +=
            prob * static_cast<double>(partitioned.members[part].size()) *
            scale;
      }
    }
    // Encoding pass: combine geometry with per-encoding parameters.
    for (std::size_t e = 0; e < num_encodings; ++e) {
      const std::size_t column = p * num_encodings + e;
      result.configs.push_back({partitionings[p], encodings[e]});
      const auto ratio_it = ratios.find(encodings[e].Name());
      require(ratio_it != ratios.end(),
              "BuildSelectionInputGrouped: missing ratio for " +
                  encodings[e].Name());
      result.input.storage_bytes[column] =
          static_cast<double>(total_records) * kRecordRowBytes *
          ratio_it->second;
      const ScanCostParams& params = model.Params(encodings[e]);
      for (std::size_t i = 0; i < n; ++i) {
        result.input.cost[i][column] =
            expected_records[i] / 1000.0 * params.scan_ms_per_krecord +
            expected_partitions[i] * params.extra_ms;
      }
    }
  }
  result.input.Check();
  return result;
}

}  // namespace blot
