// Candidate replica enumeration (Section V-A).
//
// The paper's candidate set is the cross product of partitioning schemes
// (k-d tree spatial counts 4^2..4^6 x temporal counts 2^4..2^8) and the 7
// encoding schemes: 25 x 7 = 150 candidates. Every candidate is described
// by a ReplicaSketch built from a sample, with storage estimated from the
// measured per-encoding compression ratio — "we only need a small portion
// of the data to build the cost model and select diverse replicas for the
// whole dataset."
#ifndef BLOT_CORE_CANDIDATES_H_
#define BLOT_CORE_CANDIDATES_H_

#include <map>
#include <string>
#include <vector>

#include "core/selection.h"
#include "util/rng.h"

namespace blot {

struct CandidateSpaceConfig {
  // Spatial partition counts (the paper: 16, 64, 256, 1024, 4096).
  std::vector<std::size_t> spatial_counts = {16, 64, 256, 1024, 4096};
  // Temporal partition counts (the paper: 16, 32, 64, 128, 256).
  std::vector<std::size_t> temporal_counts = {16, 32, 64, 128, 256};
  SpatialMethod method = SpatialMethod::kKdTree;
  // Encoding schemes to cross with; defaults to the paper's 7.
  std::vector<EncodingScheme> encodings = AllEncodingSchemes();
};

// All candidate replica configurations of the config's cross product.
std::vector<ReplicaConfig> EnumerateReplicaConfigs(
    const CandidateSpaceConfig& config);

// Measures each encoding's compression ratio on (a sample of) the
// dataset, keyed by encoding name (Table I's procedure).
std::map<std::string, double> MeasureCompressionRatios(
    const Dataset& sample, const std::vector<EncodingScheme>& encodings,
    std::size_t max_sample_records = 100000, std::uint64_t seed = 1);

// Builds one sketch per candidate configuration from `sample`, scaled to
// `total_records`, with storage from `ratios`.
std::vector<ReplicaSketch> BuildCandidateSketches(
    const Dataset& sample, const STRange& universe,
    const std::vector<ReplicaConfig>& configs, std::uint64_t total_records,
    const std::map<std::string, double>& ratios);

// Builds a full selection instance (cost matrix + storage + budget) for
// the cross product of `partitionings` x `encodings`, column-ordered
// partitioning-major (config index = p * encodings.size() + e).
//
// Exploits that Eq. 7 factors into geometry x encoding: the expected
// involved-partition count and expected records scanned depend only on
// (query, partitioning), so they are computed once per partitioning and
// reused for every encoding — essential when sweeping the paper's full
// 25-partitioning x 7-encoding candidate space with fine partitionings
// (up to 4096 x 256 = 1M partitions each).
struct CandidateMatrixResult {
  SelectionInput input;
  std::vector<ReplicaConfig> configs;  // column order of the cost matrix
};
CandidateMatrixResult BuildSelectionInputGrouped(
    const Dataset& sample, const STRange& universe,
    const std::vector<PartitioningSpec>& partitionings,
    const std::vector<EncodingScheme>& encodings,
    const std::map<std::string, double>& ratios,
    std::uint64_t total_records, const Workload& workload,
    const CostModel& model, double budget_bytes);

}  // namespace blot

#endif  // BLOT_CORE_CANDIDATES_H_
