#include "core/cost_model.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/error.h"

namespace blot {
namespace {

// One dimension's contribution to Eq. 12: the fraction of the centroid
// interval for which the query overlaps [p_lo, p_hi].
double AxisFactor(double u_lo, double u_hi, double p_lo, double p_hi,
                  double query_extent) {
  const double u_extent = u_hi - u_lo;
  if (query_extent >= u_extent) return 1.0;  // query spans the whole axis
  // Centroid range: [u_lo + e/2, u_hi - e/2]; intersecting centroids:
  // [p_lo - e/2, p_hi + e/2]. Their overlap length over the centroid
  // range length is the probability.
  const double c_lo = u_lo + query_extent / 2;
  const double c_hi = u_hi - query_extent / 2;
  const double i_lo = std::max(c_lo, p_lo - query_extent / 2);
  const double i_hi = std::min(c_hi, p_hi + query_extent / 2);
  const double c_len = c_hi - c_lo;
  if (c_len <= 0) return 1.0;  // degenerate centroid range: always centered
  return std::clamp((i_hi - i_lo) / c_len, 0.0, 1.0);
}

}  // namespace

double IntersectionProbability(const STRange& partition,
                               const RangeSize& query_size,
                               const STRange& universe) {
  require(!universe.empty(), "IntersectionProbability: empty universe");
  require(!partition.empty(), "IntersectionProbability: empty partition");
  return AxisFactor(universe.x_min(), universe.x_max(), partition.x_min(),
                    partition.x_max(), query_size.w) *
         AxisFactor(universe.y_min(), universe.y_max(), partition.y_min(),
                    partition.y_max(), query_size.h) *
         AxisFactor(universe.t_min(), universe.t_max(), partition.t_min(),
                    partition.t_max(), query_size.t);
}

double ExpectedInvolvedPartitions(const PartitionIndex& index,
                                  const RangeSize& query_size,
                                  const STRange& universe) {
  double expected = 0.0;
  for (const STRange& range : index.ranges())
    expected += IntersectionProbability(range, query_size, universe);
  return expected;
}

CostModel::CostModel(const EnvironmentModel& environment) {
  for (const EncodingScheme& scheme : AllEncodingSchemes())
    if (environment.Supports(scheme))
      params_by_encoding_[scheme.Name()] = environment.Params(scheme);
}

CostModel::CostModel(std::map<std::string, ScanCostParams> params_by_encoding)
    : params_by_encoding_(std::move(params_by_encoding)) {
  for (const auto& [encoding, params] : params_by_encoding_) {
    require(params.scan_ms_per_krecord > 0 && params.extra_ms >= 0 &&
                std::isfinite(params.scan_ms_per_krecord) &&
                std::isfinite(params.extra_ms),
            "CostModel: non-positive or non-finite parameters for " +
                encoding);
  }
}

const ScanCostParams& CostModel::Params(const EncodingScheme& scheme) const {
  const auto it = params_by_encoding_.find(scheme.Name());
  require(it != params_by_encoding_.end(),
          "CostModel: no parameters for encoding " + scheme.Name());
  return it->second;
}

double CostModel::PartitionCostMs(const EncodingScheme& scheme,
                                  double records) const {
  const ScanCostParams& p = Params(scheme);
  return records / 1000.0 * p.scan_ms_per_krecord + p.extra_ms;
}

double CostModel::QueryCostMs(const ReplicaSketch& replica,
                              const GroupedQuery& query) const {
  const ScanCostParams& p = Params(replica.config.encoding);
  double expected_partitions = 0.0;
  double expected_records = 0.0;
  for (std::size_t i = 0; i < replica.index.NumPartitions(); ++i) {
    const double prob = IntersectionProbability(
        replica.index.Range(i), query.size, replica.universe);
    expected_partitions += prob;
    expected_records += prob * static_cast<double>(replica.counts[i]);
  }
  return expected_records / 1000.0 * p.scan_ms_per_krecord +
         expected_partitions * p.extra_ms;
}

double CostModel::QueryCostMs(const ReplicaSketch& replica,
                              const STRange& query,
                              std::size_t* involved, double bound,
                              double penalty) const {
  const ScanCostParams& p = Params(replica.config.encoding);
  double cost = 0.0;
  std::size_t count = 0;
  replica.index.ForEachInvolved(query, [&](std::size_t i) {
    cost += static_cast<double>(replica.counts[i]) / 1000.0 *
                p.scan_ms_per_krecord +
            p.extra_ms;
    ++count;
    return !(cost * penalty > bound);
  });
  if (involved != nullptr) *involved = count;
  return cost;
}

double CostModel::WorkloadCostMs(const std::vector<ReplicaSketch>& replicas,
                                 const Workload& workload) const {
  if (replicas.empty())
    return workload.empty() ? 0.0
                            : std::numeric_limits<double>::infinity();
  double total = 0.0;
  for (const WeightedQuery& wq : workload.queries()) {
    double best = std::numeric_limits<double>::infinity();
    for (const ReplicaSketch& replica : replicas)
      best = std::min(best, QueryCostMs(replica, wq.query));
    total += wq.weight * best;
  }
  return total;
}

}  // namespace blot
