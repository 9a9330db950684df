// The query cost estimation model of Section IV.
//
// Cost of processing one involved partition (Eq. 6):
//     Cost(q, p) = |D(p)| / ScanRate + ExtraTime
// Cost of a query on a replica (Eq. 7):
//     Cost(q, r) = Np(q, r) * (|D| / |P(r)|) / ScanRate
//                + Np(q, r) * ExtraTime
//
// For a concrete query, Np is counted exactly from the partitioning
// index. For a grouped query Q_G = <W,H,T> with uniformly distributed
// centroid, the expected count is (Eq. 11-12):
//     Np(Q_G, r) = sum_p  Volume(CR(Q_G, p)) / Volume(CR(Q_G))
// where CR(Q_G, p) is the clamped cuboid of centroid positions whose
// query range intersects partition p. Dimensions in which the query is at
// least as large as the universe always intersect (factor 1), handling
// the paper's implicit W < W^U assumption.
//
// The model is parameterized per encoding scheme by ScanCostParams that
// come either from an EnvironmentModel's ground truth or from the
// measurement procedure of Section V-B.
#ifndef BLOT_CORE_COST_MODEL_H_
#define BLOT_CORE_COST_MODEL_H_

#include <limits>
#include <map>
#include <string>

#include "blot/replica.h"
#include "core/workload.h"
#include "simenv/environment.h"

namespace blot {

// Expected number of involved partitions for a grouped query (Eq. 11-12).
// `partition_ranges` must tile `universe`.
double ExpectedInvolvedPartitions(const PartitionIndex& index,
                                  const RangeSize& query_size,
                                  const STRange& universe);

// Probability that a random instance of `query_size` intersects
// `partition` (Eq. 12), with per-dimension clamping.
double IntersectionProbability(const STRange& partition,
                               const RangeSize& query_size,
                               const STRange& universe);

class CostModel {
 public:
  // Parameters from an environment's ground truth table.
  explicit CostModel(const EnvironmentModel& environment);

  // Parameters supplied explicitly (e.g. fitted by MeasureScanParams).
  // Every rate must be positive and every ExtraTime non-negative, both
  // finite: Eq. 6 terms are then non-negative, which the bounded
  // QueryCostMs relies on. Throws InvalidArgument otherwise.
  explicit CostModel(
      std::map<std::string, ScanCostParams> params_by_encoding);

  const ScanCostParams& Params(const EncodingScheme& scheme) const;

  // Eq. 6 for one partition.
  double PartitionCostMs(const EncodingScheme& scheme,
                         double records) const;

  // Eq. 7 with the expected Np and expected records scanned for a grouped
  // query. Uses per-partition counts (exact under skew; reduces to
  // |D|/|P(r)| under the non-skew assumption).
  double QueryCostMs(const ReplicaSketch& replica,
                     const GroupedQuery& query) const;

  // Eq. 7 with exact involved-partition counting for a concrete query:
  // one index walk, summing Eq. 6 over the involved partitions in
  // ascending order. When `involved` is non-null it receives Np(q, r)
  // from the same walk.
  //
  // Branch and bound: the walk stops as soon as cost * penalty > bound,
  // and then returns the partial sum and partial Np. Eq. 6 terms are
  // non-negative, so partial sums never decrease and a stopped walk's
  // full cost * penalty exceeds `bound` too. With the default infinite
  // bound the result is the full Eq. 7, bit for bit.
  double QueryCostMs(
      const ReplicaSketch& replica, const STRange& query,
      std::size_t* involved = nullptr,
      double bound = std::numeric_limits<double>::infinity(),
      double penalty = 1.0) const;

  // Cost(W, R) = sum_i w_i * min_{r in R} Cost(q_i, r) over sketches.
  // Returns +infinity for an empty replica set.
  double WorkloadCostMs(const std::vector<ReplicaSketch>& replicas,
                        const Workload& workload) const;

 private:
  std::map<std::string, ScanCostParams> params_by_encoding_;
};

}  // namespace blot

#endif  // BLOT_CORE_COST_MODEL_H_
