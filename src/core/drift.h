// Workload tracking and drift detection.
//
// The paper motivates the greedy selector for deployments where "the
// workload is changing rapidly so that the replica set should be
// re-selected frequently" (Section III-D). This module supplies the
// missing operational pieces: a tracker that folds executed queries into
// an exponentially-decayed workload estimate (grouped by range size, as
// in Section III-C1), a size-distribution distance, and a monitor that
// signals when the live workload has drifted far enough from the one the
// current replica set was selected for.
#ifndef BLOT_CORE_DRIFT_H_
#define BLOT_CORE_DRIFT_H_

#include <cstddef>

#include "core/workload.h"

namespace blot {

// Maintains a decayed estimate of the query-size distribution.
class WorkloadTracker {
 public:
  // `decay` in (0, 1]: weight multiplier applied to history per observed
  // query (1 = never forget). `max_entries` bounds memory; when exceeded,
  // entries are compacted by k-means over range sizes.
  explicit WorkloadTracker(double decay = 0.995,
                           std::size_t max_entries = 256,
                           std::uint64_t seed = 11);

  // Records one executed query of the given range size.
  void Observe(const RangeSize& size);

  std::size_t observations() const { return observations_; }

  // The current workload estimate, reduced to at most `max_groups`
  // grouped queries and normalized to total weight 1.
  Workload Snapshot(std::size_t max_groups = 8) const;

 private:
  void CompactIfNeeded();

  double decay_;
  std::size_t max_entries_;
  mutable Rng rng_;
  double scale_ = 1.0;  // lazy global decay factor
  std::vector<WeightedQuery> entries_;
  std::size_t observations_ = 0;
};

// A symmetric distance in [0, ~inf) between two workloads' range-size
// distributions: weight-normalized earth-mover-style matching in
// log-size space (each side's mass travels to the other side's nearest
// query; L1 in log coordinates). 0 means identical supports; ~0.7 means
// sizes differ by about a factor e on one axis on average.
double WorkloadDistance(const Workload& a, const Workload& b);

// Signals drift when the live workload moves away from the reference the
// replica set was selected for.
class DriftMonitor {
 public:
  DriftMonitor(Workload reference, double threshold = 0.5);

  // True if `current` is farther than the threshold from the reference.
  bool HasDrifted(const Workload& current) const;
  double DistanceTo(const Workload& current) const;

  // Installs a new reference after reselection.
  void Rebase(Workload reference);

  const Workload& reference() const { return reference_; }

 private:
  Workload reference_;
  double threshold_;
};

}  // namespace blot

#endif  // BLOT_CORE_DRIFT_H_
