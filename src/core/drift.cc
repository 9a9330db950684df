#include "core/drift.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/error.h"

namespace blot {

WorkloadTracker::WorkloadTracker(double decay, std::size_t max_entries,
                                 std::uint64_t seed)
    : decay_(decay), max_entries_(max_entries), rng_(seed) {
  require(decay > 0 && decay <= 1, "WorkloadTracker: decay out of range");
  require(max_entries >= 8, "WorkloadTracker: max_entries too small");
}

void WorkloadTracker::Observe(const RangeSize& size) {
  require(size.w > 0 && size.h > 0 && size.t > 0,
          "WorkloadTracker::Observe: sizes must be positive");
  ++observations_;
  // Lazy decay: instead of multiplying every entry by `decay`, divide the
  // weight of new arrivals by the accumulated scale.
  scale_ *= decay_;
  const double weight = 1.0 / scale_;
  entries_.push_back({{size}, weight});
  if (scale_ < 1e-150) {
    // Renormalize before the scale underflows.
    for (WeightedQuery& e : entries_) e.weight *= scale_;
    scale_ = 1.0;
  }
  CompactIfNeeded();
}

void WorkloadTracker::CompactIfNeeded() {
  if (entries_.size() <= max_entries_) return;
  const Workload compacted =
      ReduceWorkload(Workload(entries_), max_entries_ / 2, rng_);
  entries_ = compacted.queries();
}

Workload WorkloadTracker::Snapshot(std::size_t max_groups) const {
  require(max_groups >= 1, "WorkloadTracker::Snapshot: max_groups >= 1");
  if (entries_.empty()) return Workload();
  Workload workload(entries_);
  if (workload.size() > max_groups)
    workload = ReduceWorkload(workload, max_groups, rng_);
  return workload.Normalized();
}

namespace {

double LogDistance(const RangeSize& a, const RangeSize& b) {
  return std::abs(std::log(a.w) - std::log(b.w)) +
         std::abs(std::log(a.h) - std::log(b.h)) +
         std::abs(std::log(a.t) - std::log(b.t));
}

// One-directional transport: each query's (normalized) mass travels to
// the nearest query of the other workload.
double DirectedDistance(const Workload& from, const Workload& to) {
  double total = 0;
  for (const WeightedQuery& wq : from.queries()) {
    double nearest = std::numeric_limits<double>::infinity();
    for (const WeightedQuery& other : to.queries())
      nearest = std::min(nearest, LogDistance(wq.query.size,
                                              other.query.size));
    total += wq.weight * nearest;
  }
  return total;
}

}  // namespace

double WorkloadDistance(const Workload& a, const Workload& b) {
  require(!a.empty() && !b.empty(), "WorkloadDistance: empty workload");
  for (const WeightedQuery& wq : a.queries())
    require(wq.query.size.w > 0 && wq.query.size.h > 0 && wq.query.size.t > 0,
            "WorkloadDistance: sizes must be positive");
  for (const WeightedQuery& wq : b.queries())
    require(wq.query.size.w > 0 && wq.query.size.h > 0 && wq.query.size.t > 0,
            "WorkloadDistance: sizes must be positive");
  const Workload na = a.Normalized();
  const Workload nb = b.Normalized();
  return (DirectedDistance(na, nb) + DirectedDistance(nb, na)) / 2;
}

DriftMonitor::DriftMonitor(Workload reference, double threshold)
    : reference_(std::move(reference)), threshold_(threshold) {
  require(!reference_.empty(), "DriftMonitor: empty reference workload");
  require(threshold > 0, "DriftMonitor: threshold must be positive");
}

double DriftMonitor::DistanceTo(const Workload& current) const {
  return WorkloadDistance(reference_, current);
}

bool DriftMonitor::HasDrifted(const Workload& current) const {
  return DistanceTo(current) > threshold_;
}

void DriftMonitor::Rebase(Workload reference) {
  require(!reference.empty(), "DriftMonitor::Rebase: empty workload");
  reference_ = std::move(reference);
}

}  // namespace blot
