#include "core/latency_map.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "obs/event_log.h"
#include "obs/metrics.h"
#include "obs/profile.h"

namespace blot {
namespace {

// Folds `sample` into an EWMA that has seen `seen` samples; the first
// sample seeds it.
double Ewma(double ewma, double sample, std::uint64_t seen) {
  if (seen == 0) return sample;
  return LatencyMap::kAlpha * sample + (1.0 - LatencyMap::kAlpha) * ewma;
}

}  // namespace

void LatencyMap::AddReplica() {
  std::lock_guard<std::mutex> lock(mutex_);
  cells_.emplace_back();
}

std::size_t LatencyMap::NumReplicas() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return cells_.size();
}

void LatencyMap::Observe(std::size_t replica, std::size_t partitions,
                         double attempt_ms, double estimated_ms) {
  if (attempt_ms < 0.0) return;
  const double per_partition =
      attempt_ms / static_cast<double>(std::max<std::size_t>(partitions, 1));
  double error_pct = 0.0;
  bool alerting = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (replica >= cells_.size()) return;
    Cell& cell = cells_[replica];
    cell.ewma_ms_per_partition =
        Ewma(cell.ewma_ms_per_partition, per_partition, cell.observations++);
    if (attempt_ms <= 0.0 || estimated_ms <= 0.0) return;
    cell.residual = Ewma(cell.residual, attempt_ms / estimated_ms,
                         cell.residual_observations++);
    error_pct = std::abs(obs::SignedCostErrorPct(1.0, cell.residual));
    if (cell.residual_observations >= kMinObservations &&
        (error_pct > kDriftBandPct) != cell.drift_alerting) {
      cell.drift_alerting = !cell.drift_alerting;
      // Under the lock, so concurrent feeders log transitions in order.
      obs::EventLog& log = obs::EventLog::Global();
      if (log.enabled()) {
        log.Emit(cell.drift_alerting ? obs::EventSeverity::kWarn
                                     : obs::EventSeverity::kInfo,
                 cell.drift_alerting ? "cost_drift.alert" : "cost_drift.clear",
                 cell.drift_alerting ? "cost model error exceeds threshold"
                                     : "cost model error back under threshold",
                 {obs::Field("replica", replica),
                  obs::Field("error_pct", error_pct),
                  obs::Field("residual", cell.residual),
                  obs::Field("threshold_pct", kDriftBandPct)});
      }
    }
    alerting = cell.drift_alerting;
  }
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  if (registry.enabled()) {
    const obs::Labels labels = {{"replica", std::to_string(replica)}};
    registry.GetGauge("cost_drift.error_pct", labels).Set(error_pct);
    registry.GetGauge("cost_drift.alerting", labels)
        .Set(alerting ? 1.0 : 0.0);
  }
}

double LatencyMap::ExpectedMs(std::size_t replica,
                              std::size_t partitions) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (replica >= cells_.size()) return 0.0;
  const Cell& cell = cells_[replica];
  if (cell.observations < kMinObservations) return 0.0;
  return cell.ewma_ms_per_partition *
         static_cast<double>(std::max<std::size_t>(partitions, 1));
}

double LatencyMap::BrownoutPenalty(std::size_t replica) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (replica >= cells_.size()) return 1.0;
  const Cell& cell = cells_[replica];
  if (cell.observations < kMinObservations) return 1.0;
  // Baseline: the fastest replica that has also warmed up. Comparing
  // against cold replicas would let the very first replica to serve
  // traffic brown itself out against an unmeasured peer.
  double fastest = std::numeric_limits<double>::infinity();
  for (const Cell& other : cells_) {
    if (other.observations < kMinObservations) continue;
    fastest = std::min(fastest, other.ewma_ms_per_partition);
  }
  if (fastest <= 0.0 || !std::isfinite(fastest)) return 1.0;
  const double ratio = cell.ewma_ms_per_partition / fastest;
  if (ratio <= kBrownoutRatio) return 1.0;
  return std::min(ratio, kMaxPenalty);
}

LatencyMap::Snapshot LatencyMap::Get(std::size_t replica) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return replica < cells_.size() ? cells_[replica] : Snapshot{};
}

}  // namespace blot
