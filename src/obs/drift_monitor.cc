#include "obs/drift_monitor.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "obs/event_log.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "util/error.h"

namespace blot::obs {

CostDriftMonitor::CostDriftMonitor(CostDriftOptions options)
    : options_(options) {
  require(options_.window > 0, "CostDriftMonitor: window must be > 0");
  require(options_.min_samples > 0,
          "CostDriftMonitor: min_samples must be > 0");
  require(options_.alert_error_pct > 0.0,
          "CostDriftMonitor: alert_error_pct must be > 0");
}

CostDriftMonitor::ReplicaStats CostDriftMonitor::ComputeStats(
    const Window& window) {
  ReplicaStats stats;
  stats.samples = window.signed_errors.size();
  stats.alerting = window.alerting;
  if (stats.samples == 0) return stats;
  double sum_abs = 0.0, sum_signed = 0.0;
  for (const double e : window.signed_errors) {
    sum_abs += std::abs(e);
    sum_signed += e;
    stats.max_abs_error_pct = std::max(stats.max_abs_error_pct,
                                       std::abs(e));
  }
  stats.mean_abs_error_pct = sum_abs / double(stats.samples);
  stats.mean_signed_error_pct = sum_signed / double(stats.samples);
  return stats;
}

void CostDriftMonitor::Observe(std::size_t replica, double estimated_ms,
                               double measured_ms) {
  if (measured_ms <= 0.0) return;
  const double signed_error_pct =
      SignedCostErrorPct(estimated_ms, measured_ms);

  ReplicaStats stats;
  bool fired_alert = false, fired_clear = false;
  {
    std::lock_guard lock(mutex_);
    Window& window = windows_[replica];
    window.signed_errors.push_back(signed_error_pct);
    while (window.signed_errors.size() > options_.window)
      window.signed_errors.pop_front();
    stats = ComputeStats(window);
    if (stats.samples >= options_.min_samples) {
      const bool over = stats.mean_abs_error_pct > options_.alert_error_pct;
      fired_alert = over && !window.alerting;
      fired_clear = !over && window.alerting;
      window.alerting = over;
      stats.alerting = over;
    }
  }

  MetricsRegistry& registry = MetricsRegistry::global();
  if (registry.enabled()) {
    const Labels labels = {{"replica", std::to_string(replica)}};
    registry.GetGauge("cost_drift.error_pct", labels)
        .Set(stats.mean_abs_error_pct);
    registry.GetGauge("cost_drift.alerting", labels)
        .Set(stats.alerting ? 1.0 : 0.0);
  }

  EventLog& log = EventLog::Global();
  if (fired_alert) {
    log.Warn("cost_drift.alert",
             "cost model error exceeds threshold",
             {Field("replica", replica),
              Field("mean_abs_error_pct", stats.mean_abs_error_pct),
              Field("mean_signed_error_pct", stats.mean_signed_error_pct),
              Field("max_abs_error_pct", stats.max_abs_error_pct),
              Field("window_samples", stats.samples),
              Field("threshold_pct", options_.alert_error_pct)});
  } else if (fired_clear) {
    log.Info("cost_drift.clear", "cost model error back under threshold",
             {Field("replica", replica),
              Field("mean_abs_error_pct", stats.mean_abs_error_pct),
              Field("threshold_pct", options_.alert_error_pct)});
  }
}

CostDriftMonitor::ReplicaStats CostDriftMonitor::StatsFor(
    std::size_t replica_index) const {
  std::lock_guard lock(mutex_);
  const auto it = windows_.find(replica_index);
  if (it == windows_.end()) return {};
  return ComputeStats(it->second);
}

std::vector<std::pair<std::size_t, CostDriftMonitor::ReplicaStats>>
CostDriftMonitor::AllStats() const {
  std::lock_guard lock(mutex_);
  std::vector<std::pair<std::size_t, ReplicaStats>> out;
  out.reserve(windows_.size());
  for (const auto& [index, window] : windows_)
    out.emplace_back(index, ComputeStats(window));
  return out;
}

bool CostDriftMonitor::AnyAlerting() const {
  std::lock_guard lock(mutex_);
  for (const auto& [index, window] : windows_)
    if (window.alerting) return true;
  return false;
}

}  // namespace blot::obs
