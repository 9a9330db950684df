// Cost-model drift detection from per-query routing outcomes.
//
// Routing is only as good as the cost model (Eq. 6-12), and the model's
// calibration decays as workloads drift away from what it was fitted
// on. The CostDriftMonitor consumes each query's estimated and measured
// cost (BlotStore::RecordQuery passes them from the RoutedResult) and
// maintains a sliding window of the cost error per replica; when a
// replica's mean absolute error exceeds the alert threshold it emits a
// `cost_drift.alert` event and flips the cost_drift.alerting gauge —
// the trigger signal the future replica-tuning advisor will consume
// (ROADMAP: online workload-adaptive replica tuning; the workload-shape
// side of drift lives in src/core/drift.h).
//
// Alerts fire on *transition* (ok -> alerting), not per query, and a
// matching `cost_drift.clear` fires on the way back, so the event log
// reads as an incident timeline rather than a firehose.
#ifndef BLOT_OBS_DRIFT_MONITOR_H_
#define BLOT_OBS_DRIFT_MONITOR_H_

#include <cstddef>
#include <deque>
#include <map>
#include <mutex>
#include <utility>
#include <vector>

namespace blot::obs {

struct CostDriftOptions {
  std::size_t window = 64;        // sliding window per replica (queries)
  std::size_t min_samples = 16;   // no alerting below this fill level
  double alert_error_pct = 25.0;  // mean |error| threshold, percent
};

class CostDriftMonitor {
 public:
  explicit CostDriftMonitor(CostDriftOptions options = {});
  CostDriftMonitor(const CostDriftMonitor&) = delete;
  CostDriftMonitor& operator=(const CostDriftMonitor&) = delete;

  // Feeds one query's estimated and measured cost into `replica`'s
  // window. Queries with no measured cost (failed before execution) are
  // ignored. Updates the cost_drift.* gauges and emits alert/clear
  // events on threshold transitions.
  void Observe(std::size_t replica, double estimated_ms, double measured_ms);

  struct ReplicaStats {
    std::size_t samples = 0;           // window fill
    double mean_abs_error_pct = 0.0;   // mean |measured-est|/measured
    double mean_signed_error_pct = 0.0;  // >0: model underestimates
    double max_abs_error_pct = 0.0;
    bool alerting = false;
  };

  ReplicaStats StatsFor(std::size_t replica_index) const;
  // (replica_index, stats) for every replica seen, sorted by index.
  std::vector<std::pair<std::size_t, ReplicaStats>> AllStats() const;
  // True if any replica is currently alerting.
  bool AnyAlerting() const;

  const CostDriftOptions& options() const { return options_; }

 private:
  struct Window {
    std::deque<double> signed_errors;  // percent, newest at the back
    bool alerting = false;
  };

  static ReplicaStats ComputeStats(const Window& window);

  const CostDriftOptions options_;
  mutable std::mutex mutex_;
  std::map<std::size_t, Window> windows_;
};

}  // namespace blot::obs

#endif  // BLOT_OBS_DRIFT_MONITOR_H_
