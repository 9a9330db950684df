// Per-replica runtime statistics: the routing signal for hedged reads
// and brownout deprioritization, and the cost model's residual.
//
// HealthMap answers "is this copy *correct*"; LatencyMap answers "is
// this copy *fast*" and "is the cost model right about it". Every
// complete execution attempt feeds its wall time, partition count and
// routing estimate, and the map keeps two EWMAs per replica:
//
//   * milliseconds per partition read, which two consumers read:
//     - the hedging coordinator derives the per-query hedge threshold
//       from ExpectedMs(replica, predicted_partitions) — an attempt
//       running well past its own replica's recent norm is a straggler
//       worth racing;
//     - candidate ranking multiplies a replica's cost by
//       BrownoutPenalty() — a replica whose per-partition reads run far
//       slower than the fastest replica's is deprioritized (still
//       eligible, so it keeps serving when it is the only healthy copy)
//       without tripping the health machinery: slowness is not
//       corruption, and quarantining a slow-but-alive replica would
//       *reduce* the diversity the paper's recovery argument relies on;
//   * the residual, measured ÷ estimated ms (Eq. 7): the model's own
//     prediction corrected online. Its error, |obs::SignedCostErrorPct(
//     1, residual)|, is published as the cost_drift.error_pct{replica}
//     and cost_drift.alerting{replica} gauges while the registry is on,
//     and crossing kDriftBandPct either way emits one cost_drift.alert
//     or cost_drift.clear event (docs/observability.md). Nothing routes
//     on it yet.
//
// The penalty needs a minimum number of observations per replica and
// only kicks in past a generous slowness ratio (4x), but honest speed
// differences between encodings can cross it and override the cost
// model. On blotbench's paper-mix, whose COL-LZMA replica decoded at
// 6.4 MB/s, LocalHadoop's 2013 constants would send 29% of queries to
// KD64xT64/COL-LZMA; the penalty alone keeps that share at 0. Forcing
// the penalty to 1.0 dropped paper-mix from ~4000 to ~700 qps and
// raised routing regret from ~1.1 to ~4 (docs/robustness.md). It must
// stay until the cost model is calibrated to the hardware.
//
// Internally synchronized; attempts observe concurrently from the
// serving layer's request workers.
#ifndef BLOT_CORE_LATENCY_MAP_H_
#define BLOT_CORE_LATENCY_MAP_H_

#include <cstdint>
#include <mutex>
#include <vector>

namespace blot {

class LatencyMap {
 public:
  struct Snapshot {
    double ewma_ms_per_partition = 0.0;
    std::uint64_t observations = 0;
    // EWMA of measured / estimated ms over the attempts that had both.
    double residual = 0.0;
    std::uint64_t residual_observations = 0;
    // The residual's error is past kDriftBandPct (after warm-up).
    bool drift_alerting = false;
  };

  // Registers the next replica (index = current replica count), keeping
  // the map index-aligned with the store's replica vector.
  void AddReplica();

  std::size_t NumReplicas() const;

  // Feeds one complete execution attempt: `partitions` actually scanned
  // in `attempt_ms` of wall time, against the routing estimate
  // `estimated_ms`. Attempts that scanned nothing still count as one
  // partition so a zone-pruned-everything query cannot divide by zero or
  // record an infinite rate. The residual skips an attempt whose
  // estimate or time is <= 0.
  void Observe(std::size_t replica, std::size_t partitions,
               double attempt_ms, double estimated_ms);

  // The EWMA-predicted wall time for `replica` to read `partitions`
  // partitions; 0 while the replica has fewer than kMinObservations
  // (callers fall back to their static threshold).
  double ExpectedMs(std::size_t replica, std::size_t partitions) const;

  // Routing multiplier >= 1: the ratio of this replica's per-partition
  // EWMA to the fastest warmed-up replica's, clamped to
  // [1, kMaxPenalty], and 1.0 until the ratio exceeds kBrownoutRatio —
  // honest encoding-speed differences stay invisible to routing.
  double BrownoutPenalty(std::size_t replica) const;

  Snapshot Get(std::size_t replica) const;

  // Observations needed before a replica's EWMA drives decisions, and
  // before its residual may alert.
  static constexpr std::uint64_t kMinObservations = 4;
  // Slowness ratio (vs the fastest replica) below which no penalty
  // applies.
  static constexpr double kBrownoutRatio = 4.0;
  // Penalty clamp: a browned-out replica is heavily deprioritized but
  // never priced out of serving as the last healthy copy.
  static constexpr double kMaxPenalty = 8.0;
  // EWMA smoothing factor (weight of the newest observation).
  static constexpr double kAlpha = 0.2;
  // Residual error |obs::SignedCostErrorPct(1, residual)|, in percent,
  // past which a warmed-up replica alerts.
  static constexpr double kDriftBandPct = 25.0;

 private:
  using Cell = Snapshot;  // Get returns a copy of the replica's cell

  mutable std::mutex mutex_;
  std::vector<Cell> cells_;
};

}  // namespace blot

#endif  // BLOT_CORE_LATENCY_MAP_H_
