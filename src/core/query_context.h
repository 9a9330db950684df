// Per-query execution state, threaded through the whole execution path.
//
// Before the serving layer existed, BlotStore::Execute interleaved
// routing, scanning, failover and telemetry with ad-hoc locals; under N
// concurrent callers every piece of per-query state must be owned by
// exactly one query. QueryContext is that owner: the profile the scan
// kernels fill, the attempt log the failover loop appends to —
// everything that belongs to one query and nothing that is shared. The
// shared structures (HealthMap, LatencyMap, PartitionCache, metrics
// registry, event log) are internally synchronized; a context is not,
// because it never crosses queries.
//
// Contexts are cheap to construct on the query path: the profile is a
// flat struct. The store's coordinator (routing, failover, hedging,
// deadline and partial answers) writes into the context on the calling
// thread only — racing attempts fill their own outcomes and the
// coordinator folds them in — and BlotStore::Execute moves its pieces
// into the RoutedResult when the query finishes.
#ifndef BLOT_CORE_QUERY_CONTEXT_H_
#define BLOT_CORE_QUERY_CONTEXT_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/profile.h"
#include "util/cancel.h"

namespace blot {

// One execution attempt of the store's attempt loop: which replica was
// tried, what happened, and how long it took. RoutedResult carries the
// full log so a caller (or the serving layer's slow-query diagnostics)
// can reconstruct the query's path without re-reading the event log.
struct QueryAttempt {
  std::size_t replica_index = 0;
  std::string replica;      // config name of the attempted replica
  double ms = 0.0;          // wall time of this attempt
  bool success = false;
  std::string fault;        // error text when the attempt failed
};

// Everything owned by exactly one in-flight query.
class QueryContext {
 public:
  // Builds a context for a fresh query: assigns a process-unique query
  // id and latches whether the metrics registry is on so the execution
  // path checks one bool instead of re-probing the registry.
  static QueryContext ForQuery() {
    static std::atomic<std::uint64_t> next_id{1};
    QueryContext ctx(next_id.fetch_add(1, std::memory_order_relaxed));
    ctx.profiling = obs::MetricsRegistry::global().enabled();
    return ctx;
  }

  std::uint64_t query_id() const { return query_id_; }

  // Per-stage timings and counters, filled by routing, the scan kernels
  // and the attempt loop (obs/profile.h).
  obs::QueryProfile profile;
  // One entry per attempt, in launch order.
  std::vector<QueryAttempt> attempts;
  // MetricsRegistry::global().enabled(), latched at construction.
  bool profiling = false;
  // Cooperative cancellation for this query: carries the deadline (when
  // one is set) and is polled at attempt, partition, and block
  // boundaries. Invalid (inert) when the caller set no deadline, so
  // undeadlined queries pay nothing; hedged attempts each run under a
  // Child() of it.
  CancelToken cancel;
  // The caller's deadline in milliseconds (0 = none); the enforcing
  // clock lives inside `cancel`, this is kept for error reporting.
  double deadline_ms = 0.0;
  // When true, deadline expiry or unrecoverable partition loss yields a
  // partial RoutedResult with a coverage report instead of an error.
  bool allow_partial = false;
  // Hedged-read threshold in milliseconds (0 = hedging off): if the
  // primary attempt runs past max(hedge_ms, 2x the replica's expected
  // time), a backup attempt races it on the next-cheapest replica.
  double hedge_ms = 0.0;

 private:
  explicit QueryContext(std::uint64_t id) : query_id_(id) {}

  std::uint64_t query_id_ = 0;
};

}  // namespace blot

#endif  // BLOT_CORE_QUERY_CONTEXT_H_
