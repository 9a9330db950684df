// BlotStore: a BLOT storage system with diverse replicas (Figure 2).
//
// Holds the dataset's materialized replicas, routes each range query to
// the replica with the least estimated cost ("query cost estimation helps
// the system to determine which one of the existing replicas is supposed
// to have the least processing time for the issued query"), executes it
// for real, and recovers lost replicas from any healthy one.
//
// Fault tolerance (Section II-E, docs/robustness.md): the store tracks
// per-replica, per-partition health. A read fault during execution
// quarantines exactly the failing partitions and the query fails over to
// the next-cheapest covering replica; quarantined partitions are repaired
// from a healthy replica (partition-granular when possible, full rebuild
// otherwise) per the configured FailoverPolicy. A query only fails — with
// a structured QueryFailedError naming the lost partitions — when every
// replica's copy of a needed partition is gone.
#ifndef BLOT_CORE_STORE_H_
#define BLOT_CORE_STORE_H_

#include <condition_variable>
#include <filesystem>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <span>
#include <string>
#include <vector>

#include "core/cost_model.h"
#include "core/health.h"
#include "core/latency_map.h"
#include "obs/profile.h"
#include "util/error.h"
#include "util/thread_pool.h"

namespace blot {

// Every covering replica's copy of some partition the query needs is
// quarantined: the query cannot be answered until repair succeeds. Not a
// CorruptData — the store detected and contained the corruption; this is
// an availability failure, and it names exactly what is unavailable.
class QueryFailedError : public Error {
 public:
  struct Lost {
    std::size_t replica = 0;
    std::size_t partition = 0;
  };

  QueryFailedError(const std::string& what, std::vector<Lost> lost)
      : Error(what), lost_(std::move(lost)) {}

  // The quarantined (replica, partition) pairs that blocked the query.
  const std::vector<Lost>& lost() const { return lost_; }

 private:
  std::vector<Lost> lost_;
};

// The query's deadline expired before a complete answer was assembled
// and the caller did not opt into partial results. Reports how far the
// query got: attempts spent and the served/missed partition split of the
// furthest attempt, so callers can distinguish "barely missed" (one
// partition short) from "never started" (admission queue ate the whole
// budget).
class DeadlineExceededError : public Error {
 public:
  DeadlineExceededError(const std::string& what, double deadline_ms,
                        std::size_t attempts, std::size_t partitions_served,
                        std::size_t partitions_missed)
      : Error(what),
        deadline_ms_(deadline_ms),
        attempts_(attempts),
        partitions_served_(partitions_served),
        partitions_missed_(partitions_missed) {}

  double deadline_ms() const { return deadline_ms_; }
  std::size_t attempts() const { return attempts_; }
  // Partition coverage of the furthest attempt when the deadline hit.
  std::size_t partitions_served() const { return partitions_served_; }
  std::size_t partitions_missed() const { return partitions_missed_; }

 private:
  double deadline_ms_ = 0.0;
  std::size_t attempts_ = 0;
  std::size_t partitions_served_ = 0;
  std::size_t partitions_missed_ = 0;
};

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

// What the store does about quarantined partitions after a query.
enum class RepairMode {
  kNone,        // leave them quarantined; caller runs RepairQuarantined
  kSync,        // repair inline before Execute returns
  kBackground,  // enqueue repair on the query's ThreadPool
};

struct FailoverPolicy {
  // Maximum replicas tried per query (including the first).
  std::size_t max_attempts = 4;
  RepairMode repair = RepairMode::kSync;
};

class BlotStore {
 public:
  // `universe` defaults to the dataset's bounding box.
  explicit BlotStore(Dataset dataset,
                     std::optional<STRange> universe = std::nullopt);

  // Waits for outstanding background work (WaitForRepairs).
  ~BlotStore();

  // Moves wait for the source's (and, on assignment, the target's)
  // outstanding background work first: repair tasks and cancelled hedge
  // attempts capture the store's address, so transferring the state out
  // from under a running task would leave it dereferencing a gutted
  // object. (The previously defaulted moves did exactly that — see the
  // regression test.) Moving while queries are concurrently executing
  // remains undefined, as for any standard container.
  BlotStore(BlotStore&& other) noexcept;
  BlotStore& operator=(BlotStore&& other) noexcept;

  const Dataset& dataset() const { return dataset_; }
  const STRange& universe() const { return universe_; }

  // Builds and adds a replica; returns its index. Rejects duplicates.
  std::size_t AddReplica(const ReplicaConfig& config,
                         ThreadPool* pool = nullptr);

  // Builds and adds a partial replica materializing only the records
  // inside `coverage` (Section VII's partial replication). Partial
  // replicas only serve queries fully contained in their coverage; at
  // least one full replica must exist before partials can be routed to.
  std::size_t AddPartialReplica(const ReplicaConfig& config,
                                const STRange& coverage,
                                ThreadPool* pool = nullptr);

  // True if replica `i` covers the whole universe.
  bool IsFullReplica(std::size_t i) const;

  std::size_t NumReplicas() const { return replicas_.size(); }
  const Replica& replica(std::size_t i) const;
  // Mutable replica access for failure injection and recovery tooling
  // (see Replica::MutablePartition); production query paths never use it.
  Replica& mutable_replica(std::size_t i);
  std::uint64_t TotalStorageBytes() const;

  // Policy reads/writes synchronize on the store's state mutex, so the
  // policy may be retuned while queries are in flight (each query sees
  // a consistent snapshot taken when it starts).
  FailoverPolicy failover_policy() const;
  void SetFailoverPolicy(const FailoverPolicy& policy);

  // The per-replica, per-partition health map driving routing and repair.
  const HealthMap& health() const { return *health_; }

  // Per-replica latency EWMAs feeding hedged-read thresholds and brownout
  // deprioritization in routing, beside each replica's cost-model
  // residual (core/latency_map.h).
  const LatencyMap& latency() const { return *latency_; }

  struct RoutedResult {
    QueryResult result;
    std::size_t replica_index = 0;
    double estimated_cost_ms = 0.0;   // the cost model's prediction (Eq. 7)
    double measured_cost_ms = 0.0;    // wall clock of the real execution
    std::size_t predicted_partitions = 0;  // Np from the routing sketch
    // Execution attempts launched, hedge backups included (1 = the
    // first-choice replica answered alone).
    std::size_t attempts = 1;
    // True when the answer did not come from the first attempt (failover,
    // a winning hedge backup, or a partial scan around lost partitions).
    bool degraded = false;
    std::string served_by;  // config name of the serving replica
    // Process-unique id of this execution.
    std::uint64_t query_id = 0;
    // One entry per attempt, in launch order; `attempts` is its size and
    // the serving attempt is the one marked `success`.
    std::vector<QueryAttempt> attempt_log;
    // Per-stage breakdown of this query (docs/observability.md).
    // Populated when the global metrics registry is enabled; all-zero
    // otherwise.
    obs::QueryProfile profile;
    // True when this is a *partial* answer (ExecOptions::allow_partial):
    // `result.records` holds everything found in the served partitions and
    // `result.served_partitions` / `result.missed_partitions` carry the
    // exact coverage split. Never set without allow_partial.
    bool partial = false;
    // True when a backup attempt was raced against a slow primary
    // (ExecOptions::hedge_ms); hedge_backup_won says which attempt's
    // records were returned.
    bool hedged = false;
    bool hedge_backup_won = false;
  };

  // Per-call execution knobs beyond the query itself. The 3-argument
  // Execute overload is the everything-default spelling.
  struct ExecOptions {
    ThreadPool* pool = nullptr;
    // Wall-clock budget for the whole call, measured from entry
    // (0 = none). Expiry cancels in-flight scans cooperatively at
    // partition and block boundaries, then either throws
    // DeadlineExceededError or — with allow_partial — returns what was
    // found plus the coverage report.
    double deadline_ms = 0.0;
    // Opt into graceful degradation: deadline expiry or unrecoverable
    // partition loss yields a partial RoutedResult instead of throwing.
    bool allow_partial = false;
    // Hedged reads (0 = off): when the primary attempt exceeds
    // max(hedge_ms, 2x the primary replica's LatencyMap expectation), a
    // backup attempt races it on the next-cheapest covering replica; the
    // first complete answer wins and the loser is cancelled.
    double hedge_ms = 0.0;
  };

  // Threads of the store-owned executor that runs a query's attempts when
  // a hedge can fire; made on the first such query, kept for the store's
  // lifetime, so no query creates an OS thread.
  static constexpr std::size_t kAttemptThreads = 8;

  // Routes `query` to the cheapest healthy replica under `model` and
  // executes it. Requires at least one replica. Read faults quarantine
  // the failing partitions and fail over to the next-cheapest covering
  // replica (up to FailoverPolicy::max_attempts); quarantined partitions
  // are then repaired per the policy. Throws QueryFailedError when no
  // healthy copy of a needed partition remains.
  //
  // The RoutedResult is the query's one record: routing decision, cost
  // estimate beside the measurement, attempt log and stage profile. When
  // the global metrics registry is enabled the finished record also
  // feeds the query.*, failover.* and hedge.* metrics and the per-stage
  // histograms (docs/observability.md, docs/robustness.md). Every
  // complete attempt feeds the LatencyMap, whose model residual drives
  // the cost_drift.* gauges and events.
  RoutedResult Execute(const STRange& query, const CostModel& model,
                       ThreadPool* pool = nullptr);

  // As above with the full knob set: deadline, partial-result opt-in and
  // hedged reads (see ExecOptions). Throws DeadlineExceededError when the
  // deadline expires without allow_partial.
  RoutedResult Execute(const STRange& query, const CostModel& model,
                       const ExecOptions& options);

  struct RoutedBatchResult {
    // per_query[i]: records matching queries[i].
    std::vector<std::vector<Record>> per_query;
    // replica_of[i]: replica each query was routed to.
    std::vector<std::size_t> replica_of;
    QueryStats stats;                   // shared-scan accounting
    std::size_t naive_partition_scans = 0;
    double measured_ms = 0.0;           // wall clock of the whole batch
  };

  // Routes every query to its cheapest healthy replica, then executes
  // each replica's group as one shared scan (each involved partition
  // read once per replica, blot/batch.h). A group whose shared scan hits
  // read faults quarantines exactly the failing partitions, as Execute
  // does, and falls back to per-query failover-aware Execute for its
  // queries, so one bad storage unit degrades only that group.
  RoutedBatchResult ExecuteBatch(std::span<const STRange> queries,
                                 const CostModel& model,
                                 ThreadPool* pool = nullptr);

  // Everything routing decides about a query, computed in one pass so
  // execution doesn't re-derive the winner's cost or involved-partition
  // count.
  struct RoutingDecision {
    std::size_t replica_index = 0;
    double estimated_cost_ms = 0.0;        // the winner's Eq. 7 estimate
    std::size_t predicted_partitions = 0;  // Np from the routing sketch
  };

  // The replica `model` estimates cheapest for `query` among healthy
  // candidates (quarantined involvement excludes a replica), with the
  // estimate and predicted involvement that drove the choice. Throws
  // QueryFailedError when covering replicas exist but all are
  // quarantined for this query.
  RoutingDecision RouteQueryDetailed(const STRange& query,
                                     const CostModel& model) const;

  // Index of the replica `model` estimates cheapest for `query`.
  std::size_t RouteQuery(const STRange& query, const CostModel& model) const;

  // Simulates losing replica `i` and rebuilding it from replica `source`
  // (diverse-replica recovery, Section II-E). Returns the number of
  // records restored. The rebuilt replica always carries a fresh
  // process-unique cache identity, so decodes cached before recovery can
  // never satisfy queries after it; its health map resets to all-ok.
  std::uint64_t RecoverReplicaFrom(std::size_t i, std::size_t source,
                                   ThreadPool* pool = nullptr);

  // Partition-granular self-healing: re-encodes partition `partition` of
  // replica `target` from records fetched (and verified) from a healthy
  // replica — `source` when given, otherwise every other covering replica
  // is tried cheapest-storage-first. Falls back to a full
  // RecoverReplicaFrom rebuild when the replica's partition membership is
  // not canonically re-derivable. Returns the number of records restored;
  // the repaired partition returns to ok health. Throws when no healthy
  // source can supply the partition's records.
  std::uint64_t RecoverPartition(std::size_t target, std::size_t partition,
                                 std::optional<std::size_t> source = std::nullopt,
                                 ThreadPool* pool = nullptr);

  // Repairs every quarantined partition, feeding the repair.* metrics.
  // Returns the number of partitions repaired (a full rebuild counts all
  // partitions of the rebuilt replica as repaired). Partitions whose
  // repair fails stay quarantined.
  std::size_t RepairQuarantined(ThreadPool* pool = nullptr);

  // Blocks until the store's background work is reaped: kBackground
  // repairs and cancelled hedge attempts still running after their query
  // returned (both counted by the store.background_inflight gauge).
  void WaitForRepairs();

  // Persists the whole store: the logical dataset plus every replica
  // (each in its own SegmentStore subdirectory) under `directory`. The
  // manifest and dataset carry FNV-1a checksums.
  void Save(const std::filesystem::path& directory) const;

  // Loads a store persisted by Save. Throws CorruptData on malformed or
  // checksum-failing contents and InvalidArgument when `directory` holds
  // no store.
  static BlotStore Load(const std::filesystem::path& directory);

 private:
  // Replica mutation holds `state_mutex` unique, every execution attempt
  // shared. Background work is counted in `inflight` from submission to
  // completion. Boxed so BlotStore stays movable.
  struct SyncState {
    std::shared_mutex state_mutex;
    std::mutex inflight_mutex;
    std::condition_variable inflight_cv;
    std::size_t inflight = 0;  // guarded by inflight_mutex
    std::once_flag executor_once;
    std::unique_ptr<ThreadPool> executor;  // see kAttemptThreads

    void BeginBackground();
    void EndBackground();  // a task's last touch of the store
  };

  struct Ranking {
    std::vector<RoutingDecision> ranked;  // healthy candidates, best first
    std::size_t covering = 0;             // replicas able to serve at all
    std::size_t healthy = 0;  // covering, no involved partition quarantined
    // The covering replica losing the fewest involved partitions to
    // quarantine (ties: cheaper estimate), and those partitions. Set by
    // the full ranking only.
    std::optional<RoutingDecision> fallback;
    std::vector<std::size_t> lost;
  };

  // Health-aware candidate ranking; no locking (callers hold state_mutex).
  // Bounded, it is routing's branch and bound: candidates are walked in
  // index order, and a replica's Eq. 7 walk stops once its sum times its
  // brownout penalty exceeds the best complete score so far. `ranked`
  // then holds only the winner, bit-identical to the full ranking's
  // front (pruned candidates are strictly worse). A replica's
  // quarantined involvement is found by its own index walk, so bounding
  // its estimate never hides a lost partition.
  Ranking RankCandidates(const STRange& query, const CostModel& model,
                         bool bounded) const;
  // The best healthy candidate for `query`: throws InvalidArgument when
  // no replica covers it and QueryFailedError when every covering one is
  // quarantined for it. No locking (callers hold state_mutex).
  RoutingDecision BestCandidate(const STRange& query,
                                const CostModel& model) const;
  // Builds the QueryFailedError for `query` from the current health map;
  // no locking (callers hold state_mutex).
  QueryFailedError UnservableError(const STRange& query) const;

  struct Attempt;  // one execution attempt's outcome
  // The attempt runner: scans the decision's replica under its own
  // shared lock; the only place that quarantines on a read fault and
  // that feeds the LatencyMap (time, partitions and the decision's
  // estimate of a complete scan).
  void RunAttempt(const STRange& query, const RoutingDecision& decision,
                  const ScanOptions& scan, Attempt& out);
  // The coordinator: routes, walks the plan under the policy (attempts,
  // hedge, deadline, allow_partial) inline or — when a hedge can fire —
  // on the attempt executor, finalizes the RoutedResult (attempt log and,
  // when `profiling`, stage profile) and schedules repair. Holds no lock
  // itself. Every piece of per-query state lives in its frame or in the
  // result it returns, so concurrent callers share only the internally
  // synchronized structures.
  RoutedResult Coordinate(const STRange& query, const CostModel& model,
                          const ExecOptions& exec, bool profiling);
  ThreadPool& AttemptExecutor();
  // Per-policy repair scheduling once a query's attempts are done.
  void MaybeScheduleRepairs(ThreadPool* pool, const FailoverPolicy& policy);

  // The one telemetry sink: feeds a finished query's record into the
  // query.*/failover.*/hedge.* metrics and the per-stage histograms.
  // Called once per query, registry enabled.
  void RecordQuery(const RoutedResult& routed);

  // Implementations that assume state_mutex is held unique. AdoptReplica
  // registers a built replica with the health and latency maps.
  std::size_t AdoptReplica(Replica replica);
  std::uint64_t RecoverReplicaFromLocked(std::size_t i, std::size_t source,
                                         ThreadPool* pool);
  std::uint64_t RecoverPartitionLocked(std::size_t target,
                                       std::size_t partition,
                                       std::optional<std::size_t> source,
                                       ThreadPool* pool);
  std::size_t RepairQuarantinedLocked(ThreadPool* pool);

  Dataset dataset_;
  STRange universe_;
  std::vector<Replica> replicas_;
  FailoverPolicy policy_;  // guarded by sync_->state_mutex
  std::unique_ptr<HealthMap> health_ = std::make_unique<HealthMap>();
  std::unique_ptr<LatencyMap> latency_ = std::make_unique<LatencyMap>();
  std::unique_ptr<SyncState> sync_ = std::make_unique<SyncState>();
};

}  // namespace blot

#endif  // BLOT_CORE_STORE_H_
