#include "testing/differential.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <optional>
#include <ostream>
#include <set>
#include <sstream>
#include <utility>

#include "blot/batch.h"
#include "blot/layout.h"
#include "core/cost_model.h"
#include "core/partition_cache.h"
#include "core/store.h"
#include "obs/event_log.h"
#include "simenv/environment.h"
#include "testing/oracle.h"
#include "util/error.h"
#include "util/thread_pool.h"

namespace blot::testing {
namespace {

// Scoped override of the process-wide zone-map switch, exception-safe
// so a throwing check can't leak it into later iterations.
struct ZonePruneGuard {
  bool prev;
  explicit ZonePruneGuard(bool enabled) : prev(ZoneMapPruningEnabled()) {
    SetZoneMapPruning(enabled);
  }
  ~ZonePruneGuard() { SetZoneMapPruning(prev); }
};

std::uint64_t SplitMix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBull;
  x ^= x >> 31;
  return x;
}

// The partitioning pool iterations draw from. Spans coarse to fine and
// includes the grid ablation; fine specs over tiny datasets produce the
// empty partitions the codec edge cases care about.
const std::vector<PartitioningSpec>& PartitioningPool() {
  static const std::vector<PartitioningSpec> pool = {
      {.spatial_partitions = 1, .temporal_partitions = 1},
      {.spatial_partitions = 2, .temporal_partitions = 2},
      {.spatial_partitions = 4, .temporal_partitions = 4},
      {.spatial_partitions = 8, .temporal_partitions = 2},
      {.spatial_partitions = 3, .temporal_partitions = 5},
      {.spatial_partitions = 16, .temporal_partitions = 4},
      {.spatial_partitions = 4,
       .temporal_partitions = 2,
       .method = SpatialMethod::kGrid},
  };
  return pool;
}

// Restores process-global state the harness touches, exception-safe.
struct GlobalStateGuard {
  ~GlobalStateGuard() {
    FaultInjector::Global().Disarm();
    PartitionCache::Global().Configure(0);
  }
};

std::string FormatFaultSpec(const FaultPlan& plan) {
  std::ostringstream os;
  os << "p=" << plan.probability;
  os << ";kinds=";
  for (std::size_t i = 0; i < plan.kinds.size(); ++i)
    os << (i ? "," : "") << FaultKindName(plan.kinds[i]);
  os << ";fires=" << plan.max_fires_per_target;
  switch (plan.latency_dist) {
    case FaultPlan::LatencyDist::kFixed:
      os << ";latency=" << plan.latency_ms;
      break;
    case FaultPlan::LatencyDist::kPareto:
      os << ";latency=pareto:" << plan.latency_min << ":" << plan.latency_max;
      break;
    case FaultPlan::LatencyDist::kSpike:
      os << ";latency=spike:" << plan.latency_min << ":"
         << plan.spike_probability;
      break;
  }
  if (!plan.replica.empty()) os << ";replica=" << plan.replica;
  if (plan.partition.has_value()) os << ";partition=" << *plan.partition;
  return os.str();
}

// One iteration's fixed machinery.
struct Iteration {
  const DifferentialOptions& options;
  std::uint64_t seed;
  std::size_t index;
  DifferentialReport& report;
  std::ostream* log;

  Rng rng;
  STRange universe;
  Dataset dataset;
  Oracle oracle;
  std::vector<ReplicaConfig> configs;
  // Lazily created: only the parallel cells of the scan matrix pay for
  // it. Parallel checks run in clean mode only — fault fire budgets are
  // consumed in execution order, so a pooled scan would make injected
  // faults land nondeterministically.
  std::unique_ptr<ThreadPool> scan_pool;

  ThreadPool& ScanPool() {
    if (scan_pool == nullptr)
      scan_pool = std::make_unique<ThreadPool>(2, "diff-scan");
    return *scan_pool;
  }

  Iteration(const DifferentialOptions& opts, std::size_t i,
            DifferentialReport& rep, std::ostream* out)
      : options(opts),
        seed(IterationSeed(opts.seed, i)),
        index(i),
        report(rep),
        log(out),
        rng(seed),
        universe(DefaultTestUniverse()),
        dataset(GenerateDataset(rng, universe, opts.profile)),
        oracle(dataset) {
    // Seed-chosen replica set: encodings rotate from an rng start so any
    // long run covers all 7; partitionings draw from the pool.
    const std::vector<EncodingScheme> encodings = AllEncodingSchemes();
    const std::size_t enc_start = rng.NextUint64(encodings.size());
    const std::size_t part_start = rng.NextUint64(PartitioningPool().size());
    for (std::size_t j = 0; j < options.replicas_per_iteration; ++j) {
      ReplicaConfig config{
          PartitioningPool()[(part_start + j) % PartitioningPool().size()],
          encodings[(enc_start + j) % encodings.size()]};
      if (rng.NextBool(0.15))
        config.policy = EncodingPolicy::kBestCodecPerPartition;
      // The store rejects duplicate configs; the rotation above cannot
      // collide within one iteration (distinct partitionings per j).
      configs.push_back(config);
      report.encodings_covered.push_back(config.encoding.Name());
      report.partitionings_covered.push_back(config.partitioning.Name());
    }
  }

  void Fail(const std::string& check, const STRange& query,
            const std::string& detail) {
    Mismatch m;
    m.iteration_seed = seed;
    m.iteration = index;
    m.check = check;
    m.query = query.ToString();
    m.detail = detail;
    m.repro = ReproCommand(options, seed);
    if (log != nullptr)
      *log << "MISMATCH check=" << m.check << " iter=" << m.iteration
           << " seed=" << m.iteration_seed << " query=" << m.query << "\n  "
           << m.detail << "\n  repro: " << m.repro << std::endl;
    // Mirror the mismatch into the structured event log (when a sink is
    // open, e.g. blotfuzz --event-log) so soak post-mortems line up with
    // quarantine/failover/repair events on one timeline.
    auto& elog = obs::EventLog::Global();
    if (elog.enabled())
      elog.Emit(obs::EventSeverity::kError, "soak.mismatch",
                "differential check diverged from the oracle",
                {obs::Field("check", m.check),
                 obs::Field("round", m.iteration),
                 obs::Field("seed", m.iteration_seed),
                 obs::Field("query", m.query),
                 obs::Field("detail", m.detail),
                 obs::Field("repro", m.repro)});
    report.mismatches.push_back(std::move(m));
  }

  // Runs one comparison against the oracle; exceptions become mismatches.
  void Check(const std::string& name, const STRange& query,
             const std::vector<Record>& expected,
             const std::function<std::vector<Record>()>& path) {
    ++report.checks_run;
    try {
      const RecordDiff diff = DiffRecords(path(), expected);
      if (!diff.empty()) Fail(name, query, DescribeDiff(diff));
    } catch (const Error& e) {
      Fail(name, query, std::string("threw: ") + e.what());
    }
  }

  // The fault-mode contract: with failover on, a routed path under
  // unbounded injected faults must either match the oracle or fail with
  // the structured QueryFailedError (every copy of a needed partition
  // really can be lost when the plan targets all replicas). Anything
  // else — wrong records, or a leaked PartitionFaultError the store
  // should have converted — is a mismatch. With failover disabled every
  // failure is recorded: that is the reproducible injected mismatch the
  // harness's own detection machinery is validated by.
  void CheckUnderFaults(const std::string& name, const STRange& query,
                        const std::vector<Record>& expected,
                        const std::function<std::vector<Record>()>& path) {
    ++report.checks_run;
    try {
      const RecordDiff diff = DiffRecords(path(), expected);
      if (!diff.empty()) Fail(name, query, DescribeDiff(diff));
    } catch (const QueryFailedError& e) {
      if (!options.failover_enabled)
        Fail(name, query, std::string("threw: ") + e.what());
    } catch (const Error& e) {
      Fail(name, query, std::string("threw: ") + e.what());
    }
  }

  void Run() {
    const std::vector<STRange> queries = GenerateQueries(
        rng, options.queries_per_iteration, universe, dataset);
    report.queries_checked += queries.size();

    BlotStore store(dataset, universe);
    FailoverPolicy policy;
    if (!options.failover_enabled) {
      policy.max_attempts = 1;
      policy.repair = RepairMode::kNone;
    }
    store.SetFailoverPolicy(policy);
    for (const ReplicaConfig& config : configs) store.AddReplica(config);
    const CostModel model{EnvironmentModel::LocalHadoop()};

    const bool faults = options.fault_plan.has_value();
    if (faults) {
      FaultPlan plan = *options.fault_plan;
      plan.seed = SplitMix64(seed ^ 0xFA171A5ull);
      FaultInjector::Global().Arm(plan);
    }

    for (const STRange& query : queries) {
      const std::vector<Record> expected = oracle.RangeQuery(query);
      if (faults) {
        // Store-level only: direct replica paths have no failover and
        // would (correctly) throw on every injected fault.
        CheckUnderFaults("store-routed", query, expected, [&] {
          return store.Execute(query, model).result.records;
        });
        // Same routed path with zone-map pruning off: pruning changes
        // which partition reads happen (a zone-skipped partition is
        // never read, so its fault never fires), and quarantine/failover
        // must stay correct in both worlds.
        CheckUnderFaults("store-routed-unpruned", query, expected, [&] {
          ZonePruneGuard prune_guard(false);
          return store.Execute(query, model).result.records;
        });
        // Hedged leg: a stalled primary races a backup attempt; whichever
        // wins, the answer must stay bit-identical to the oracle. The
        // race makes the budget-consumption order between the two
        // attempts scheduling-dependent, but the contract checked here —
        // oracle match or structured QueryFailedError — holds for every
        // interleaving.
        if (options.hedge_ms > 0.0 && configs.size() >= 2) {
          CheckUnderFaults("store-routed-hedged", query, expected, [&] {
            BlotStore::ExecOptions exec;
            exec.hedge_ms = options.hedge_ms;
            return store.Execute(query, model, exec).result.records;
          });
        }
        if (options.deadline_ms > 0.0)
          CheckDeadlinePartial(store, model, query, expected);
        continue;
      }
      CheckReplicaPaths(store, query, expected);
      Check("store-routed", query, expected, [&] {
        return store.Execute(query, model).result.records;
      });
      if (options.check_metamorphic) {
        CheckSplitUnion(store.replica(rng.NextUint64(configs.size())), query);
        CheckCostModel(store, model, query);
      }
    }

    CheckBatch(store, model, queries);
    if (!faults && options.check_failover && configs.size() >= 2)
      CheckFailover(store, model, queries);
    if (faults) FaultInjector::Global().Disarm();
  }

  // Deadline leg: execute with options.deadline_ms and allow_partial. A
  // full answer must match the oracle exactly; a partial answer must
  // match the oracle restricted to the served partitions. The restricted
  // expectation is computed by clean-decoding exactly those partitions of
  // the serving replica under FaultInjector::Suspend — a served partition
  // contributes all of its matching records or none (blot/replica.h), so
  // the expected multiset is exact, and suspension leaves the campaign's
  // fire budgets and read sequences untouched for later checks.
  void CheckDeadlinePartial(BlotStore& store, const CostModel& model,
                            const STRange& query,
                            const std::vector<Record>& expected) {
    ++report.checks_run;
    const std::string name = "store-routed-deadline";
    try {
      BlotStore::ExecOptions exec;
      exec.deadline_ms = options.deadline_ms;
      exec.allow_partial = true;
      const BlotStore::RoutedResult routed = store.Execute(query, model, exec);
      if (!routed.partial) {
        const RecordDiff diff = DiffRecords(routed.result.records, expected);
        if (!diff.empty()) Fail(name, query, DescribeDiff(diff));
        return;
      }
      // Coverage sanity before the record diff: a partial answer must
      // actually miss something, and no partition may be reported on both
      // sides of the split.
      if (routed.result.missed_partitions.empty()) {
        Fail(name, query, "partial result with an empty missed set");
        return;
      }
      const std::set<std::size_t> served(
          routed.result.served_partitions.begin(),
          routed.result.served_partitions.end());
      for (const std::size_t p : routed.result.missed_partitions) {
        if (served.count(p) != 0) {
          Fail(name, query, "partition " + std::to_string(p) +
                                " reported both served and missed");
          return;
        }
      }
      FaultInjector::Suspend suspend(FaultInjector::Global());
      const Replica& replica = store.replica(routed.replica_index);
      std::vector<Record> expected_served;
      for (const std::size_t p : served)
        for (const Record& rec : replica.DecodePartitionRecords(p))
          if (query.Contains(rec.Position())) expected_served.push_back(rec);
      const RecordDiff diff =
          DiffRecords(routed.result.records, expected_served);
      if (!diff.empty())
        Fail(name, query,
             "partial coverage (" + std::to_string(served.size()) + " of " +
                 std::to_string(served.size() +
                                routed.result.missed_partitions.size()) +
                 " partitions) diverges from the oracle on the served set: " +
                 DescribeDiff(diff));
    } catch (const DeadlineExceededError& e) {
      // allow_partial was set: expiry must degrade, never throw.
      Fail(name, query,
           std::string("threw despite allow_partial: ") + e.what());
    } catch (const QueryFailedError& e) {
      if (!options.failover_enabled)
        Fail(name, query, std::string("threw: ") + e.what());
    } catch (const Error& e) {
      Fail(name, query, std::string("threw: ") + e.what());
    }
  }

  void CheckReplicaPaths(const BlotStore& store, const STRange& query,
                         const std::vector<Record>& expected) {
    // per_replica[r] stays aligned with configs[r]; an entry whose
    // Execute threw remains unset and is skipped by the pair check.
    std::vector<std::optional<std::vector<Record>>> per_replica(
        configs.size());
    for (std::size_t r = 0; r < configs.size(); ++r) {
      const Replica& replica = store.replica(r);
      std::string tag = "[";
      tag += configs[r].Name();
      tag += ']';

      // Fused decode-filter scan (the cache-off default inside Execute).
      Check("replica-execute" + tag, query, expected, [&] {
        std::vector<Record> records = replica.Execute(query).records;
        per_replica[r] = records;
        return records;
      });

      // Naive path: full decode of EVERY partition plus a filter — also
      // cross-checks the partition index (a partition the index failed to
      // report would still contribute here).
      Check("replica-naive-scan" + tag, query, expected, [&] {
        std::vector<Record> records;
        for (std::size_t p = 0; p < replica.NumPartitions(); ++p)
          for (const Record& rec : replica.DecodePartitionRecords(p))
            if (query.Contains(rec.Position())) records.push_back(rec);
        return records;
      });

      // Cache-cold then cache-warm execution through the decoded-
      // partition cache.
      if (options.cache_budget_bytes > 0) {
        PartitionCache::Global().Configure(options.cache_budget_bytes);
        Check("replica-cache-cold" + tag, query, expected,
              [&] { return replica.Execute(query).records; });
        Check("replica-cache-warm" + tag, query, expected,
              [&] { return replica.Execute(query).records; });
        PartitionCache::Global().Configure(0);
      }

      // Scan matrix: {pruned, unpruned} x {serial, parallel} must all
      // return the oracle's records. The pruned/serial cell is
      // replica-execute above.
      for (const bool pruned : {true, false}) {
        for (const bool parallel : {false, true}) {
          if (pruned && !parallel) continue;
          const std::string name = std::string("replica-scan[") +
                                   (pruned ? "pruned" : "unpruned") +
                                   (parallel ? ";parallel" : ";serial") +
                                   "]" + tag;
          Check(name, query, expected, [&] {
            ZonePruneGuard prune_guard(pruned);
            return replica.Execute(query, parallel ? &ScanPool() : nullptr)
                .records;
          });
        }
      }
    }
    // Metamorphic replica-pair equivalence. Redundant given the oracle
    // checks above, but it localizes a failure to "replicas disagree"
    // even when the oracle itself is the buggy party.
    ++report.checks_run;
    std::size_t base = per_replica.size();
    for (std::size_t r = 0; r < per_replica.size(); ++r) {
      if (!per_replica[r].has_value()) continue;  // its Execute threw
      if (base == per_replica.size()) {
        base = r;
        continue;
      }
      const RecordDiff diff = DiffRecords(*per_replica[r], *per_replica[base]);
      if (!diff.empty())
        Fail("replica-pair[" + configs[base].Name() + " vs " +
                 configs[r].Name() + "]",
             query, DescribeDiff(diff));
    }
  }

  // Metamorphic: result(whole) == result(left) ⊎ result(right) when the
  // query splits along an axis into disjoint closed halves.
  void CheckSplitUnion(const Replica& replica, const STRange& query) {
    if (query.empty()) return;
    double lo = 0, hi = 0;
    int axis = -1;
    if (query.Width() > 0) {
      axis = 0, lo = query.x_min(), hi = query.x_max();
    } else if (query.Height() > 0) {
      axis = 1, lo = query.y_min(), hi = query.y_max();
    } else if (query.Duration() > 0) {
      axis = 2, lo = query.t_min(), hi = query.t_max();
    }
    if (axis < 0) return;  // point query: nothing to split
    const double mid = rng.NextDouble(lo, hi);
    const double after = std::nextafter(mid, hi);
    const auto sub = [&](double a, double b) {
      switch (axis) {
        case 0:
          return STRange::FromBounds(a, b, query.y_min(), query.y_max(),
                                     query.t_min(), query.t_max());
        case 1:
          return STRange::FromBounds(query.x_min(), query.x_max(), a, b,
                                     query.t_min(), query.t_max());
        default:
          return STRange::FromBounds(query.x_min(), query.x_max(),
                                     query.y_min(), query.y_max(), a, b);
      }
    };
    ++report.checks_run;
    try {
      std::vector<Record> whole = replica.Execute(query).records;
      std::vector<Record> combined = replica.Execute(sub(lo, mid)).records;
      const std::vector<Record> right =
          replica.Execute(sub(after, hi)).records;
      combined.insert(combined.end(), right.begin(), right.end());
      const RecordDiff diff = DiffRecords(std::move(combined),
                                          std::move(whole));
      if (!diff.empty())
        Fail("metamorphic-split-union[" + replica.config().Name() + "]",
             query, DescribeDiff(diff));
    } catch (const Error& e) {
      Fail("metamorphic-split-union[" + replica.config().Name() + "]", query,
           std::string("threw: ") + e.what());
    }
  }

  void CheckCostModel(const BlotStore& store, const CostModel& model,
                      const STRange& query) {
    ++report.checks_run;
    try {
      for (std::size_t r = 0; r < configs.size(); ++r) {
        const ReplicaSketch& sketch = store.replica(r).sketch();
        const double cost = model.QueryCostMs(sketch, query);
        if (!(std::isfinite(cost) && cost >= 0.0)) {
          Fail("cost-nonnegative[" + configs[r].Name() + "]", query,
               "Cost(q, r) = " + std::to_string(cost));
          continue;
        }
        // Monotonicity: a superset query involves a superset of
        // partitions, so its Eq. 7 estimate cannot be smaller.
        const STRange grown = query.Expanded(rng.NextDouble(0.0, 4.0),
                                             rng.NextDouble(0.0, 4.0),
                                             rng.NextDouble(0.0, 64.0));
        const double grown_cost = model.QueryCostMs(sketch, grown);
        if (grown_cost + 1e-9 < cost)
          Fail("cost-monotone[" + configs[r].Name() + "]", query,
               "Cost grew " + std::to_string(cost) + " -> " +
                   std::to_string(grown_cost) + " when the query expanded");
        // Grouped form: non-negative and monotone in range volume.
        const GroupedQuery grouped{query.Size()};
        const GroupedQuery larger{{query.Size().w * 1.5 + 1e-6,
                                   query.Size().h * 1.5 + 1e-6,
                                   query.Size().t * 1.5 + 1e-6}};
        const double g = model.QueryCostMs(sketch, grouped);
        const double g_larger = model.QueryCostMs(sketch, larger);
        if (!(std::isfinite(g) && g >= 0.0) || g_larger + 1e-9 < g)
          Fail("cost-grouped-monotone[" + configs[r].Name() + "]", query,
               "grouped " + std::to_string(g) + " -> " +
                   std::to_string(g_larger));
      }
    } catch (const Error& e) {
      Fail("cost-model", query, std::string("threw: ") + e.what());
    }
  }

  void CheckBatch(BlotStore& store, const CostModel& model,
                  const std::vector<STRange>& queries) {
    if (options.fault_plan.has_value()) {
      // Store-level batch under faults: the shared scan's per-query
      // fallback must keep every answer correct when failover is on.
      ++report.checks_run;
      try {
        const BlotStore::RoutedBatchResult batch =
            store.ExecuteBatch(queries, model);
        for (std::size_t q = 0; q < queries.size(); ++q) {
          const RecordDiff diff = DiffRecords(
              batch.per_query[q], oracle.RangeQuery(queries[q]));
          if (!diff.empty())
            Fail("store-batch", queries[q], DescribeDiff(diff));
        }
      } catch (const QueryFailedError& e) {
        if (!options.failover_enabled)
          Fail("store-batch", queries.empty() ? STRange() : queries[0],
               std::string("threw: ") + e.what());
      } catch (const Error& e) {
        Fail("store-batch", queries.empty() ? STRange() : queries[0],
             std::string("threw: ") + e.what());
      }
      return;
    }
    // Single-replica shared scan vs one-at-a-time.
    for (std::size_t r = 0; r < configs.size(); ++r) {
      ++report.checks_run;
      try {
        const BatchResult batch = ExecuteBatch(store.replica(r), queries);
        for (std::size_t q = 0; q < queries.size(); ++q) {
          const RecordDiff diff = DiffRecords(
              batch.per_query[q], oracle.RangeQuery(queries[q]));
          if (!diff.empty())
            Fail("replica-batch[" + configs[r].Name() + "]", queries[q],
                 DescribeDiff(diff));
        }
      } catch (const Error& e) {
        Fail("replica-batch[" + configs[r].Name() + "]",
             queries.empty() ? STRange() : queries[0],
             std::string("threw: ") + e.what());
      }
    }
    ++report.checks_run;
    try {
      const BlotStore::RoutedBatchResult batch =
          store.ExecuteBatch(queries, model);
      for (std::size_t q = 0; q < queries.size(); ++q) {
        const RecordDiff diff =
            DiffRecords(batch.per_query[q], oracle.RangeQuery(queries[q]));
        if (!diff.empty()) Fail("store-batch", queries[q], DescribeDiff(diff));
      }
    } catch (const Error& e) {
      Fail("store-batch", queries.empty() ? STRange() : queries[0],
           std::string("threw: ") + e.what());
    }
  }

  // Corrupts every involved partition of the replica routing would pick,
  // then checks the degraded (failover) execution and, after sync repair,
  // the self-healed store against the oracle.
  void CheckFailover(BlotStore& store, const CostModel& model,
                     const std::vector<STRange>& queries) {
    // Prefer a query that actually involves data.
    STRange query = queries[rng.NextUint64(queries.size())];
    for (const STRange& q : queries)
      if (!q.empty() && oracle.Count(q) > 0) {
        query = q;
        break;
      }
    if (query.empty()) return;
    const std::vector<Record> expected = oracle.RangeQuery(query);
    try {
      const std::size_t victim = store.RouteQueryDetailed(query, model)
                                     .replica_index;
      bool corrupted_any = false;
      for (const std::size_t p :
           store.replica(victim).index().InvolvedPartitions(query)) {
        // Only corrupt partitions the scan will actually read: a
        // partition whose stored zone misses the query is zone-skipped
        // before its bytes are touched, so corrupting (and counting) it
        // would let the victim serve the query non-degraded.
        const StoredPartition& stored = store.replica(victim).partition(p);
        if (stored.has_zone && !query.Intersects(stored.zone)) continue;
        StoredPartition& unit =
            store.mutable_replica(victim).MutablePartition(p);
        if (unit.data.empty()) continue;
        unit.data[unit.data.size() / 2] ^= 0xFF;
        corrupted_any = true;
      }
      if (!corrupted_any) return;
      Check("store-failover-degraded", query, expected, [&] {
        const BlotStore::RoutedResult routed = store.Execute(query, model);
        if (!routed.degraded && routed.replica_index == victim)
          throw InternalError(
              "failover check: corrupted replica served the query");
        return routed.result.records;
      });
      // Default policy repairs synchronously; the healed store must agree
      // with the oracle again (and with its own pre-corruption answer).
      store.RepairQuarantined();
      Check("store-self-healed", query, expected,
            [&] { return store.Execute(query, model).result.records; });
    } catch (const Error& e) {
      Fail("store-failover-degraded", query,
           std::string("threw: ") + e.what());
    }
  }
};

}  // namespace

std::uint64_t IterationSeed(std::uint64_t seed, std::size_t iteration) {
  if (iteration == 0) return seed;
  return SplitMix64(seed + 0x9E3779B97F4A7C15ull * iteration);
}

std::string ReproCommand(const DifferentialOptions& options,
                         std::uint64_t iteration_seed) {
  std::ostringstream os;
  os << "blotfuzz --seed=" << iteration_seed << " --rounds=1"
     << " --queries=" << options.queries_per_iteration
     << " --replicas=" << options.replicas_per_iteration
     << " --cache-bytes=" << options.cache_budget_bytes
     << " --max-records=" << options.profile.max_records;
  if (options.fault_plan.has_value())
    os << " --inject-faults='" << FormatFaultSpec(*options.fault_plan) << "'";
  if (!options.failover_enabled) os << " --no-repair";
  if (options.hedge_ms > 0.0) os << " --hedge-ms=" << options.hedge_ms;
  if (options.deadline_ms > 0.0)
    os << " --deadline-ms=" << options.deadline_ms;
  return os.str();
}

DifferentialReport RunDifferential(const DifferentialOptions& options,
                                   std::ostream* log) {
  require(options.replicas_per_iteration >= 1,
          "RunDifferential: need at least one replica per iteration");
  require(options.replicas_per_iteration <= PartitioningPool().size(),
          "RunDifferential: replicas_per_iteration exceeds the "
          "partitioning pool");
  require(options.profile.min_records >= 1,
          "RunDifferential: BlotStore requires a non-empty dataset");
  GlobalStateGuard guard;
  // The harness owns the cache state for the duration of the run.
  PartitionCache::Global().Configure(0);
  PartitionCache::Global().Clear();

  DifferentialReport report;
  for (std::size_t i = 0; i < options.iterations; ++i) {
    Iteration iteration(options, i, report, log);
    iteration.Run();
    ++report.iterations;
    if (log != nullptr && (i + 1) % 50 == 0)
      *log << "differential: " << (i + 1) << "/" << options.iterations
           << " iterations, " << report.checks_run << " checks, "
           << report.mismatches.size() << " mismatches" << std::endl;
  }
  const auto dedupe_sort = [](std::vector<std::string>& names) {
    std::sort(names.begin(), names.end());
    names.erase(std::unique(names.begin(), names.end()), names.end());
  };
  dedupe_sort(report.encodings_covered);
  dedupe_sort(report.partitionings_covered);
  return report;
}

}  // namespace blot::testing
