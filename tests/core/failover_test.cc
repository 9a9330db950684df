// Fault-tolerant query execution end to end: health state machine,
// quarantine on read faults, failover to the next-cheapest replica,
// partition-granular self-healing repair, and the chaos-equivalence
// guarantee — faults in up to R-1 replicas' copies of any partition must
// never change a query's result (docs/robustness.md).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/fixtures.h"
#include "core/fault_injection.h"
#include "core/health.h"
#include "core/partition_cache.h"
#include "core/store.h"
#include "obs/metrics.h"
#include "util/error.h"
#include "util/rng.h"

namespace blot {
namespace {

using test::Sorted;

// --- HealthMap unit coverage -------------------------------------------

TEST(HealthMapTest, StateMachineTransitions) {
  HealthMap health;
  health.AddReplica(4);
  EXPECT_EQ(health.NumReplicas(), 1u);
  EXPECT_TRUE(health.AllOk(0));
  EXPECT_EQ(health.Get(0, 2), PartitionHealth::kOk);

  // A read fault quarantines; re-quarantine reports no change.
  EXPECT_TRUE(health.Quarantine(0, 1));
  EXPECT_EQ(health.Get(0, 1), PartitionHealth::kQuarantined);
  EXPECT_FALSE(health.AllOk(0));
  EXPECT_TRUE(health.Quarantine(0, 3));
  EXPECT_FALSE(health.Quarantine(0, 3));
  EXPECT_EQ(health.QuarantinedCount(), 2u);

  // Repair returns partitions to ok.
  health.MarkOk(0, 1);
  health.MarkOk(0, 3);
  EXPECT_TRUE(health.AllOk(0));
  EXPECT_EQ(health.QuarantinedCount(), 0u);
}

TEST(HealthMapTest, QueriesOverPartitionSets) {
  HealthMap health;
  health.AddReplica(8);
  health.AddReplica(4);
  health.Quarantine(0, 5);

  EXPECT_TRUE(health.AnyQuarantined(0, {1, 5}));
  EXPECT_FALSE(health.AnyQuarantined(0, {1, 2}));
  EXPECT_FALSE(health.AnyQuarantined(1, {0, 3}));

  const std::vector<HealthMap::Target> quarantined = health.Quarantined();
  ASSERT_EQ(quarantined.size(), 1u);
  EXPECT_EQ(quarantined[0].replica, 0u);
  EXPECT_EQ(quarantined[0].partition, 5u);

  const HealthMap::Counts counts = health.CountsFor(1);
  EXPECT_EQ(counts.ok, 4u);
  EXPECT_EQ(counts.quarantined, 0u);
  EXPECT_EQ(health.CountsFor(0).quarantined, 1u);
}

TEST(HealthMapTest, QuarantinedCountTracksEveryTransition) {
  // The lock-free total must equal the per-replica state counts after
  // any mix of transitions, including repeats and reset.
  HealthMap health;
  health.AddReplica(16);
  health.AddReplica(8);
  Rng rng(3);
  for (int step = 0; step < 2000; ++step) {
    const std::size_t r = rng.NextUint64(2);
    const std::size_t p = rng.NextUint64(r == 0 ? 16 : 8);
    switch (rng.NextUint64(5)) {
      case 0:
      case 1:
        health.Quarantine(r, p);
        break;
      case 2:
      case 3:
        health.MarkOk(r, p);
        break;
      default:
        if (step % 50 == 0) health.ResetReplica(r, r == 0 ? 16 : 8);
    }
    ASSERT_EQ(health.QuarantinedCount(), health.CountsFor(0).quarantined +
                                             health.CountsFor(1).quarantined)
        << "step " << step;
    ASSERT_EQ(health.AllOk(r), health.CountsFor(r).quarantined == 0)
        << "step " << step;
  }
}

TEST(HealthMapTest, ResetReplicaReturnsEverythingToOk) {
  HealthMap health;
  health.AddReplica(4);
  health.Quarantine(0, 0);
  health.Quarantine(0, 1);
  health.ResetReplica(0, 6);  // rebuild may change the partition count
  EXPECT_TRUE(health.AllOk(0));
  EXPECT_EQ(health.CountsFor(0).ok, 6u);
  EXPECT_EQ(health.QuarantinedCount(), 0u);
}

// --- Store-level failover, quarantine and repair -----------------------

struct FailoverTest : ::testing::Test, test::TaxiFixture {
  CostModel model{EnvironmentModel::LocalHadoop()};

  void TearDown() override {
    FaultInjector::Global().Disarm();
    PartitionCache::Global().Configure(0);
    obs::MetricsRegistry::global().set_enabled(false);
  }

  BlotStore MakeStore(std::size_t replicas = 2) {
    return test::MakeStandardStore(dataset, universe, replicas);
  }

  STRange CentroidQuery(double fraction) const {
    return test::CentroidQuery(universe, fraction);
  }

  std::vector<std::size_t> CorruptInvolved(BlotStore& store,
                                           std::size_t replica,
                                           const STRange& query) {
    return test::CorruptInvolved(store, replica, query);
  }
};

TEST_F(FailoverTest, FailoverServesIdenticalResultsAndQuarantines) {
  BlotStore store = MakeStore();
  FailoverPolicy policy;
  policy.repair = RepairMode::kNone;  // inspect the quarantine first
  store.SetFailoverPolicy(policy);

  const STRange query = CentroidQuery(0.3);
  const std::vector<Record> truth = dataset.FilterByRange(query);
  ASSERT_FALSE(truth.empty());

  const std::size_t victim = store.RouteQuery(query, model);
  const std::vector<std::size_t> corrupted =
      CorruptInvolved(store, victim, query);
  ASSERT_FALSE(corrupted.empty());

  const BlotStore::RoutedResult routed = store.Execute(query, model);
  EXPECT_EQ(Sorted(routed.result.records), Sorted(truth));
  EXPECT_NE(routed.replica_index, victim);
  EXPECT_TRUE(routed.degraded);
  EXPECT_GE(routed.attempts, 2u);
  EXPECT_EQ(routed.served_by,
            store.replica(routed.replica_index).config().Name());

  // Exactly the faulty storage units are quarantined.
  for (const std::size_t p : corrupted)
    EXPECT_EQ(store.health().Get(victim, p), PartitionHealth::kQuarantined);
  EXPECT_EQ(store.health().QuarantinedCount(), corrupted.size());

  // Routing now avoids the victim without touching it.
  EXPECT_NE(store.RouteQuery(query, model), victim);
}

TEST_F(FailoverTest, RepairQuarantinedRestoresDataAndHealth) {
  BlotStore store = MakeStore();
  FailoverPolicy policy;
  policy.repair = RepairMode::kNone;
  store.SetFailoverPolicy(policy);

  const STRange query = CentroidQuery(0.3);
  const std::size_t victim = store.RouteQuery(query, model);
  const std::vector<std::size_t> corrupted =
      CorruptInvolved(store, victim, query);
  store.Execute(query, model);  // quarantine via failover
  ASSERT_EQ(store.health().QuarantinedCount(), corrupted.size());

  const std::size_t repaired = store.RepairQuarantined();
  EXPECT_GE(repaired, 1u);
  EXPECT_EQ(store.health().QuarantinedCount(), 0u);
  EXPECT_TRUE(store.health().AllOk(victim));

  // The repaired replica holds the full logical view again and serves
  // the query first-choice, undegraded.
  EXPECT_EQ(Sorted(store.replica(victim).Reconstruct().records()),
            Sorted(dataset.records()));
  const BlotStore::RoutedResult routed = store.Execute(query, model);
  EXPECT_FALSE(routed.degraded);
  EXPECT_EQ(routed.attempts, 1u);
  EXPECT_EQ(Sorted(routed.result.records),
            Sorted(dataset.FilterByRange(query)));
}

TEST_F(FailoverTest, SyncRepairPolicySelfHealsWithinExecute) {
  BlotStore store = MakeStore();  // default policy: RepairMode::kSync
  const STRange query = CentroidQuery(0.25);
  const std::size_t victim = store.RouteQuery(query, model);
  CorruptInvolved(store, victim, query);

  const BlotStore::RoutedResult routed = store.Execute(query, model);
  EXPECT_EQ(Sorted(routed.result.records),
            Sorted(dataset.FilterByRange(query)));
  // The same Execute call already repaired what it quarantined.
  EXPECT_EQ(store.health().QuarantinedCount(), 0u);
  EXPECT_TRUE(store.health().AllOk(victim));
}

TEST_F(FailoverTest, LaterHealthyQueryRepairsEarlierQuarantine) {
  // The per-query repair check runs on every Execute, not only on the
  // query that hit the fault: a quarantine left by an earlier query is
  // repaired by the next Execute, here of a different, disjoint query.
  BlotStore store = MakeStore();
  FailoverPolicy policy;
  policy.repair = RepairMode::kNone;
  store.SetFailoverPolicy(policy);
  const STRange query = CentroidQuery(0.25);
  const std::size_t victim = store.RouteQuery(query, model);
  const std::vector<std::size_t> corrupted =
      CorruptInvolved(store, victim, query);
  store.Execute(query, model);
  ASSERT_EQ(store.health().QuarantinedCount(), corrupted.size());

  policy.repair = RepairMode::kSync;
  store.SetFailoverPolicy(policy);
  const STRange elsewhere = STRange::FromBounds(
      universe.x_min(), universe.x_min(), universe.y_min(),
      universe.y_min(), universe.t_min(), universe.t_min());
  ASSERT_FALSE(query.Intersects(elsewhere));
  store.Execute(elsewhere, model);
  EXPECT_EQ(store.health().QuarantinedCount(), 0u);
  EXPECT_TRUE(store.health().AllOk(victim));
}

TEST_F(FailoverTest, BackgroundRepairPolicyHealsAfterWait) {
  ThreadPool pool(2);
  BlotStore store = MakeStore();
  FailoverPolicy policy;
  policy.repair = RepairMode::kBackground;
  store.SetFailoverPolicy(policy);

  const STRange query = CentroidQuery(0.25);
  const std::size_t victim = store.RouteQuery(query, model);
  CorruptInvolved(store, victim, query);
  store.Execute(query, model, &pool);
  store.WaitForRepairs();
  // Single-threaded after Execute returned, so the background task could
  // not have lost the try_to_lock race.
  EXPECT_EQ(store.health().QuarantinedCount(), 0u);
  EXPECT_EQ(Sorted(store.replica(victim).Reconstruct().records()),
            Sorted(dataset.records()));
}

TEST_F(FailoverTest, TotalLossRaisesStructuredQueryFailedError) {
  BlotStore store = MakeStore();
  FailoverPolicy policy;
  policy.repair = RepairMode::kNone;
  store.SetFailoverPolicy(policy);

  const STRange query = CentroidQuery(0.2);
  // Destroy every replica's copy of the partitions the query needs.
  for (std::size_t r = 0; r < store.NumReplicas(); ++r)
    CorruptInvolved(store, r, query);

  try {
    store.Execute(query, model);
    FAIL() << "expected QueryFailedError";
  } catch (const QueryFailedError& e) {
    EXPECT_FALSE(e.lost().empty());
    EXPECT_NE(std::string(e.what()).find("partition"), std::string::npos);
  }
  // The failed attempts quarantined what they found; the store itself is
  // not poisoned — the error was per-query.
  EXPECT_GT(store.health().QuarantinedCount(), 0u);
}

TEST_F(FailoverTest, RecoveryRefreshesCacheIdentitySoStaleDecodesNeverServe) {
  PartitionCache::Global().Configure(64u << 20);
  BlotStore store = MakeStore();

  // Warm the cache with decodes of both replicas.
  const STRange query = CentroidQuery(0.4);
  store.Execute(query, model);
  store.Execute(universe, model);

  const std::uint64_t old_id = store.replica(1).cache_id();
  store.RecoverReplicaFrom(1, 0);
  EXPECT_NE(store.replica(1).cache_id(), old_id);

  // Partition-granular repair refreshes identity too.
  const std::uint64_t pre_repair_id = store.replica(1).cache_id();
  store.RecoverPartition(1, 0, 0);
  EXPECT_NE(store.replica(1).cache_id(), pre_repair_id);

  // Post-recovery queries are correct — cached pre-recovery decodes can
  // never satisfy them (fresh ids miss; stale entries are unreachable).
  const BlotStore::RoutedResult routed = store.Execute(query, model);
  EXPECT_EQ(Sorted(routed.result.records),
            Sorted(dataset.FilterByRange(query)));
}

TEST_F(FailoverTest, BatchSharedScanFallsBackAndStaysCorrect) {
  BlotStore store = MakeStore();
  std::vector<STRange> queries;
  Rng rng(11);
  for (int i = 0; i < 5; ++i)
    queries.push_back(SampleQueryInstance(
        {{universe.Width() * 0.1, universe.Height() * 0.1,
          universe.Duration() * 0.1}},
        universe, rng));
  queries.push_back(universe);

  // Corrupt one replica's copy of everything the universe query needs,
  // so at least its group's shared scan fails.
  const std::size_t victim = store.RouteQuery(universe, model);
  CorruptInvolved(store, victim, universe);

  const BlotStore::RoutedBatchResult batch =
      store.ExecuteBatch(queries, model);
  ASSERT_EQ(batch.per_query.size(), queries.size());
  for (std::size_t q = 0; q < queries.size(); ++q)
    EXPECT_EQ(Sorted(batch.per_query[q]),
              Sorted(dataset.FilterByRange(queries[q])))
        << "query " << q;
}

TEST_F(FailoverTest, BatchFaultQuarantinesOnlyTheFaultyPartition) {
  // The paper's grid statistics (Section III-C1) as one batch: a 3x3
  // grid of whole-month cells. A read fault in one storage unit must be
  // attributed to that unit alone (Section II-E), not to every partition
  // the failing group involves.
  BlotStore store = MakeStore();
  FailoverPolicy policy;
  policy.repair = RepairMode::kNone;  // inspect the quarantine
  store.SetFailoverPolicy(policy);
  std::vector<STRange> queries;
  for (int gx = 0; gx < 3; ++gx)
    for (int gy = 0; gy < 3; ++gy)
      queries.push_back(STRange::FromBounds(
          universe.x_min() + universe.Width() * gx / 3,
          universe.x_min() + universe.Width() * (gx + 1) / 3,
          universe.y_min() + universe.Height() * gy / 3,
          universe.y_min() + universe.Height() * (gy + 1) / 3,
          universe.t_min(), universe.t_max()));

  // Corrupt one partition the routed replica reads for the first cell.
  const std::size_t victim = store.RouteQuery(queries[0], model);
  std::size_t bad = store.replica(victim).NumPartitions();
  for (const std::size_t p :
       store.replica(victim).index().InvolvedPartitions(queries[0])) {
    if (store.replica(victim).partition(p).num_records > 0 &&
        !store.replica(victim).ZoneExcludes(p, queries[0])) {
      bad = p;
      break;
    }
  }
  ASSERT_LT(bad, store.replica(victim).NumPartitions());
  StoredPartition& unit = store.mutable_replica(victim).MutablePartition(bad);
  unit.data[unit.data.size() / 2] ^= 0xFF;

  for (int run = 0; run < 2; ++run) {
    const BlotStore::RoutedBatchResult batch =
        store.ExecuteBatch(queries, model);
    ASSERT_EQ(batch.per_query.size(), queries.size());
    for (std::size_t q = 0; q < queries.size(); ++q)
      EXPECT_EQ(Sorted(batch.per_query[q]),
                Sorted(dataset.FilterByRange(queries[q])))
          << "run " << run << " query " << q;
  }
  EXPECT_EQ(store.health().Get(victim, bad), PartitionHealth::kQuarantined);
  EXPECT_EQ(store.health().QuarantinedCount(), 1u);
  for (std::size_t r = 0; r < store.NumReplicas(); ++r) {
    const HealthMap::Counts counts = store.health().CountsFor(r);
    EXPECT_EQ(counts.quarantined, r == victim ? 1u : 0u) << "replica " << r;
    EXPECT_EQ(counts.ok + counts.quarantined,
              store.replica(r).NumPartitions());
  }
}

TEST_F(FailoverTest, MetricsAccountForEveryInjectedFault) {
  auto& registry = obs::MetricsRegistry::global();
  registry.Reset();
  registry.set_enabled(true);

  BlotStore store = MakeStore();
  const STRange query = CentroidQuery(0.3);
  const std::size_t victim = store.RouteQuery(query, model);

  FaultPlan plan;
  plan.seed = 77;
  plan.kinds = {FaultKind::kBitFlip};
  plan.replica = store.replica(victim).config().Name();
  plan.max_fires_per_target = 0;  // faulty until repaired
  FaultInjector::Global().Arm(plan);

  const BlotStore::RoutedResult routed = store.Execute(query, model);
  FaultInjector::Global().Disarm();
  EXPECT_EQ(Sorted(routed.result.records),
            Sorted(dataset.FilterByRange(query)));
  EXPECT_TRUE(routed.degraded);

  const FaultInjector::Stats injected = FaultInjector::Global().stats();
  ASSERT_GT(injected.fired_total, 0u);

  const obs::MetricsSnapshot snap = registry.Snapshot();
  const obs::CounterSnapshot* attempts =
      snap.FindCounter("failover.attempts_total");
  ASSERT_NE(attempts, nullptr);
  EXPECT_EQ(attempts->value, routed.attempts);
  const obs::CounterSnapshot* rerouted =
      snap.FindCounter("failover.queries_rerouted_total");
  ASSERT_NE(rerouted, nullptr);
  EXPECT_EQ(rerouted->value, 1u);
  // Every distinct faulty storage unit the query touched was quarantined
  // and then repaired (sync policy): the books must balance.
  const obs::CounterSnapshot* quarantined =
      snap.FindCounter("quarantine.partitions_total");
  ASSERT_NE(quarantined, nullptr);
  EXPECT_EQ(quarantined->value, injected.targets_hit);
  const obs::CounterSnapshot* repaired =
      snap.FindCounter("repair.partitions_total");
  const obs::CounterSnapshot* rebuilds =
      snap.FindCounter("repair.full_rebuilds_total");
  const std::uint64_t healed =
      (repaired != nullptr ? repaired->value : 0) +
      (rebuilds != nullptr ? rebuilds->value : 0);
  EXPECT_GE(healed, 1u);
  EXPECT_EQ(store.health().QuarantinedCount(), 0u);
}

// The acceptance bar: across a randomized campaign (seed overridable via
// BLOT_CHAOS_SEED for CI soaks), faults confined to one replica at a
// time — and, below, to R-1 replicas at once — never change any query's
// result and never surface an exception to the caller.
TEST_F(FailoverTest, ChaosCampaignPreservesResultEquivalence) {
  std::uint64_t seed = 20140714;  // ICDCS'14
  if (const char* env = std::getenv("BLOT_CHAOS_SEED"))
    seed = std::strtoull(env, nullptr, 10);

  BlotStore store = MakeStore(3);
  std::vector<STRange> queries;
  Rng rng(seed ^ 0x5EED);
  for (int i = 0; i < 4; ++i)
    queries.push_back(SampleQueryInstance(
        {{universe.Width() * 0.2, universe.Height() * 0.2,
          universe.Duration() * 0.2}},
        universe, rng));
  queries.push_back(universe);
  std::vector<std::vector<Record>> truth;
  for (const STRange& q : queries)
    truth.push_back(Sorted(dataset.FilterByRange(q)));

  for (std::size_t victim = 0; victim < store.NumReplicas(); ++victim) {
    FaultPlan plan;
    plan.seed = seed;
    plan.probability = 0.7;
    plan.kinds = {FaultKind::kBitFlip, FaultKind::kTruncate,
                  FaultKind::kTornRead, FaultKind::kReadError};
    plan.replica = store.replica(victim).config().Name();
    // Three rounds, each re-armed under its own seed.
    for (std::uint64_t round = 0; round < 3; ++round) {
      plan.seed = seed + round;
      FaultInjector::Global().Arm(plan);
      for (std::size_t q = 0; q < queries.size(); ++q) {
        const BlotStore::RoutedResult routed =
            store.Execute(queries[q], model);  // must not throw
        EXPECT_EQ(Sorted(routed.result.records), truth[q])
            << "victim " << victim << " round " << round << " query " << q;
      }
    }
    FaultInjector::Global().Disarm();
    // Sync repair healed everything the campaign broke.
    EXPECT_EQ(store.health().QuarantinedCount(), 0u) << "victim " << victim;
  }
}

// Routing prunes losing candidates, so only the winner is ranked before
// the first attempt; the rest are ranked when the first failover needs
// them. Failover must still walk the full ranking, not index order: a
// fault on the winner is served by the full ranking's second, and faults
// on the first two by its third.
TEST_F(FailoverTest, FailoverFollowsTheFullRanking) {
  const test::RankedQuery ranked =
      test::RunnersUpAgainstIndexOrder(MakeStore(3), model);
  ASSERT_EQ(ranked.ranking.size(), 3u);
  const STRange& query = ranked.query;
  const std::vector<std::size_t>& ranking = ranked.ranking;
  const std::vector<Record> truth = Sorted(dataset.FilterByRange(query));

  for (std::size_t faulty = 1; faulty <= 2; ++faulty) {
    SCOPED_TRACE("faulty replicas: " + std::to_string(faulty));
    BlotStore store = MakeStore(3);
    FailoverPolicy policy;
    policy.repair = RepairMode::kNone;
    store.SetFailoverPolicy(policy);
    ASSERT_EQ(store.RouteQuery(query, model), ranking[0]);
    for (std::size_t i = 0; i < faulty; ++i)
      ASSERT_FALSE(CorruptInvolved(store, ranking[i], query).empty());

    const BlotStore::RoutedResult routed = store.Execute(query, model);
    EXPECT_EQ(routed.replica_index, ranking[faulty]);
    EXPECT_EQ(Sorted(routed.result.records), truth);
    ASSERT_EQ(routed.attempt_log.size(), faulty + 1);
    for (std::size_t i = 0; i <= faulty; ++i) {
      EXPECT_EQ(routed.attempt_log[i].replica_index, ranking[i]);
      EXPECT_EQ(routed.attempt_log[i].success, i == faulty);
    }
  }
}

TEST_F(FailoverTest, SurvivesFaultsInAllButOneReplica) {
  BlotStore store = MakeStore(3);
  const STRange query = CentroidQuery(0.3);
  const std::vector<Record> truth = dataset.FilterByRange(query);

  // Destroy R-1 = 2 replicas' copies of everything the query needs; the
  // third replica must serve it byte-identically (replicas the router
  // never attempted may stay corrupt but untouched).
  const std::vector<std::size_t> corrupted0 =
      CorruptInvolved(store, 0, query);
  const std::vector<std::size_t> corrupted1 =
      CorruptInvolved(store, 1, query);
  const BlotStore::RoutedResult routed = store.Execute(query, model);
  EXPECT_EQ(routed.replica_index, 2u);
  EXPECT_EQ(Sorted(routed.result.records), Sorted(truth));

  // Explicit partition-granular repair brings both damaged replicas back
  // (sources with corrupt copies are quarantined and skipped; the clean
  // survivor supplies the payload).
  for (const std::size_t p : corrupted0) store.RecoverPartition(0, p);
  for (const std::size_t p : corrupted1) store.RecoverPartition(1, p);
  store.RepairQuarantined();  // sweep any quarantines repair uncovered
  EXPECT_EQ(store.health().QuarantinedCount(), 0u);
  EXPECT_EQ(Sorted(store.replica(0).Reconstruct().records()),
            Sorted(dataset.records()));
  EXPECT_EQ(Sorted(store.replica(1).Reconstruct().records()),
            Sorted(dataset.records()));
}

}  // namespace
}  // namespace blot
