// Hedged reads and the latency signal behind them: LatencyMap warm-up,
// EWMA prediction and brownout penalties; the cost model's residual and
// its cost_drift.* alerts and gauges; the hedge race (backup fires on
// a slow primary, first complete answer wins, the loser is cancelled);
// winner/loser accounting in the attempt log; and the observed slowness
// feeding back into routing (docs/robustness.md).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "blot/encoding_scheme.h"
#include "common/fixtures.h"
#include "core/cost_model.h"
#include "core/fault_injection.h"
#include "core/latency_map.h"
#include "core/store.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "simenv/environment.h"
#include "util/error.h"
#include "util/thread_pool.h"

namespace blot {
namespace {

using test::Sorted;
using test::TaxiFixture;

CostModel Model() { return CostModel{EnvironmentModel::LocalHadoop()}; }

struct ScopedInjector {
  explicit ScopedInjector(const FaultPlan& plan) {
    FaultInjector::Global().Arm(plan);
  }
  ~ScopedInjector() { FaultInjector::Global().Disarm(); }
};

// Stalls every partition read of `replica` by `stall_ms`, on every read.
FaultPlan StallPlan(double stall_ms, const std::string& replica) {
  FaultPlan plan;
  plan.seed = 23;
  plan.probability = 1.0;
  plan.kinds = {FaultKind::kLatency};
  plan.max_fires_per_target = 0;
  plan.latency_ms = static_cast<std::uint32_t>(stall_ms);
  plan.replica = replica;
  return plan;
}

// Fails reads of every storage unit of `replica` with an attributed read
// error, `fires` times per unit (0 = until repaired).
FaultPlan ReadErrorPlan(const std::string& replica, std::uint32_t fires = 0) {
  FaultPlan plan;
  plan.seed = 29;
  plan.probability = 1.0;
  plan.kinds = {FaultKind::kReadError};
  plan.max_fires_per_target = fires;
  plan.replica = replica;
  return plan;
}

// The ids of this process's threads.
std::set<std::string> ThreadIds() {
  std::set<std::string> ids;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task"))
    ids.insert(entry.path().filename().string());
  return ids;
}

// A store with two near-peer replicas (same partitioning, sibling
// encodings), so a hedged backup attempt can genuinely win the race.
BlotStore MakeNearPeerStore(const Dataset& dataset, const STRange& universe) {
  BlotStore store(dataset, universe);
  store.AddReplica({{.spatial_partitions = 4, .temporal_partitions = 2},
                    EncodingScheme::FromName("ROW-SNAPPY")});
  store.AddReplica({{.spatial_partitions = 4, .temporal_partitions = 2,
                     .method = SpatialMethod::kGrid},
                    EncodingScheme::FromName("COL-SNAPPY")});
  return store;
}

// --- LatencyMap unit coverage ------------------------------------------

TEST(LatencyMapTest, ColdReplicaPredictsNothing) {
  LatencyMap map;
  map.AddReplica();
  EXPECT_EQ(map.NumReplicas(), 1u);
  EXPECT_DOUBLE_EQ(map.ExpectedMs(0, 8), 0.0);
  // Below the warm-up floor the EWMA stays out of decisions.
  for (std::uint64_t i = 0; i + 1 < LatencyMap::kMinObservations; ++i) {
    map.Observe(0, 1, 10.0, 10.0);
    EXPECT_DOUBLE_EQ(map.ExpectedMs(0, 8), 0.0);
  }
  map.Observe(0, 1, 10.0, 10.0);
  EXPECT_GT(map.ExpectedMs(0, 8), 0.0);
}

TEST(LatencyMapTest, EwmaPredictsPerPartitionRate) {
  LatencyMap map;
  map.AddReplica();
  // Steady 10ms-per-partition attempts: the EWMA converges to the rate
  // and ExpectedMs scales linearly with the partition count.
  for (int i = 0; i < 8; ++i) map.Observe(0, 4, 40.0, 40.0);
  EXPECT_NEAR(map.Get(0).ewma_ms_per_partition, 10.0, 1e-9);
  EXPECT_NEAR(map.ExpectedMs(0, 6), 60.0, 1e-9);
  // Zero-partition attempts still count as one partition: no division
  // by zero, no infinite rate.
  map.Observe(0, 0, 5.0, 5.0);
  EXPECT_GT(map.Get(0).ewma_ms_per_partition, 0.0);
}

TEST(LatencyMapTest, BrownoutPenaltySparesHonestDifferencesAndCaps) {
  LatencyMap map;
  for (int r = 0; r < 3; ++r) map.AddReplica();
  for (std::uint64_t i = 0; i < LatencyMap::kMinObservations; ++i) {
    map.Observe(0, 1, 10.0, 10.0);      // the fastest replica
    map.Observe(1, 1, 25.0, 25.0);      // 2.5x: an honest difference
    map.Observe(2, 1, 1000.0, 1000.0);  // 100x: a brownout
  }
  EXPECT_DOUBLE_EQ(map.BrownoutPenalty(0), 1.0);
  // Below kBrownoutRatio the penalty must not bias routing at all.
  EXPECT_DOUBLE_EQ(map.BrownoutPenalty(1), 1.0);
  // A genuine brownout is penalized but capped: never priced out of
  // serving as the last healthy copy.
  EXPECT_DOUBLE_EQ(map.BrownoutPenalty(2), LatencyMap::kMaxPenalty);
}

TEST(LatencyMapTest, ColdReplicasAreNeverPenalized) {
  LatencyMap map;
  map.AddReplica();
  map.AddReplica();
  for (std::uint64_t i = 0; i < LatencyMap::kMinObservations; ++i)
    map.Observe(0, 1, 1.0, 1.0);
  // Replica 1 has no observations: no penalty either way.
  EXPECT_DOUBLE_EQ(map.BrownoutPenalty(1), 1.0);
}

// --- The cost model's residual -------------------------------------------

std::size_t CountEvents(std::string_view category) {
  std::size_t n = 0;
  for (const obs::Event& e : obs::EventLog::Global().Recent(256))
    if (e.category == category) ++n;
  return n;
}

// The gauge's value, or nullopt when it was never registered.
std::optional<double> Gauge(std::string_view name, std::size_t replica) {
  const obs::Labels labels = {{"replica", std::to_string(replica)}};
  for (const obs::GaugeSnapshot& g :
       obs::MetricsRegistry::global().Snapshot().gauges)
    if (g.name == name && g.labels == labels) return g.value;
  return std::nullopt;
}

TEST(LatencyMapTest, ResidualIsMeasuredOverEstimatedPerReplica) {
  LatencyMap map;
  map.AddReplica();
  map.AddReplica();
  // The first observation seeds each replica's residual.
  map.Observe(0, 2, 2.0, 1.0);  // the model underestimates by half
  map.Observe(1, 2, 1.0, 2.0);  // the model overestimates 2x
  EXPECT_DOUBLE_EQ(map.Get(0).residual, 2.0);
  EXPECT_DOUBLE_EQ(map.Get(1).residual, 0.5);
  EXPECT_EQ(map.Get(0).residual_observations, 1u);
  EXPECT_EQ(map.Get(1).residual_observations, 1u);
  // A replica never fed has no residual.
  map.AddReplica();
  EXPECT_EQ(map.Get(2).residual_observations, 0u);
  EXPECT_DOUBLE_EQ(map.Get(2).residual, 0.0);
}

TEST(LatencyMapTest, ResidualForgetsOldObservations) {
  LatencyMap map;
  map.AddReplica();
  for (int i = 0; i < 8; ++i) map.Observe(0, 1, 3.0, 3.0);
  EXPECT_DOUBLE_EQ(map.Get(0).residual, 1.0);
  // The model turns 2x optimistic: the exact phase ages out.
  for (int i = 0; i < 40; ++i) map.Observe(0, 1, 6.0, 3.0);
  EXPECT_NEAR(map.Get(0).residual, 2.0, 1e-3);
  EXPECT_EQ(map.Get(0).residual_observations, 48u);
}

TEST(LatencyMapTest, ResidualSkipsNonPositiveEstimateOrTime) {
  LatencyMap map;
  map.AddReplica();
  map.Observe(0, 1, 5.0, 0.0);   // no estimate
  map.Observe(0, 1, 5.0, -1.0);  // nonsense estimate
  map.Observe(0, 1, 0.0, 3.0);   // no measurable time
  EXPECT_EQ(map.Get(0).residual_observations, 0u);
  EXPECT_DOUBLE_EQ(map.Get(0).residual, 0.0);
  // The per-partition EWMA keeps its own rule: only negative times skip.
  EXPECT_EQ(map.Get(0).observations, 3u);
  map.Observe(0, 1, -1.0, 3.0);
  EXPECT_EQ(map.Get(0).observations, 3u);
  map.Observe(0, 1, 3.0, 3.0);
  EXPECT_EQ(map.Get(0).residual_observations, 1u);
  EXPECT_DOUBLE_EQ(map.Get(0).residual, 1.0);
}

TEST(LatencyMapTest, DriftAlertsOnceAndClearsOnce) {
  obs::EventLog& log = obs::EventLog::Global();
  log.ResetForTest();
  log.set_enabled(true);
  LatencyMap map;
  map.AddReplica();
  // The model is 10x optimistic from the start, but a replica alerts
  // only once warmed up.
  for (std::uint64_t i = 0; i + 1 < LatencyMap::kMinObservations; ++i) {
    map.Observe(0, 1, 10.0, 1.0);
    EXPECT_FALSE(map.Get(0).drift_alerting);
  }
  EXPECT_EQ(CountEvents("cost_drift.alert"), 0u);
  map.Observe(0, 1, 10.0, 1.0);
  EXPECT_TRUE(map.Get(0).drift_alerting);
  // Staying wrong does not re-fire.
  for (int i = 0; i < 8; ++i) map.Observe(0, 1, 10.0, 1.0);
  EXPECT_EQ(CountEvents("cost_drift.alert"), 1u);
  EXPECT_EQ(CountEvents("cost_drift.clear"), 0u);

  // Exact predictions pull the error back under the band: one clear.
  int recovered_after = 0;
  while (map.Get(0).drift_alerting && recovered_after < 100) {
    map.Observe(0, 1, 1.0, 1.0);
    ++recovered_after;
  }
  EXPECT_FALSE(map.Get(0).drift_alerting);
  EXPECT_LE(std::abs(obs::SignedCostErrorPct(1.0, map.Get(0).residual)),
            LatencyMap::kDriftBandPct);
  for (int i = 0; i < 8; ++i) map.Observe(0, 1, 1.0, 1.0);
  EXPECT_EQ(CountEvents("cost_drift.alert"), 1u);
  EXPECT_EQ(CountEvents("cost_drift.clear"), 1u);
  log.set_enabled(false);
  log.ResetForTest();
}

TEST(LatencyMapTest, DriftGaugesFollowTheResidualWhileRegistryOn) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  registry.Reset();
  registry.set_enabled(true);
  LatencyMap map;
  for (int r = 0; r < 4; ++r) map.AddReplica();
  // Measured twice the estimate: the error is 50 %, as
  // obs::SignedCostErrorPct(1, 2) defines it.
  map.Observe(3, 1, 2.0, 1.0);
  EXPECT_DOUBLE_EQ(Gauge("cost_drift.error_pct", 3).value_or(-1.0), 50.0);
  EXPECT_DOUBLE_EQ(Gauge("cost_drift.alerting", 3).value_or(-1.0), 0.0);
  // Half the estimate: an overestimate reads as a positive error too.
  map.Observe(2, 1, 1.0, 2.0);
  EXPECT_DOUBLE_EQ(Gauge("cost_drift.error_pct", 2).value_or(-1.0), 100.0);
  for (std::uint64_t i = 1; i < LatencyMap::kMinObservations; ++i)
    map.Observe(3, 1, 2.0, 1.0);
  EXPECT_DOUBLE_EQ(Gauge("cost_drift.error_pct", 3).value_or(-1.0), 50.0);
  EXPECT_DOUBLE_EQ(Gauge("cost_drift.alerting", 3).value_or(-1.0), 1.0);
  // An unfed replica publishes nothing (Reset zeroes, never removes).
  EXPECT_DOUBLE_EQ(Gauge("cost_drift.error_pct", 0).value_or(0.0), 0.0);

  // With the registry off the residual still learns; the gauges hold.
  registry.set_enabled(false);
  for (int i = 0; i < 40; ++i) map.Observe(3, 1, 1.0, 1.0);
  EXPECT_FALSE(map.Get(3).drift_alerting);
  EXPECT_DOUBLE_EQ(Gauge("cost_drift.alerting", 3).value_or(-1.0), 1.0);
  registry.Reset();
}

// --- The hedge race ----------------------------------------------------

TEST(HedgingTest, SlowPrimaryTriggersBackupThatWins) {
  const TaxiFixture fixture;
  Dataset dataset = fixture.dataset;
  BlotStore store = MakeNearPeerStore(dataset, fixture.universe);
  const STRange query = fixture.universe;
  const std::vector<Record> expected =
      Sorted(store.Execute(query, Model()).result.records);

  // Stall only the replica routing prefers, so the backup runs clean
  // and must win the race.
  const std::size_t primary =
      store.RouteQueryDetailed(query, Model()).replica_index;
  const std::string primary_name = store.replica(primary).config().Name();
  const ScopedInjector injector(StallPlan(60.0, primary_name));

  BlotStore::ExecOptions exec;
  exec.hedge_ms = 10.0;
  const BlotStore::RoutedResult routed = store.Execute(query, Model(), exec);

  EXPECT_TRUE(routed.hedged);
  EXPECT_TRUE(routed.hedge_backup_won);
  EXPECT_NE(routed.replica_index, primary);
  EXPECT_EQ(Sorted(routed.result.records), expected);
  EXPECT_FALSE(routed.partial);

  // Winner/loser accounting: two attempts, the backup marked as the
  // serving one, the cancelled primary carrying its loss.
  EXPECT_EQ(routed.attempts, 2u);
  ASSERT_EQ(routed.attempt_log.size(), 2u);
  EXPECT_EQ(routed.attempt_log[0].replica_index, primary);
  EXPECT_FALSE(routed.attempt_log[0].success);
  EXPECT_FALSE(routed.attempt_log[0].fault.empty());
  EXPECT_TRUE(routed.attempt_log[1].success);
  EXPECT_EQ(routed.attempt_log[1].replica_index, routed.replica_index);
}

// Routing ranks only the winner before the first attempt; the hedge
// ranks the rest. The backup must be the full ranking's second, not the
// next replica in index order.
TEST(HedgingTest, BackupIsTheFullRankingsSecond) {
  const TaxiFixture fixture;
  BlotStore store =
      test::MakeStandardStore(fixture.dataset, fixture.universe, 3);
  const test::RankedQuery ranked =
      test::RunnersUpAgainstIndexOrder(store, Model());
  ASSERT_EQ(ranked.ranking.size(), 3u);
  const STRange& query = ranked.query;
  const std::vector<std::size_t>& ranking = ranked.ranking;
  const std::vector<Record> expected =
      Sorted(store.Execute(query, Model()).result.records);

  const ScopedInjector injector(
      StallPlan(60.0, store.replica(ranking[0]).config().Name()));
  BlotStore::ExecOptions exec;
  exec.hedge_ms = 10.0;
  const BlotStore::RoutedResult routed = store.Execute(query, Model(), exec);
  EXPECT_TRUE(routed.hedged);
  EXPECT_TRUE(routed.hedge_backup_won);
  EXPECT_EQ(routed.replica_index, ranking[1]);
  EXPECT_EQ(Sorted(routed.result.records), expected);
  ASSERT_EQ(routed.attempt_log.size(), 2u);
  EXPECT_EQ(routed.attempt_log[0].replica_index, ranking[0]);
  EXPECT_EQ(routed.attempt_log[1].replica_index, ranking[1]);
}

TEST(HedgingTest, HedgedResultsStayBitIdenticalWithoutFaults) {
  const TaxiFixture fixture;
  Dataset dataset = fixture.dataset;
  BlotStore store = MakeNearPeerStore(dataset, fixture.universe);

  // With no faults, hedging is pure mechanism: whether or not the backup
  // fires (or even wins a benign race), the records must be identical to
  // the unhedged answer. An absurdly low threshold makes the backup
  // launch on effectively every query.
  for (const double fraction : {0.2, 0.5, 0.9}) {
    const STRange query = test::CentroidQuery(fixture.universe, fraction);
    const std::vector<Record> expected =
        Sorted(store.Execute(query, Model()).result.records);
    BlotStore::ExecOptions exec;
    exec.hedge_ms = 0.001;
    const BlotStore::RoutedResult routed =
        store.Execute(query, Model(), exec);
    EXPECT_EQ(Sorted(routed.result.records), expected);
    EXPECT_FALSE(routed.partial);
  }
}

TEST(HedgingTest, SingleCandidateFallsBackToPlainExecution) {
  const TaxiFixture fixture;
  Dataset dataset = fixture.dataset;
  BlotStore store(dataset, fixture.universe);
  store.AddReplica({{.spatial_partitions = 4, .temporal_partitions = 2},
                    EncodingScheme::FromName("ROW-SNAPPY")});

  const STRange query = fixture.universe;
  BlotStore::ExecOptions exec;
  exec.hedge_ms = 0.001;
  // One covering replica: nothing to race, no hedge accounting.
  const BlotStore::RoutedResult routed = store.Execute(query, Model(), exec);
  EXPECT_FALSE(routed.hedged);
  EXPECT_FALSE(routed.hedge_backup_won);
  EXPECT_EQ(routed.attempts, 1u);
}

TEST(HedgingTest, ObservedStallsFeedBrownoutReroute) {
  const TaxiFixture fixture;
  Dataset dataset = fixture.dataset;
  BlotStore store = MakeNearPeerStore(dataset, fixture.universe);
  const STRange query = test::CentroidQuery(fixture.universe, 0.5);
  const std::vector<Record> expected =
      Sorted(store.Execute(query, Model()).result.records);

  const std::size_t primary =
      store.RouteQueryDetailed(query, Model()).replica_index;
  const std::string primary_name = store.replica(primary).config().Name();
  const ScopedInjector injector(StallPlan(30.0, primary_name));

  // Phase 1 — hedged: the stalled primary loses every race, and each
  // winning backup attempt teaches the latency map the *healthy* rate.
  // (The primary's EWMA is still cold, so the hedge threshold is the
  // caller's floor, not an average the stalls have already inflated.)
  BlotStore::ExecOptions exec;
  exec.hedge_ms = 8.0;
  for (std::uint64_t i = 0; i < LatencyMap::kMinObservations; ++i) {
    const BlotStore::RoutedResult routed = store.Execute(query, Model(), exec);
    EXPECT_TRUE(routed.hedge_backup_won);
    EXPECT_EQ(Sorted(routed.result.records), expected);
  }

  // Phase 2 — unhedged: the stalled primary now serves to completion
  // (slowly) and teaches the map its browned-out rate.
  for (std::uint64_t i = 0; i < LatencyMap::kMinObservations; ++i) {
    const BlotStore::RoutedResult routed = store.Execute(query, Model());
    EXPECT_EQ(Sorted(routed.result.records), expected);
  }

  // Both sides warmed: the slowness observed above must now reroute the
  // query away from the browned-out primary.
  EXPECT_GE(store.latency().Get(primary).observations,
            LatencyMap::kMinObservations);
  EXPECT_GT(store.latency().BrownoutPenalty(primary), 1.0);
  EXPECT_NE(store.RouteQueryDetailed(query, Model()).replica_index, primary);
}

// --- One attempt loop: hedged and unhedged queries count alike ---------

TEST(HedgingTest, ReadFaultOnPrimaryCountsLikeUnhedgedFailover) {
  const TaxiFixture fixture;
  BlotStore store =
      test::MakeStandardStore(fixture.dataset, fixture.universe, 3);
  const STRange query = test::CentroidQuery(fixture.universe, 0.3);
  const std::vector<Record> expected =
      Sorted(store.Execute(query, Model()).result.records);
  const std::size_t primary = store.RouteQuery(query, Model());
  const ScopedInjector injector(
      ReadErrorPlan(store.replica(primary).config().Name()));

  // A hedge that never fires: the primary faults, the query fails over.
  // The profile is filled while the metrics registry is on.
  BlotStore::ExecOptions exec;
  exec.hedge_ms = 1000.0;
  obs::MetricsRegistry::global().set_enabled(true);
  const BlotStore::RoutedResult routed = store.Execute(query, Model(), exec);
  obs::MetricsRegistry::global().set_enabled(false);
  EXPECT_EQ(Sorted(routed.result.records), expected);
  EXPECT_NE(routed.replica_index, primary);
  EXPECT_FALSE(routed.hedged);
  EXPECT_TRUE(routed.degraded);
  EXPECT_EQ(routed.attempts, 2u);
  ASSERT_EQ(routed.attempt_log.size(), 2u);
  EXPECT_EQ(routed.attempt_log[0].replica_index, primary);
  EXPECT_FALSE(routed.attempt_log[0].success);
  EXPECT_TRUE(routed.attempt_log[1].success);
}

TEST(HedgingTest, MaxAttemptsOneThrowsLikeUnhedged) {
  const TaxiFixture fixture;
  const STRange query = test::CentroidQuery(fixture.universe, 0.3);
  for (const double hedge_ms : {0.0, 1000.0, 0.001}) {
    // A fresh store per mode: a failed query leaves its quarantine behind.
    BlotStore store =
        test::MakeStandardStore(fixture.dataset, fixture.universe, 3);
    FailoverPolicy policy;
    policy.max_attempts = 1;
    store.SetFailoverPolicy(policy);
    const std::size_t primary = store.RouteQuery(query, Model());
    const ScopedInjector injector(
        ReadErrorPlan(store.replica(primary).config().Name()));
    BlotStore::ExecOptions exec;
    exec.hedge_ms = hedge_ms;
    EXPECT_THROW(store.Execute(query, Model(), exec), QueryFailedError)
        << "hedge_ms " << hedge_ms;
  }
}

// --- Bounded resources: no query creates a thread or parks a future ----

// Runs `queries` hedged queries, half with a threshold that never fires
// and half with one that always does, after a warm-up; `faults` (if any)
// is armed once the warm baseline is taken. Every thread seen meanwhile
// must have existed at the baseline or belong to the store's fixed
// attempt executor, and no background work may stay parked.
void ExpectNoThreadsPerQuery(BlotStore& store, std::size_t queries,
                             ThreadPool* pool,
                             const std::optional<FaultPlan>& faults) {
  obs::Gauge& inflight = obs::MetricsRegistry::global().GetGauge(
      "store.background_inflight");
  auto run = [&](std::size_t i) {
    BlotStore::ExecOptions exec;
    exec.pool = pool;
    exec.hedge_ms = i % 2 == 0 ? 1000.0 : 0.001;
    store.Execute(
        test::CentroidQuery(store.universe(), 0.05 * double(1 + i % 8)),
        Model(), exec);
  };
  for (std::size_t i = 0; i < 64; ++i) run(i);  // warm-up
  store.WaitForRepairs();
  const std::set<std::string> baseline = ThreadIds();
  std::set<std::string> seen = baseline;
  std::size_t peak = baseline.size();
  std::optional<ScopedInjector> injector;
  if (faults) injector.emplace(*faults);
  for (std::size_t i = 0; i < queries; ++i) {
    run(i);
    const std::set<std::string> now = ThreadIds();
    peak = std::max(peak, now.size());
    seen.insert(now.begin(), now.end());
  }
  EXPECT_LE(peak, baseline.size() + BlotStore::kAttemptThreads);
  EXPECT_LE(seen.size(), baseline.size() + BlotStore::kAttemptThreads);
  // Losers and repairs are reaped as they finish; none stays parked.
  store.WaitForRepairs();
  EXPECT_EQ(inflight.value(), 0.0);
}

// A small fleet keeps 10k queries cheap under sanitizers; what is
// measured is threads and background work, not scan volume.
TEST(HedgingResourcesTest, HedgedQueriesCreateNoThreads) {
  const TaxiFixture fixture(/*taxis=*/4, /*samples=*/100);
  BlotStore store = MakeNearPeerStore(fixture.dataset, fixture.universe);
  ExpectNoThreadsPerQuery(store, 10'000, nullptr, std::nullopt);
}

TEST(HedgingResourcesTest, BackgroundRepairsAreReapedUnderReadErrors) {
  const TaxiFixture fixture(/*taxis=*/4, /*samples=*/100);
  BlotStore store = MakeNearPeerStore(fixture.dataset, fixture.universe);
  FailoverPolicy policy;
  policy.repair = RepairMode::kBackground;
  store.SetFailoverPolicy(policy);
  ThreadPool pool(2, "hedging-test");
  // Each of the routed replica's storage units fails its first read:
  // queries fail over, and the quarantined units are repaired in the
  // background while hedged queries keep running.
  const std::size_t victim =
      store.RouteQuery(test::CentroidQuery(fixture.universe, 0.5), Model());
  ExpectNoThreadsPerQuery(
      store, 2'000, &pool,
      ReadErrorPlan(store.replica(victim).config().Name(), /*fires=*/1));
}

}  // namespace
}  // namespace blot
