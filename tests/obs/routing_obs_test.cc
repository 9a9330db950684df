// End-to-end observability of query routing: BlotStore::Execute must
// report the chosen replica, the cost model's estimate and the measured
// wall clock — in the RoutedResult, and once per query in the global
// metrics registry.
#include <gtest/gtest.h>

#include <cmath>
#include <future>
#include <string>
#include <vector>

#include "core/fault_injection.h"
#include "core/store.h"
#include "gen/taxi_generator.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "serve/server.h"

namespace blot {
namespace {

struct RoutingObsTest : ::testing::Test {
  Dataset dataset;
  STRange universe;
  CostModel model{EnvironmentModel::AmazonS3Emr()};

  RoutingObsTest() {
    TaxiFleetConfig config;
    config.num_taxis = 8;
    config.samples_per_taxi = 200;
    dataset = GenerateTaxiFleet(config);
    universe = config.Universe();
  }

  void SetUp() override {
    obs::MetricsRegistry::global().Reset();
    obs::MetricsRegistry::global().set_enabled(true);
  }
  void TearDown() override {
    obs::MetricsRegistry::global().set_enabled(false);
  }

  BlotStore MakeStore() {
    BlotStore store(Dataset(dataset), universe);
    store.AddReplica({{.spatial_partitions = 2, .temporal_partitions = 2},
                      EncodingScheme::FromName("ROW-SNAPPY")});
    store.AddReplica({{.spatial_partitions = 16, .temporal_partitions = 8},
                      EncodingScheme::FromName("COL-GZIP")});
    return store;
  }
};

TEST_F(RoutingObsTest, TracedQueryRecordsEstimatedAndMeasuredCost) {
  BlotStore store = MakeStore();
  const STRange query = STRange::FromBounds(
      universe.x_min(), universe.x_min() + universe.Width() / 8,
      universe.y_min(), universe.y_min() + universe.Height() / 8,
      universe.t_min(), universe.t_min() + universe.Duration() / 8);

  const auto routed = store.Execute(query, model);

  // The result itself carries both sides of the comparison.
  EXPECT_GT(routed.estimated_cost_ms, 0.0);
  EXPECT_GT(routed.measured_cost_ms, 0.0);
  EXPECT_LT(routed.replica_index, store.NumReplicas());
  EXPECT_GT(routed.predicted_partitions, 0u);
  EXPECT_GT(routed.result.stats.partitions_scanned, 0u);

  // The serving replica, its one attempt and the execute stage agree.
  EXPECT_EQ(routed.served_by,
            store.replica(routed.replica_index).config().Name());
  ASSERT_EQ(routed.attempt_log.size(), 1u);
  EXPECT_TRUE(routed.attempt_log[0].success);
  EXPECT_EQ(routed.attempt_log[0].replica, routed.served_by);
  EXPECT_DOUBLE_EQ(routed.attempt_log[0].ms, routed.measured_cost_ms);
  EXPECT_DOUBLE_EQ(routed.profile.stage(obs::Stage::kExecute),
                   routed.measured_cost_ms);

  // And the registry aggregated the same facts.
  const obs::MetricsSnapshot snap =
      obs::MetricsRegistry::global().Snapshot();
  const obs::CounterSnapshot* total =
      snap.FindCounter("query.routed_total");
  ASSERT_NE(total, nullptr);
  EXPECT_EQ(total->value, 1u);
  const std::string chosen =
      store.replica(routed.replica_index).config().Name();
  const obs::CounterSnapshot* per_replica =
      snap.FindCounter("query.routed_total", {{"replica", chosen}});
  ASSERT_NE(per_replica, nullptr);
  EXPECT_EQ(per_replica->value, 1u);

  const obs::HistogramSnapshot* estimated =
      snap.FindHistogram("query.estimated_cost_ms");
  ASSERT_NE(estimated, nullptr);
  EXPECT_EQ(estimated->count, 1u);
  EXPECT_NEAR(estimated->sum, routed.estimated_cost_ms, 1e-9);

  const obs::HistogramSnapshot* measured =
      snap.FindHistogram("query.measured_ms");
  ASSERT_NE(measured, nullptr);
  EXPECT_EQ(measured->count, 1u);
  EXPECT_NEAR(measured->sum, routed.measured_cost_ms, 1e-9);

  const obs::HistogramSnapshot* error =
      snap.FindHistogram("query.cost_error_pct");
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->count, 1u);
  // The histogram records the error of the query's own costs.
  EXPECT_DOUBLE_EQ(error->sum, std::abs(obs::SignedCostErrorPct(
                                   routed.estimated_cost_ms,
                                   routed.measured_cost_ms)));
}

TEST_F(RoutingObsTest, UntracedQueryStillRoutesAndMeasures) {
  BlotStore store = MakeStore();
  const auto routed = store.Execute(universe, model);
  EXPECT_GT(routed.estimated_cost_ms, 0.0);
  EXPECT_GT(routed.measured_cost_ms, 0.0);
  EXPECT_GT(routed.result.stats.partitions_scanned, 0u);
}

TEST_F(RoutingObsTest, DisabledRegistryRecordsNothing) {
  obs::MetricsRegistry::global().set_enabled(false);
  BlotStore store = MakeStore();
  (void)store.Execute(universe, model);
  const obs::MetricsSnapshot snap =
      obs::MetricsRegistry::global().Snapshot();
  const obs::CounterSnapshot* total =
      snap.FindCounter("query.routed_total");
  // Either never registered, or registered by another test but not
  // incremented by this query.
  if (total != nullptr) {
    EXPECT_EQ(total->value, 0u);
  }
}

// Only complete attempts feed the cost model's residual: a partial
// answer's time measures the deadline, not the replica, so it must leave
// the replica's cost_drift.error_pct where the complete attempts put it.
TEST_F(RoutingObsTest, PartialAnswersLeaveCostDriftWhereCompleteOnesPutIt) {
  BlotStore store(Dataset(dataset), universe);
  store.AddReplica({{.spatial_partitions = 4, .temporal_partitions = 4},
                    EncodingScheme::FromName("ROW-SNAPPY")});
  const auto error_pct = [] {
    const obs::Labels labels = {{"replica", "0"}};
    for (const obs::GaugeSnapshot& g :
         obs::MetricsRegistry::global().Snapshot().gauges)
      if (g.name == "cost_drift.error_pct" && g.labels == labels)
        return g.value;
    return -1.0;
  };
  for (int q = 0; q < 8; ++q)
    ASSERT_FALSE(store.Execute(universe, model).partial);
  const double complete = error_pct();
  ASSERT_GT(complete, 0.0);

  // Every read stalls past a 5 ms deadline: each answer is partial, and
  // its measured time is the deadline's.
  FaultPlan stall;
  stall.probability = 1.0;
  stall.kinds = {FaultKind::kLatency};
  stall.max_fires_per_target = 0;
  stall.latency_ms = 20;
  FaultInjector::Global().Arm(stall);
  BlotStore::ExecOptions exec;
  exec.deadline_ms = 5.0;
  exec.allow_partial = true;
  for (int q = 0; q < 4; ++q) {
    const BlotStore::RoutedResult routed =
        store.Execute(universe, model, exec);
    EXPECT_TRUE(routed.partial);
    EXPECT_GT(routed.measured_cost_ms, 0.0);
  }
  FaultInjector::Global().Disarm();
  EXPECT_EQ(error_pct(), complete);
}

TEST_F(RoutingObsTest, BatchExecutionRecordsSharedScanSavings) {
  BlotStore store = MakeStore();
  std::vector<STRange> queries;
  for (int i = 0; i < 4; ++i)
    queries.push_back(STRange::FromBounds(
        universe.x_min(), universe.x_max(), universe.y_min(),
        universe.y_max(), universe.t_min(),
        universe.t_min() + universe.Duration() * (i + 1) / 4));
  const auto batch = store.ExecuteBatch(queries, model);
  EXPECT_GT(batch.measured_ms, 0.0);

  const obs::MetricsSnapshot snap =
      obs::MetricsRegistry::global().Snapshot();
  const obs::CounterSnapshot* batches =
      snap.FindCounter("query.batches_total");
  ASSERT_NE(batches, nullptr);
  EXPECT_EQ(batches->value, 1u);
  const obs::CounterSnapshot* batch_queries =
      snap.FindCounter("query.batch_queries_total");
  ASSERT_NE(batch_queries, nullptr);
  EXPECT_EQ(batch_queries->value, queries.size());
  // Overlapping time slabs share partition scans, so savings accrue.
  const obs::CounterSnapshot* saved =
      snap.FindCounter("query.batch_shared_scans_saved_total");
  ASSERT_NE(saved, nullptr);
  EXPECT_EQ(saved->value,
            batch.naive_partition_scans - batch.stats.partitions_scanned);
}

// Request workers finish queries concurrently; each one still lands in
// the registry exactly once: one routed count, one profile, one cost
// error observation.
TEST_F(RoutingObsTest, ServedQueriesRecordEachQueryOnce) {
  BlotStore store = MakeStore();
  constexpr std::size_t kQueries = 200;
  serve::ServerOptions options;
  options.worker_threads = 4;
  options.max_inflight = kQueries;
  std::vector<std::future<BlotStore::RoutedResult>> futures;
  std::size_t measured = 0;
  {
    serve::QueryServer server(store, model, options);
    for (std::size_t i = 0; i < kQueries; ++i) {
      // Mixed shapes: point-like, slab and whole-universe queries.
      const double f = 1.0 / double(1 + i % 8);
      const double t0 = universe.t_min() + universe.Duration() *
                                               double(i % 5) / 5.0 * (1 - f);
      futures.push_back(server.Submit(STRange::FromBounds(
          universe.x_min(), universe.x_min() + universe.Width() * f,
          universe.y_max() - universe.Height() * f, universe.y_max(), t0,
          t0 + universe.Duration() * f)));
    }
    for (auto& future : futures)
      if (future.get().measured_cost_ms > 0) ++measured;
    server.Drain();
    ASSERT_EQ(server.stats().completed, kQueries);
  }

  const obs::MetricsSnapshot snap =
      obs::MetricsRegistry::global().Snapshot();
  const obs::CounterSnapshot* routed = snap.FindCounter("query.routed_total");
  ASSERT_NE(routed, nullptr);
  EXPECT_EQ(routed->value, kQueries);
  const obs::CounterSnapshot* profiled =
      snap.FindCounter("query.profiled_total");
  ASSERT_NE(profiled, nullptr);
  EXPECT_EQ(profiled->value, kQueries);
  const obs::HistogramSnapshot* error =
      snap.FindHistogram("query.cost_error_pct");
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->count, measured);
}

}  // namespace
}  // namespace blot
