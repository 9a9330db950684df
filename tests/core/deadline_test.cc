// Per-query deadlines end to end: CancelToken semantics, cooperative
// scan cancellation with partition-exact coverage, the structured
// DeadlineExceededError, graceful degradation via ExecOptions::
// allow_partial, and the serving layer's admission-clock deadline
// (docs/robustness.md, docs/serving.md).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "blot/encoding_scheme.h"
#include "blot/replica.h"
#include "common/fixtures.h"
#include "core/cost_model.h"
#include "core/fault_injection.h"
#include "core/store.h"
#include "serve/server.h"
#include "simenv/environment.h"
#include "util/cancel.h"
#include "util/error.h"
#include "util/thread_pool.h"

namespace blot {
namespace {

using test::Sorted;
using test::TaxiFixture;

CostModel Model() { return CostModel{EnvironmentModel::LocalHadoop()}; }

// Arms the global injector for one test body; always disarms.
struct ScopedInjector {
  explicit ScopedInjector(const FaultPlan& plan) {
    FaultInjector::Global().Arm(plan);
  }
  ~ScopedInjector() { FaultInjector::Global().Disarm(); }
};

// A plan that stalls every partition read of `replica` (empty = all
// replicas) by `stall_ms`, on every read.
FaultPlan StallPlan(double stall_ms, const std::string& replica = "") {
  FaultPlan plan;
  plan.seed = 17;
  plan.probability = 1.0;
  plan.kinds = {FaultKind::kLatency};
  plan.max_fires_per_target = 0;  // never goes quiet
  plan.latency_ms = static_cast<std::uint32_t>(stall_ms);
  plan.replica = replica;
  return plan;
}

// --- CancelToken unit coverage -----------------------------------------

TEST(CancelTokenTest, InertTokenIsFreeAndNeverStops) {
  const CancelToken token;
  EXPECT_FALSE(token.valid());
  EXPECT_FALSE(token.ShouldStop());
  EXPECT_EQ(token.reason(), CancelReason::kNone);
  token.Cancel(CancelReason::kAbandoned);  // no-op, must not crash
  EXPECT_FALSE(token.ShouldStop());
}

TEST(CancelTokenTest, FirstCancelReasonWinsAndLatches) {
  const CancelToken token = CancelToken::Create();
  EXPECT_FALSE(token.ShouldStop());
  token.Cancel(CancelReason::kHedgeLost);
  token.Cancel(CancelReason::kAbandoned);  // loses the race
  EXPECT_TRUE(token.ShouldStop());
  EXPECT_EQ(token.reason(), CancelReason::kHedgeLost);
  EXPECT_FALSE(token.DeadlineExpired());
}

TEST(CancelTokenTest, DeadlineExpiryLatchesDeadlineReason) {
  const CancelToken token = CancelToken::WithDeadline(0.5);
  EXPECT_TRUE(token.has_deadline());
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_TRUE(token.ShouldStop());
  EXPECT_EQ(token.reason(), CancelReason::kDeadline);
  EXPECT_TRUE(token.DeadlineExpired());
  // A later explicit cancel cannot overwrite the latched reason.
  token.Cancel(CancelReason::kAbandoned);
  EXPECT_EQ(token.reason(), CancelReason::kDeadline);
}

TEST(CancelTokenTest, ChildObservesParentButCancelsIndependently) {
  const CancelToken parent = CancelToken::Create();
  const CancelToken loser = parent.Child();
  const CancelToken winner = parent.Child();

  // Cancelling one child (the hedge loser) touches neither the parent
  // nor its sibling.
  loser.Cancel(CancelReason::kHedgeLost);
  EXPECT_TRUE(loser.ShouldStop());
  EXPECT_FALSE(parent.ShouldStop());
  EXPECT_FALSE(winner.ShouldStop());

  // Cancelling the parent stops every child.
  parent.Cancel(CancelReason::kAbandoned);
  EXPECT_TRUE(winner.ShouldStop());
  EXPECT_EQ(winner.reason(), CancelReason::kAbandoned);
  // The loser keeps its own earlier reason (nearest in the chain wins).
  EXPECT_EQ(loser.reason(), CancelReason::kHedgeLost);
}

TEST(CancelTokenTest, ChildInheritsParentDeadline) {
  const CancelToken parent = CancelToken::WithDeadline(0.5);
  const CancelToken child = parent.Child();
  EXPECT_TRUE(child.has_deadline());
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_TRUE(child.ShouldStop());
  EXPECT_TRUE(child.DeadlineExpired());
}

// --- Replica-level cooperative cancellation ----------------------------

TEST(DeadlineTest, CancelledScanReportsExactCoverage) {
  const TaxiFixture fixture;
  const Replica replica = Replica::Build(
      fixture.dataset,
      {{.spatial_partitions = 4, .temporal_partitions = 2},
       EncodingScheme::FromName("ROW-SNAPPY")},
      fixture.universe);

  const STRange query = fixture.universe;
  const std::vector<std::size_t> involved =
      replica.index().InvolvedPartitions(query);
  ASSERT_FALSE(involved.empty());

  // A token cancelled before the scan starts: every involved partition
  // must be reported missed, and no partial records may leak.
  CancelToken token = CancelToken::Create();
  token.Cancel(CancelReason::kAbandoned);
  ScanOptions options;
  options.cancel = &token;
  const QueryResult result = replica.Execute(query, options);
  EXPECT_TRUE(result.truncated);
  EXPECT_TRUE(result.records.empty());
  EXPECT_TRUE(result.served_partitions.empty());
  std::vector<std::size_t> missed = result.missed_partitions;
  std::vector<std::size_t> expected_missed = involved;
  std::sort(expected_missed.begin(), expected_missed.end());
  EXPECT_EQ(missed, expected_missed);
}

// --- Store-level deadlines ---------------------------------------------

TEST(DeadlineTest, ExpiredDeadlineThrowsStructuredError) {
  const TaxiFixture fixture;
  BlotStore store = test::MakeStandardStore(fixture.dataset,
                                            fixture.universe, 2);
  const ScopedInjector injector(StallPlan(30.0));

  BlotStore::ExecOptions exec;
  exec.deadline_ms = 5.0;  // every partition read stalls 30ms: unmeetable
  try {
    store.Execute(fixture.universe, Model(), exec);
    FAIL() << "expected DeadlineExceededError";
  } catch (const DeadlineExceededError& e) {
    EXPECT_DOUBLE_EQ(e.deadline_ms(), 5.0);
    EXPECT_GE(e.attempts(), 1u);
    // The error reports how far the query got; with every read stalled
    // past the whole budget, nothing can have been served.
    EXPECT_EQ(e.partitions_served(), 0u);
    EXPECT_GT(e.partitions_missed(), 0u);
  }
}

TEST(DeadlineTest, AllowPartialTurnsExpiryIntoCoverageReport) {
  const TaxiFixture fixture;
  BlotStore store = test::MakeStandardStore(fixture.dataset,
                                            fixture.universe, 2);
  const ScopedInjector injector(StallPlan(30.0));

  BlotStore::ExecOptions exec;
  exec.deadline_ms = 5.0;
  exec.allow_partial = true;
  const BlotStore::RoutedResult routed =
      store.Execute(fixture.universe, Model(), exec);
  EXPECT_TRUE(routed.partial);
  EXPECT_TRUE(routed.result.truncated);
  EXPECT_FALSE(routed.result.missed_partitions.empty());
  // Coverage is partition-exact: no records without served partitions.
  if (routed.result.served_partitions.empty()) {
    EXPECT_TRUE(routed.result.records.empty());
  }
}

TEST(DeadlineTest, DeadlineMidParallelScanKeepsCoverageExact) {
  const TaxiFixture fixture;
  Dataset dataset = fixture.dataset;
  BlotStore store(dataset, fixture.universe);
  store.AddReplica({{.spatial_partitions = 4, .temporal_partitions = 2},
                    EncodingScheme::FromName("ROW-SNAPPY")});
  const STRange query = fixture.universe;

  // Every partition read stalls 60ms; with a 90ms deadline and a
  // 2-worker scan pool the first wave of partitions completes inside the
  // budget and the next wave is cancelled at its first block boundary —
  // a genuine mid-scan expiry, not an up-front one.
  const ScopedInjector injector(StallPlan(60.0));
  ThreadPool pool(2, "deadline-test");
  BlotStore::ExecOptions exec;
  exec.pool = &pool;
  exec.deadline_ms = 90.0;
  exec.allow_partial = true;
  const BlotStore::RoutedResult routed = store.Execute(query, Model(), exec);

  ASSERT_TRUE(routed.partial);
  EXPECT_FALSE(routed.result.served_partitions.empty());
  EXPECT_FALSE(routed.result.missed_partitions.empty());

  // The returned records must be *exactly* the query's matches in the
  // served partitions — a served partition contributes everything, an
  // interrupted one nothing. Suspend keeps the verification reads clean
  // without resetting the injector.
  const FaultInjector::Suspend suspend(FaultInjector::Global());
  const Replica& replica = store.replica(routed.replica_index);
  std::vector<Record> expected;
  for (const std::size_t p : routed.result.served_partitions)
    for (const Record& rec : replica.DecodePartitionRecords(p))
      if (query.Contains(rec.Position())) expected.push_back(rec);
  EXPECT_EQ(Sorted(routed.result.records), Sorted(expected));
}

TEST(DeadlineTest, GenerousDeadlineDoesNotPerturbResults) {
  const TaxiFixture fixture;
  BlotStore store = test::MakeStandardStore(fixture.dataset,
                                            fixture.universe, 2);
  const STRange query = test::CentroidQuery(fixture.universe, 0.5);
  const std::vector<Record> baseline =
      Sorted(store.Execute(query, Model()).result.records);

  BlotStore::ExecOptions exec;
  exec.deadline_ms = 60'000.0;
  exec.allow_partial = true;
  const BlotStore::RoutedResult routed = store.Execute(query, Model(), exec);
  EXPECT_FALSE(routed.partial);
  EXPECT_EQ(Sorted(routed.result.records), baseline);
}

// --- Serving-layer deadlines -------------------------------------------

TEST(DeadlineTest, ServerDeadlineCoversQueueWaitAndExecution) {
  const TaxiFixture fixture;
  BlotStore store = test::MakeStandardStore(fixture.dataset,
                                            fixture.universe, 1);
  const ScopedInjector injector(StallPlan(60.0));

  serve::ServerOptions options;
  options.worker_threads = 1;  // the second query must queue
  options.default_deadline_ms = 25.0;
  serve::QueryServer server(store, Model(), options);

  // Both queries carry a 25ms budget against 60ms-per-partition stalls:
  // the first expires mid-execution, the second expires while still
  // queued behind it and is abandoned without executing.
  auto first = server.Submit(fixture.universe);
  auto second = server.Submit(fixture.universe);
  EXPECT_THROW(first.get(), DeadlineExceededError);
  try {
    second.get();
    FAIL() << "expected DeadlineExceededError";
  } catch (const DeadlineExceededError& e) {
    EXPECT_NE(std::string(e.what()).find("queue"), std::string::npos)
        << e.what();
  }
  const serve::ServerStatsSnapshot stats = server.stats();
  EXPECT_EQ(stats.deadline_exceeded, 2u);
  EXPECT_EQ(stats.completed, 0u);

  // A per-request override outlives the stalls and succeeds.
  const BlotStore::RoutedResult ok =
      server.Execute(test::CentroidQuery(fixture.universe, 0.3),
                     /*deadline_ms=*/60'000.0);
  EXPECT_FALSE(ok.partial);
  EXPECT_EQ(server.stats().completed, 1u);
}

TEST(DeadlineTest, ServerAllowPartialCountsPartialResults) {
  const TaxiFixture fixture;
  BlotStore store = test::MakeStandardStore(fixture.dataset,
                                            fixture.universe, 1);
  const ScopedInjector injector(StallPlan(60.0));

  serve::ServerOptions options;
  options.worker_threads = 1;
  options.default_deadline_ms = 25.0;
  options.allow_partial = true;
  serve::QueryServer server(store, Model(), options);

  const BlotStore::RoutedResult routed = server.Execute(fixture.universe);
  EXPECT_TRUE(routed.partial);
  const serve::ServerStatsSnapshot stats = server.stats();
  EXPECT_EQ(stats.partial, 1u);
  EXPECT_EQ(stats.deadline_exceeded, 0u);
  EXPECT_EQ(stats.completed, 1u);
}

// With allow_partial, a query whose deadline passes in the admission
// queue resolves partial too: the store reads none of its partitions and
// reports every involved one missed.
TEST(DeadlineTest, ServerAllowPartialAnswersQueueExpiryPartially) {
  const TaxiFixture fixture;
  BlotStore store = test::MakeStandardStore(fixture.dataset,
                                            fixture.universe, 1);
  const ScopedInjector injector(StallPlan(60.0));

  serve::ServerOptions options;
  options.worker_threads = 1;  // the second query must queue
  options.default_deadline_ms = 25.0;
  options.allow_partial = true;
  serve::QueryServer server(store, Model(), options);

  auto first = server.Submit(fixture.universe);
  auto second = server.Submit(fixture.universe);
  const BlotStore::RoutedResult expired_running = first.get();
  const BlotStore::RoutedResult expired_queued = second.get();
  EXPECT_TRUE(expired_running.partial);
  EXPECT_TRUE(expired_queued.partial);
  EXPECT_TRUE(expired_queued.result.served_partitions.empty());
  EXPECT_TRUE(expired_queued.result.records.empty());
  EXPECT_EQ(expired_queued.result.missed_partitions.size(),
            store.replica(expired_queued.replica_index)
                .index()
                .InvolvedPartitions(fixture.universe)
                .size());
  const serve::ServerStatsSnapshot stats = server.stats();
  EXPECT_EQ(stats.partial, 2u);
  EXPECT_EQ(stats.deadline_exceeded, 0u);
  EXPECT_EQ(stats.completed, 2u);
}

}  // namespace
}  // namespace blot
