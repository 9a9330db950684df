// Regression tests for BlotStore's move operations.
//
// BlotStore used to default its moves while owning background-repair
// state whose tasks capture the store's address: moving a store with a
// repair in flight gutted sync_/health_/telemetry_ under the running
// task (use-after-move on another thread — a crash or TSan report,
// depending on timing). Moves now drain outstanding repairs on the
// source (and the target, for assignment) before transferring members.
#include <gtest/gtest.h>

#include <utility>

#include "common/fixtures.h"
#include "core/store.h"
#include "testing/oracle.h"

namespace blot {
namespace {

using test::CentroidQuery;
using test::CorruptInvolved;
using test::MakeStandardStore;
using test::Sorted;
using test::TaxiFixture;

CostModel Model() { return CostModel{EnvironmentModel::LocalHadoop()}; }

// Corrupts the routed replica's copies and executes under
// RepairMode::kBackground, so a repair task holding the store's address
// is (potentially still) running when the function returns.
STRange DegradeAndScheduleBackgroundRepair(BlotStore& store,
                                           ThreadPool& pool) {
  FailoverPolicy policy;
  policy.repair = RepairMode::kBackground;
  store.SetFailoverPolicy(policy);
  const STRange query = CentroidQuery(store.universe(), 0.3);
  const std::size_t victim = store.RouteQuery(query, Model());
  EXPECT_FALSE(CorruptInvolved(store, victim, query).empty());
  store.Execute(query, Model(), &pool);
  return query;
}

TEST(StoreMoveTest, MoveConstructionWaitsForBackgroundRepairs) {
  const TaxiFixture fleet;
  const testing::Oracle oracle(fleet.dataset);
  ThreadPool pool(2);
  BlotStore store = MakeStandardStore(fleet.dataset, fleet.universe);
  const STRange query = DegradeAndScheduleBackgroundRepair(store, pool);

  // With the old defaulted move this raced the in-flight repair task.
  BlotStore moved = std::move(store);

  // The move drained the repair: the quarantined copies are healthy
  // again and the moved-to store serves correct answers.
  EXPECT_EQ(moved.health().QuarantinedCount(), 0u);
  const auto routed = moved.Execute(query, Model(), &pool);
  EXPECT_EQ(Sorted(routed.result.records), Sorted(oracle.RangeQuery(query)));
  EXPECT_FALSE(routed.degraded);
}

TEST(StoreMoveTest, MoveAssignmentDrainsBothSides) {
  const TaxiFixture fleet;
  const testing::Oracle oracle(fleet.dataset);
  ThreadPool pool(2);
  BlotStore source = MakeStandardStore(fleet.dataset, fleet.universe);
  BlotStore target = MakeStandardStore(fleet.dataset, fleet.universe, 3);
  const STRange query = DegradeAndScheduleBackgroundRepair(source, pool);
  DegradeAndScheduleBackgroundRepair(target, pool);

  target = std::move(source);

  EXPECT_EQ(target.NumReplicas(), 2u);
  EXPECT_EQ(target.health().QuarantinedCount(), 0u);
  const auto routed = target.Execute(query, Model(), &pool);
  EXPECT_EQ(Sorted(routed.result.records), Sorted(oracle.RangeQuery(query)));
}

TEST(StoreMoveTest, MovedFromStoreDestructsSafely) {
  const TaxiFixture fleet;
  BlotStore store = MakeStandardStore(fleet.dataset, fleet.universe);
  {
    BlotStore moved = std::move(store);
    EXPECT_EQ(moved.NumReplicas(), 2u);
  }
  // `store` is now gutted (null boxed state); destruction must not touch
  // it. Leaving the scope exercises exactly that.
}

}  // namespace
}  // namespace blot
