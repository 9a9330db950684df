// Unit tests for the serving layer (serve::QueryServer): admission,
// structured shedding, drain semantics and stats — and that served
// results match the brute-force oracle.
#include "serve/server.h"

#include <gtest/gtest.h>

#include <future>
#include <vector>

#include "common/fixtures.h"
#include "core/store.h"
#include "testing/oracle.h"
#include "util/error.h"

namespace blot {
namespace {

using test::CentroidQuery;
using test::CorruptInvolved;
using test::MakeStandardStore;
using test::Sorted;
using test::TaxiFixture;

CostModel Model() { return CostModel{EnvironmentModel::LocalHadoop()}; }

TEST(QueryServerTest, ServedResultsMatchOracle) {
  const TaxiFixture fleet;
  BlotStore store = MakeStandardStore(fleet.dataset, fleet.universe);
  const testing::Oracle oracle(fleet.dataset);
  serve::QueryServer server(store, Model());
  for (const double fraction : {0.05, 0.2, 0.5, 1.0}) {
    const STRange query = CentroidQuery(fleet.universe, fraction);
    const auto routed = server.Execute(query);
    EXPECT_EQ(Sorted(routed.result.records), Sorted(oracle.RangeQuery(query)))
        << "fraction " << fraction;
    EXPECT_GT(routed.query_id, 0u);
  }
  const auto stats = server.stats();
  EXPECT_EQ(stats.submitted, 4u);
  EXPECT_EQ(stats.admitted, 4u);
  EXPECT_EQ(stats.completed, 4u);
  EXPECT_EQ(stats.shed, 0u);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.inflight, 0u);
}

TEST(QueryServerTest, ShedsBeyondInflightLimitWithRetryAfter) {
  const TaxiFixture fleet;
  BlotStore store = MakeStandardStore(fleet.dataset, fleet.universe);
  serve::ServerOptions options;
  options.worker_threads = 1;
  options.max_inflight = 1;
  options.simulate_io_ms = 50.0;  // parks the admitted query long enough
  serve::QueryServer server(store, Model(), options);
  const STRange query = CentroidQuery(fleet.universe, 0.1);
  auto admitted = server.Submit(query);
  try {
    server.Submit(query);
    FAIL() << "second submit should shed";
  } catch (const serve::OverloadedError& e) {
    EXPECT_GT(e.retry_after_ms(), 0.0);
    EXPECT_EQ(e.queue_depth(), 1u);
    EXPECT_FALSE(e.shutting_down());
  }
  admitted.get();
  const auto stats = server.stats();
  EXPECT_EQ(stats.submitted, 2u);
  EXPECT_EQ(stats.admitted, 1u);
  EXPECT_EQ(stats.shed, 1u);
}

TEST(QueryServerTest, DrainRefusesNewWorkAndIsIdempotent) {
  const TaxiFixture fleet;
  BlotStore store = MakeStandardStore(fleet.dataset, fleet.universe);
  serve::QueryServer server(store, Model());
  const STRange query = CentroidQuery(fleet.universe, 0.2);
  server.Execute(query);
  server.Drain();
  server.Drain();
  try {
    server.Submit(query);
    FAIL() << "submit after drain should be refused";
  } catch (const serve::OverloadedError& e) {
    EXPECT_TRUE(e.shutting_down());
  }
  const auto stats = server.stats();
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.shed, 1u);
  EXPECT_EQ(stats.inflight, 0u);
}

TEST(QueryServerTest, AdmittedQueryFailuresPropagateAndCount) {
  const TaxiFixture fleet;
  BlotStore store = MakeStandardStore(fleet.dataset, fleet.universe);
  const STRange query = CentroidQuery(fleet.universe, 0.2);
  // Every replica's copy of the involved partitions is gone: the query
  // is correctly admitted (capacity is fine) and then fails with the
  // store's structured error, which the future rethrows.
  ASSERT_FALSE(CorruptInvolved(store, 0, query).empty());
  ASSERT_FALSE(CorruptInvolved(store, 1, query).empty());
  serve::QueryServer server(store, Model());
  EXPECT_THROW(server.Execute(query), QueryFailedError);
  const auto stats = server.stats();
  EXPECT_EQ(stats.admitted, 1u);
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.completed, 0u);
}

TEST(QueryServerTest, ValidatesOptions) {
  const TaxiFixture fleet;
  BlotStore store = MakeStandardStore(fleet.dataset, fleet.universe);
  serve::ServerOptions zero_workers;
  zero_workers.worker_threads = 0;
  EXPECT_THROW(serve::QueryServer(store, Model(), zero_workers),
               InvalidArgument);
  serve::ServerOptions zero_inflight;
  zero_inflight.max_inflight = 0;
  EXPECT_THROW(serve::QueryServer(store, Model(), zero_inflight),
               InvalidArgument);
}

}  // namespace
}  // namespace blot
