// Routing parity: the store's routing estimates are bit-identical to
// Eq. 7 evaluated the long way — the per-partition Eq. 6 terms
// counts[i] / 1000 * scan_ms_per_krecord + extra_ms summed in ascending
// partition order over a brute-force involved list — and the involved
// count is that list's size. Any change to how routing walks the
// partition index must keep both, so routing decisions never move.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "blot/replica.h"
#include "common/fixtures.h"
#include "core/cost_model.h"
#include "core/fault_injection.h"
#include "core/health.h"
#include "core/latency_map.h"
#include "core/partial.h"
#include "core/store.h"
#include "core/workload.h"
#include "util/rng.h"

namespace blot {
namespace {

struct Estimate {
  double cost_ms = 0.0;
  std::size_t partitions = 0;
};

// Eq. 7 from the brute-force involved list, summed in ascending order.
Estimate ReferenceEstimate(const ReplicaSketch& sketch,
                           const ScanCostParams& params,
                           const STRange& query) {
  Estimate out;
  for (std::size_t i = 0; i < sketch.index.NumPartitions(); ++i) {
    if (!sketch.index.Range(i).Intersects(query)) continue;
    out.cost_ms += static_cast<double>(sketch.counts[i]) / 1000.0 *
                       params.scan_ms_per_krecord +
                   params.extra_ms;
    ++out.partitions;
  }
  return out;
}

std::uint64_t Bits(double value) { return std::bit_cast<std::uint64_t>(value); }

struct RoutingParityTest : ::testing::Test, test::TaxiFixture {
  RoutingParityTest() : test::TaxiFixture(15, 400) {}

  CostModel model{EnvironmentModel::LocalHadoop()};
};

TEST_F(RoutingParityTest, EstimatesAndDecisionsMatchReferenceFormula) {
  BlotStore store(Dataset(dataset), universe);
  store.AddReplica({{.spatial_partitions = 4, .temporal_partitions = 4},
                    EncodingScheme::FromName("ROW-SNAPPY")});
  // A uniform grid on clustered data leaves cells without records, so
  // Np must count partitions, not records.
  store.AddReplica({{.spatial_partitions = 64,
                     .temporal_partitions = 16,
                     .method = SpatialMethod::kGrid},
                    EncodingScheme::FromName("COL-GZIP")});
  const STRange hotspot = DensestSpatialBox(dataset, universe, 0.5);
  const std::size_t partial = store.AddPartialReplica(
      {{.spatial_partitions = 16, .temporal_partitions = 8},
       EncodingScheme::FromName("ROW-GZIP")},
      hotspot);
  ASSERT_EQ(store.NumReplicas(), 3u);
  ASSERT_FALSE(store.IsFullReplica(partial));

  std::vector<ReplicaSketch> sketches;
  for (std::size_t r = 0; r < store.NumReplicas(); ++r)
    sketches.push_back(store.replica(r).sketch());
  ASSERT_NE(std::count(sketches[1].counts.begin(), sketches[1].counts.end(),
                       std::uint64_t{0}),
            0);

  Rng rng(2024);
  std::size_t partial_candidate = 0;
  std::size_t partial_wins = 0;
  for (int q = 0; q < 600; ++q) {
    // Alternate universe-wide shapes with shapes inside the partial
    // replica's coverage, so every decision has 2 or 3 candidates.
    const STRange& space = q % 2 == 0 ? universe : hotspot;
    const GroupedQuery shape{{space.Width() * rng.NextDouble(0.01, 1.0),
                              space.Height() * rng.NextDouble(0.01, 1.0),
                              space.Duration() * rng.NextDouble(0.01, 1.0)}};
    const STRange query = SampleQueryInstance(shape, space, rng);
    SCOPED_TRACE("query " + std::to_string(q) + " " + query.ToString());

    std::size_t best = store.NumReplicas();
    Estimate best_estimate;
    for (std::size_t r = 0; r < store.NumReplicas(); ++r) {
      const ReplicaSketch& sketch = sketches[r];
      const Estimate expected = ReferenceEstimate(
          sketch, model.Params(sketch.config.encoding), query);
      ASSERT_EQ(sketch.index.InvolvedPartitions(query).size(),
                expected.partitions);
      std::size_t np = 0;
      const double cost = model.QueryCostMs(sketch, query, &np);
      ASSERT_EQ(Bits(cost), Bits(expected.cost_ms)) << "replica " << r;
      ASSERT_EQ(np, expected.partitions) << "replica " << r;
      ASSERT_EQ(Bits(model.QueryCostMs(sketch, query)), Bits(cost));

      if (!store.IsFullReplica(r) &&
          !store.replica(r).universe().Contains(query))
        continue;
      if (r == partial) ++partial_candidate;
      // Strictly cheaper wins; ties go to the lower index.
      if (best == store.NumReplicas() ||
          expected.cost_ms < best_estimate.cost_ms) {
        best = r;
        best_estimate = expected;
      }
    }

    const BlotStore::RoutingDecision decision =
        store.RouteQueryDetailed(query, model);
    ASSERT_EQ(decision.replica_index, best);
    ASSERT_EQ(Bits(decision.estimated_cost_ms), Bits(best_estimate.cost_ms));
    ASSERT_EQ(decision.predicted_partitions, best_estimate.partitions);
    if (best == partial) ++partial_wins;
  }
  // The partial replica was in the running, and won some decisions.
  EXPECT_GT(partial_candidate, 0u);
  EXPECT_GT(partial_wins, 0u);
}

// Routing is a branch and bound over the candidates: a walk stops once
// its penalized partial sum cannot win. With one replica browned out by
// observed stalls and one partition quarantined, every decision must
// still equal the full reference ranking: each covering replica with no
// quarantined involved partition, scored by its reference Eq. 7 times
// its brownout penalty, least score first, ties to the lower index.
TEST_F(RoutingParityTest, BrownoutAndQuarantineMatchFullReference) {
  BlotStore store = test::MakeStandardStore(dataset, universe, 3);
  FailoverPolicy policy;
  policy.repair = RepairMode::kNone;  // keep the quarantine in place
  store.SetFailoverPolicy(policy);
  std::vector<ReplicaSketch> sketches;
  for (std::size_t r = 0; r < store.NumReplicas(); ++r)
    sketches.push_back(store.replica(r).sketch());

  Rng rng(99);
  const auto random_query = [&](const STRange& space) {
    const GroupedQuery shape{{space.Width() * rng.NextDouble(0.01, 1.0),
                              space.Height() * rng.NextDouble(0.01, 1.0),
                              space.Duration() * rng.NextDouble(0.01, 1.0)}};
    return SampleQueryInstance(shape, space, rng);
  };
  // Warm the latency map with complete reads on every replica, each
  // through queries routing sends there.
  for (std::size_t r = 0; r < store.NumReplicas(); ++r) {
    for (int q = 0; q < 2000 && store.latency().Get(r).observations <
                                    LatencyMap::kMinObservations;
         ++q) {
      const STRange query = random_query(universe);
      if (store.RouteQuery(query, model) == r)
        (void)store.Execute(query, model);
    }
    ASSERT_GE(store.latency().Get(r).observations,
              LatencyMap::kMinObservations)
        << "replica " << r;
  }
  // Brown out the replica a small query routes to: stall each of its
  // reads by 8x the slowest warmed per-partition time (so the ratio holds
  // in slow builds too) while small queries routed to it run, until its
  // penalty reaches the cap or routing leaves it.
  const STRange probe = test::CentroidQuery(universe, 0.1);
  const std::size_t slow = store.RouteQuery(probe, model);
  double slowest_ms = 0.0;
  for (std::size_t r = 0; r < store.NumReplicas(); ++r)
    slowest_ms =
        std::max(slowest_ms, store.latency().Get(r).ewma_ms_per_partition);
  {
    FaultPlan plan;
    plan.seed = 5;
    plan.probability = 1.0;
    plan.kinds = {FaultKind::kLatency};
    plan.max_fires_per_target = 0;  // every read
    plan.latency_ms =
        std::max(1u, static_cast<std::uint32_t>(std::ceil(8 * slowest_ms)));
    plan.replica = store.replica(slow).config().Name();
    FaultInjector::Global().Arm(plan);
    for (int q = 0; q < 2000 && store.latency().BrownoutPenalty(slow) <
                                    LatencyMap::kMaxPenalty;
         ++q) {
      const STRange query = random_query(probe);
      if (store.RouteQuery(query, model) == slow)
        (void)store.Execute(query, model);
    }
    FaultInjector::Global().Disarm();
  }
  ASSERT_GT(store.latency().BrownoutPenalty(slow), 1.0);

  // Quarantine one partition of another replica, through a read fault
  // on a query routed to it.
  std::size_t lossy = store.NumReplicas();
  std::size_t lost = 0;
  for (int q = 0; q < 400 && lossy == store.NumReplicas(); ++q) {
    const STRange query = random_query(universe);
    const std::size_t r = store.RouteQuery(query, model);
    if (r == slow) continue;
    for (const std::size_t p :
         store.replica(r).index().InvolvedPartitions(query)) {
      StoredPartition& unit = store.mutable_replica(r).MutablePartition(p);
      if (unit.data.empty()) continue;
      unit.data[unit.data.size() / 2] ^= 0xFF;
      (void)store.Execute(query, model);
      lossy = r;
      lost = p;
      break;
    }
  }
  ASSERT_LT(lossy, store.NumReplicas());
  ASSERT_EQ(store.health().QuarantinedCount(), 1u);
  ASSERT_EQ(store.health().Get(lossy, lost), PartitionHealth::kQuarantined);

  std::size_t brownout_flips = 0;
  std::size_t lossy_excluded = 0;
  std::size_t lossy_wins = 0;
  // Checks 600 decisions against the reference ranking over `reference`.
  const auto check_decisions =
      [&](const std::vector<ReplicaSketch>& reference) {
    for (int q = 0; q < 600; ++q) {
      // Alternate universe-wide shapes with shapes around the lost
      // partition, which exclude the lossy replica while it is
      // quarantined.
      const STRange query = random_query(
          q % 2 == 0 ? universe : store.replica(lossy).index().Range(lost));
      SCOPED_TRACE("query " + std::to_string(q) + " " + query.ToString());

      std::size_t best = store.NumReplicas();
      double best_score = 0.0;
      Estimate best_estimate;
      std::size_t unpenalized_best = store.NumReplicas();
      double unpenalized_cost = 0.0;
      for (std::size_t r = 0; r < store.NumReplicas(); ++r) {
        const Estimate expected = ReferenceEstimate(
            reference[r], model.Params(reference[r].config.encoding), query);
        bool quarantined = false;
        for (const std::size_t p :
             reference[r].index.InvolvedPartitions(query))
          quarantined = quarantined || store.health().Get(r, p) ==
                                           PartitionHealth::kQuarantined;
        if (quarantined) {
          ++lossy_excluded;
          continue;
        }
        const double score =
            expected.cost_ms * store.latency().BrownoutPenalty(r);
        if (best == store.NumReplicas() || score < best_score) {
          best = r;
          best_score = score;
          best_estimate = expected;
        }
        if (unpenalized_best == store.NumReplicas() ||
            expected.cost_ms < unpenalized_cost) {
          unpenalized_best = r;
          unpenalized_cost = expected.cost_ms;
        }
      }
      if (best != unpenalized_best) ++brownout_flips;
      if (best == lossy) ++lossy_wins;

      const BlotStore::RoutingDecision decision =
          store.RouteQueryDetailed(query, model);
      ASSERT_EQ(decision.replica_index, best);
      ASSERT_EQ(Bits(decision.estimated_cost_ms),
                Bits(best_estimate.cost_ms));
      ASSERT_EQ(decision.predicted_partitions, best_estimate.partitions);
    }
  };
  check_decisions(sketches);
  ASSERT_FALSE(HasFatalFailure());
  // The penalty moved decisions, the quarantine excluded the lossy
  // replica from some, and the lossy replica still won others.
  EXPECT_GT(brownout_flips, 0u);
  EXPECT_GT(lossy_excluded, 0u);
  EXPECT_GT(lossy_wins, 0u);

  // A repair sweep re-encodes the lost partition in place. The store's
  // routing state must then match a sketch built fresh from the repaired
  // replica, bit for bit, with no partition excluded any more.
  ASSERT_EQ(store.RepairQuarantined(), 1u);
  ASSERT_EQ(store.health().QuarantinedCount(), 0u);
  std::vector<ReplicaSketch> repaired;
  for (std::size_t r = 0; r < store.NumReplicas(); ++r)
    repaired.push_back(store.replica(r).sketch());
  EXPECT_EQ(repaired[lossy].counts, sketches[lossy].counts);
  lossy_excluded = 0;
  check_decisions(repaired);
  EXPECT_EQ(lossy_excluded, 0u);
}

TEST_F(RoutingParityTest, ExecutedQueriesReportReferenceEstimate) {
  BlotStore store = test::MakeStandardStore(dataset, universe, 3);
  Rng rng(7);
  for (int q = 0; q < 60; ++q) {
    const GroupedQuery shape{{universe.Width() * rng.NextDouble(0.01, 0.6),
                              universe.Height() * rng.NextDouble(0.01, 0.6),
                              universe.Duration() * rng.NextDouble(0.01, 0.6)}};
    const STRange query = SampleQueryInstance(shape, universe, rng);
    const BlotStore::RoutedResult routed = store.Execute(query, model);
    const ReplicaSketch& sketch = store.replica(routed.replica_index).sketch();
    const Estimate expected = ReferenceEstimate(
        sketch, model.Params(sketch.config.encoding), query);
    ASSERT_EQ(Bits(routed.estimated_cost_ms), Bits(expected.cost_ms))
        << "query " << q;
    ASSERT_EQ(routed.predicted_partitions, expected.partitions)
        << "query " << q;
  }
}

}  // namespace
}  // namespace blot
