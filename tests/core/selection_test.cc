#include "core/selection.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "util/error.h"
#include "util/rng.h"

namespace blot {
namespace {

// A tiny hand-checkable instance: 3 queries, 3 replicas.
//   r0: cheap storage, good for q0 only.
//   r1: cheap storage, good for q1 only.
//   r2: big storage, decent everywhere.
SelectionInput TinyInstance(double budget) {
  SelectionInput input;
  input.cost = {{1, 100, 10},   // q0
                {100, 1, 10},   // q1
                {50, 50, 10}};  // q2
  input.weights = {1, 1, 1};
  input.storage_bytes = {10, 10, 25};
  input.budget_bytes = budget;
  return input;
}

SelectionInput RandomInstance(Rng& rng, std::size_t n, std::size_t m) {
  SelectionInput input;
  input.weights.resize(n);
  input.storage_bytes.resize(m);
  for (auto& w : input.weights) w = rng.NextDouble(0.5, 2.0);
  for (auto& s : input.storage_bytes) s = rng.NextDouble(5, 50);
  input.cost.assign(n, std::vector<double>(m));
  for (auto& row : input.cost)
    for (auto& c : row) c = rng.NextDouble(1, 1000);
  double total = 0;
  for (double s : input.storage_bytes) total += s;
  input.budget_bytes = total * rng.NextDouble(0.2, 0.6);
  return input;
}

TEST(SubsetWorkloadCostTest, MatchesManualComputation) {
  const SelectionInput input = TinyInstance(100);
  const std::size_t all[] = {0, 1, 2};
  EXPECT_DOUBLE_EQ(SubsetWorkloadCost(input, all), 1 + 1 + 10);
  const std::size_t only2[] = {2};
  EXPECT_DOUBLE_EQ(SubsetWorkloadCost(input, only2), 30);
  EXPECT_TRUE(std::isinf(SubsetWorkloadCost(input, {})));
}

TEST(GreedyTest, RespectsBudget) {
  for (double budget : {10.0, 20.0, 25.0, 45.0, 100.0}) {
    const SelectionResult r = SelectGreedy(TinyInstance(budget));
    EXPECT_LE(r.storage_used, budget);
    EXPECT_FALSE(r.chosen.empty());
  }
}

TEST(GreedyTest, PicksComplementaryReplicasWhenAffordable) {
  // Budget 45 admits all three; {r0, r1, r2} costs 12, and greedy should
  // find a set costing no more than the best single (30).
  const SelectionResult r = SelectGreedy(TinyInstance(45));
  EXPECT_LE(r.workload_cost, 30.0);
  EXPECT_GE(r.chosen.size(), 2u);
}

TEST(GreedyTest, TinyBudgetStillSelectsSomething) {
  const SelectionResult r = SelectGreedy(TinyInstance(10));
  EXPECT_EQ(r.chosen.size(), 1u);
  EXPECT_TRUE(std::isfinite(r.workload_cost));
}

TEST(GreedyTest, ImpossibleBudgetReturnsEmpty) {
  const SelectionResult r = SelectGreedy(TinyInstance(5));
  EXPECT_TRUE(r.chosen.empty());
  EXPECT_TRUE(std::isinf(r.workload_cost));
}

TEST(ExhaustiveTest, FindsOptimumOnTinyInstance) {
  const SelectionResult r = SelectExhaustive(TinyInstance(45));
  EXPECT_TRUE(r.optimal);
  // Optimal: all three replicas (storage 45) -> cost 12.
  EXPECT_DOUBLE_EQ(r.workload_cost, 12.0);
  EXPECT_EQ(r.chosen.size(), 3u);
}

TEST(ExhaustiveTest, BudgetBindsOptimum) {
  const SelectionResult r = SelectExhaustive(TinyInstance(20));
  EXPECT_TRUE(r.optimal);
  // {r0, r1}: cost 1 + 1 + 50 = 52; {r2} infeasible at 25 > 20.
  EXPECT_DOUBLE_EQ(r.workload_cost, 52.0);
}

TEST(GreedyVsExhaustiveTest, ApproximationRatioIsReasonable) {
  // The paper observes greedy approximation ratios below ~1.3 in most
  // cases; on random instances we tolerate a bit more but verify it is
  // never catastrophic and usually close.
  Rng rng(31);
  double worst = 1.0;
  int within_1_3 = 0;
  constexpr int kTrials = 40;
  for (int t = 0; t < kTrials; ++t) {
    const SelectionInput input =
        RandomInstance(rng, 4 + rng.NextUint64(5), 5 + rng.NextUint64(6));
    const SelectionResult greedy = SelectGreedy(input);
    const SelectionResult exact = SelectExhaustive(input);
    if (!std::isfinite(exact.workload_cost)) continue;
    ASSERT_TRUE(std::isfinite(greedy.workload_cost));
    const double ratio = greedy.workload_cost / exact.workload_cost;
    EXPECT_GE(ratio, 1.0 - 1e-9);
    worst = std::max(worst, ratio);
    if (ratio <= 1.3) ++within_1_3;
  }
  EXPECT_LT(worst, 2.0);
  EXPECT_GT(within_1_3, kTrials * 3 / 4);
}

TEST(BestSingleTest, PicksCheapestAffordableSingle) {
  const SelectionResult r = SelectBestSingle(TinyInstance(100));
  ASSERT_EQ(r.chosen.size(), 1u);
  EXPECT_EQ(r.chosen[0], 2u);  // r2 covers all queries at 30 total
  EXPECT_DOUBLE_EQ(r.workload_cost, 30.0);
}

TEST(BestSingleTest, HonorsBudget) {
  const SelectionResult r = SelectBestSingle(TinyInstance(15));
  ASSERT_EQ(r.chosen.size(), 1u);
  EXPECT_NE(r.chosen[0], 2u);
}

TEST(IdealTest, LowerBoundsEverything) {
  const SelectionInput input = TinyInstance(20);
  const SelectionResult ideal = SelectIdeal(input);
  EXPECT_DOUBLE_EQ(ideal.workload_cost, 12.0);
  EXPECT_LE(ideal.workload_cost, SelectGreedy(input).workload_cost);
  EXPECT_LE(ideal.workload_cost, SelectExhaustive(input).workload_cost);
  EXPECT_LE(ideal.workload_cost, SelectBestSingle(input).workload_cost);
}

TEST(PruneDominatedTest, RemovesStrictlyWorseReplica) {
  SelectionInput input;
  input.cost = {{10, 20}, {10, 20}};
  input.weights = {1, 1};
  input.storage_bytes = {5, 10};  // r1 worse cost AND bigger
  input.budget_bytes = 100;
  const auto kept = PruneDominated(input);
  EXPECT_EQ(kept, (std::vector<std::size_t>{0}));
}

TEST(PruneDominatedTest, KeepsParetoIncomparableReplicas) {
  SelectionInput input;
  input.cost = {{10, 20}, {20, 10}};
  input.weights = {1, 1};
  input.storage_bytes = {5, 5};
  input.budget_bytes = 100;
  const auto kept = PruneDominated(input);
  EXPECT_EQ(kept.size(), 2u);
}

TEST(PruneDominatedTest, PairDominanceRemovesCoveredReplica) {
  // r2 is beaten on q0 by r0 and on q1 by r1, and storage(r0)+storage(r1)
  // <= storage(r2): the pair dominates it.
  SelectionInput input;
  input.cost = {{1, 50, 5}, {50, 1, 5}};
  input.weights = {1, 1};
  input.storage_bytes = {4, 4, 10};
  input.budget_bytes = 100;
  const auto kept = PruneDominated(input, /*check_pairs=*/true);
  EXPECT_EQ(kept, (std::vector<std::size_t>{0, 1}));
  // Without pair checking it survives.
  const auto kept_single = PruneDominated(input, /*check_pairs=*/false);
  EXPECT_EQ(kept_single.size(), 3u);
}

TEST(PruneDominatedTest, IdenticalReplicasKeepExactlyOne) {
  SelectionInput input;
  input.cost = {{7, 7, 7}};
  input.weights = {1};
  input.storage_bytes = {5, 5, 5};
  input.budget_bytes = 100;
  EXPECT_EQ(PruneDominated(input).size(), 1u);
}

TEST(PruneDominatedTest, PruningPreservesOptimalCost) {
  Rng rng(37);
  for (int t = 0; t < 25; ++t) {
    const SelectionInput input =
        RandomInstance(rng, 4 + rng.NextUint64(4), 6 + rng.NextUint64(5));
    const double before = SelectExhaustive(input).workload_cost;
    const auto kept = PruneDominated(input);
    const SelectionInput restricted = RestrictCandidates(input, kept);
    const double after = SelectExhaustive(restricted).workload_cost;
    if (std::isinf(before)) {
      EXPECT_TRUE(std::isinf(after));
    } else {
      EXPECT_NEAR(after, before, before * 1e-12) << "trial " << t;
    }
  }
}

TEST(RestrictCandidatesTest, RemapsCostsAndStorage) {
  const SelectionInput input = TinyInstance(45);
  const std::size_t keep[] = {2, 0};
  const SelectionInput restricted = RestrictCandidates(input, keep);
  EXPECT_EQ(restricted.NumReplicas(), 2u);
  EXPECT_DOUBLE_EQ(restricted.storage_bytes[0], 25);
  EXPECT_DOUBLE_EQ(restricted.storage_bytes[1], 10);
  EXPECT_DOUBLE_EQ(restricted.cost[0][0], 10);
  EXPECT_DOUBLE_EQ(restricted.cost[0][1], 1);
}

TEST(GreedyPropertyTest, BudgetAndDeterminismOnRandomInstances) {
  Rng rng(101);
  for (int t = 0; t < 40; ++t) {
    const SelectionInput input =
        RandomInstance(rng, 2 + rng.NextUint64(8), 3 + rng.NextUint64(10));
    const SelectionResult a = SelectGreedy(input);
    const SelectionResult b = SelectGreedy(input);
    // Deterministic.
    EXPECT_EQ(a.chosen, b.chosen) << "trial " << t;
    // Budget respected; storage accounting consistent.
    EXPECT_LE(a.storage_used, input.budget_bytes + 1e-9);
    double storage = 0;
    for (std::size_t j : a.chosen) storage += input.storage_bytes[j];
    EXPECT_NEAR(storage, a.storage_used, 1e-9);
    // Reported cost equals the recomputed subset cost.
    EXPECT_EQ(a.workload_cost, SubsetWorkloadCost(input, a.chosen));
    // No duplicate choices.
    std::set<std::size_t> unique(a.chosen.begin(), a.chosen.end());
    EXPECT_EQ(unique.size(), a.chosen.size());
  }
}

TEST(GreedyPropertyTest, NeverWorseThanBestSingleOnRandomInstances) {
  Rng rng(107);
  for (int t = 0; t < 200; ++t) {
    const SelectionInput input =
        RandomInstance(rng, 1 + rng.NextUint64(8), 2 + rng.NextUint64(10));
    const SelectionResult greedy = SelectGreedy(input);
    const SelectionResult single = SelectBestSingle(input);
    EXPECT_LE(greedy.workload_cost, single.workload_cost) << "trial " << t;
    EXPECT_LE(greedy.storage_used, input.budget_bytes + 1e-9);
  }
}

TEST(GreedyTest, FallsBackToBestSingleWhenSmallReplicasCrowdItOut) {
  // r0 and r1 are cheap per byte but each good for one query; r2 is
  // decent everywhere. Greedy by gain per byte takes r0 and r1, which
  // leaves no room for r2: {r0, r1} costs 1 + 1 + 50 = 52, {r2} alone 30.
  SelectionInput input = TinyInstance(25);
  input.storage_bytes = {10, 10, 24};
  const SelectionResult greedy = SelectGreedy(input);
  EXPECT_EQ(greedy.chosen, std::vector<std::size_t>{2});
  EXPECT_DOUBLE_EQ(greedy.workload_cost, 30.0);
  EXPECT_DOUBLE_EQ(greedy.storage_used, 24.0);
}

TEST(GreedyPropertyTest, AddingCandidatesNeverHurtsIdeal) {
  // SelectIdeal over a superset of candidates is at least as good —
  // sanity for the monotone structure the selectors rely on.
  Rng rng(103);
  for (int t = 0; t < 20; ++t) {
    const SelectionInput big =
        RandomInstance(rng, 3 + rng.NextUint64(5), 6 + rng.NextUint64(6));
    std::vector<std::size_t> subset;
    for (std::size_t j = 0; j + 2 < big.NumReplicas(); ++j)
      subset.push_back(j);
    const SelectionInput small = RestrictCandidates(big, subset);
    EXPECT_LE(SelectIdeal(big).workload_cost,
              SelectIdeal(small).workload_cost + 1e-9)
        << "trial " << t;
  }
}

TEST(SelectionInputTest, CheckRejectsMalformedInstances) {
  SelectionInput input = TinyInstance(45);
  input.weights.pop_back();
  EXPECT_THROW(input.Check(), InvalidArgument);
  input = TinyInstance(45);
  input.storage_bytes[1] = 0;
  EXPECT_THROW(input.Check(), InvalidArgument);
  input = TinyInstance(45);
  input.cost[1][1] = -3;
  EXPECT_THROW(input.Check(), InvalidArgument);
}

}  // namespace
}  // namespace blot
