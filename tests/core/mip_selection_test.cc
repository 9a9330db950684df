#include "core/mip_selection.h"

#include <gtest/gtest.h>

#include <cmath>

#include "util/error.h"
#include "util/rng.h"

namespace blot {
namespace {

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
  input.budget_bytes = total * rng.NextDouble(0.25, 0.7);
  return input;
}

TEST(SelectMipTest, MatchesExhaustiveOnRandomInstances) {
  Rng rng(41);
  for (int t = 0; t < 25; ++t) {
    const SelectionInput input =
        RandomInstance(rng, 3 + rng.NextUint64(5), 4 + rng.NextUint64(6));
    const SelectionResult exact = SelectExhaustive(input);
    const SelectionResult mip = SelectMip(input);
    ASSERT_TRUE(mip.optimal) << "trial " << t;
    EXPECT_NEAR(mip.workload_cost, exact.workload_cost,
                exact.workload_cost * 1e-6 + 1e-9)
        << "trial " << t;
    EXPECT_LE(mip.storage_used, input.budget_bytes + 1e-6);
  }
}

TEST(SelectMipTest, WithoutWarmStartStillOptimal) {
  Rng rng(43);
  MipSelectionOptions options;
  options.warm_start_with_greedy = false;
  for (int t = 0; t < 10; ++t) {
    const SelectionInput input =
        RandomInstance(rng, 3 + rng.NextUint64(3), 4 + rng.NextUint64(4));
    const SelectionResult exact = SelectExhaustive(input);
    const SelectionResult mip = SelectMip(input, options);
    ASSERT_TRUE(mip.optimal);
    EXPECT_NEAR(mip.workload_cost, exact.workload_cost,
                exact.workload_cost * 1e-6 + 1e-9);
  }
}

TEST(SelectMipTest, AggregatedAndDisaggregatedConstraintsAgree) {
  // The paper's Eq. 4 relaxation of Eq. 3 "does not change the optimal
  // solution" — verify on random instances.
  Rng rng(47);
  for (int t = 0; t < 10; ++t) {
    const SelectionInput input =
        RandomInstance(rng, 3 + rng.NextUint64(3), 4 + rng.NextUint64(4));
    MipSelectionOptions aggregated;
    MipSelectionOptions disaggregated;
    disaggregated.use_disaggregated_constraints = true;
    const SelectionResult a = SelectMip(input, aggregated);
    const SelectionResult b = SelectMip(input, disaggregated);
    ASSERT_TRUE(a.optimal && b.optimal);
    EXPECT_NEAR(a.workload_cost, b.workload_cost,
                a.workload_cost * 1e-6 + 1e-9)
        << "trial " << t;
  }
}

TEST(SelectMipTest, BeatsOrMatchesGreedyAlways) {
  Rng rng(53);
  for (int t = 0; t < 15; ++t) {
    const SelectionInput input =
        RandomInstance(rng, 4 + rng.NextUint64(4), 5 + rng.NextUint64(5));
    const SelectionResult greedy = SelectGreedy(input);
    const SelectionResult mip = SelectMip(input);
    if (std::isfinite(greedy.workload_cost)) {
      EXPECT_LE(mip.workload_cost, greedy.workload_cost + 1e-9);
    }
  }
}

TEST(SelectMipTest, TightBudgetSelectsSingleBest) {
  SelectionInput input;
  input.cost = {{10, 30}, {40, 20}};
  input.weights = {1, 1};
  input.storage_bytes = {20, 20};
  input.budget_bytes = 25;  // room for exactly one
  const SelectionResult mip = SelectMip(input);
  ASSERT_TRUE(mip.optimal);
  ASSERT_EQ(mip.chosen.size(), 1u);
  EXPECT_NEAR(mip.workload_cost, 50.0, 1e-9);  // both singles tie at 50
}

TEST(SelectMipTest, ThrowsWhenNoReplicaFitsBudget) {
  SelectionInput input;
  input.cost = {{10}};
  input.weights = {1};
  input.storage_bytes = {100};
  input.budget_bytes = 1;
  EXPECT_THROW(SelectMip(input), InvalidArgument);
}

TEST(BuildSelectionMipTest, ProblemDimensionsMatchFormulation) {
  SelectionInput input;
  input.cost = {{1, 2, 3}, {4, 5, 6}};
  input.weights = {1, 2};
  input.storage_bytes = {10, 20, 30};
  input.budget_bytes = 100;
  const MipProblem aggregated = BuildSelectionMip(input, false);
  const std::size_t n = 2, m = 3;
  EXPECT_EQ(aggregated.lp.num_variables(), m + n * m);
  // storage + n assignment + m linking + m bounds.
  EXPECT_EQ(aggregated.lp.num_constraints(), 1 + n + m + m);
  EXPECT_EQ(aggregated.binary_variables.size(), m);

  const MipProblem disaggregated = BuildSelectionMip(input, true);
  EXPECT_EQ(disaggregated.lp.num_constraints(), 1 + n + n * m + m);
}

TEST(BuildSelectionMipTest, ObjectiveUsesWeightedCosts) {
  SelectionInput input;
  input.cost = {{3, 7}};
  input.weights = {2};
  input.storage_bytes = {1, 1};
  input.budget_bytes = 10;
  const MipProblem mip = BuildSelectionMip(input);
  // x variables have zero objective; y_00 = 2*3, y_01 = 2*7.
  EXPECT_DOUBLE_EQ(mip.lp.objective(0), 0.0);
  EXPECT_DOUBLE_EQ(mip.lp.objective(1), 0.0);
  EXPECT_DOUBLE_EQ(mip.lp.objective(2), 6.0);
  EXPECT_DOUBLE_EQ(mip.lp.objective(3), 14.0);
}

}  // namespace
}  // namespace blot
