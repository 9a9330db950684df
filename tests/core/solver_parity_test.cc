// Solver parity on small instances (<= 10 candidates): the exhaustive
// optimum is the ground truth, the MIP must reproduce it exactly, and
// greedy (Algorithm 1) must satisfy its approximation guarantee — the
// better of greedy and best-single achieves at least (1 - 1/e)/2 of the
// optimal cost *gain*, the classic budgeted-maximum-coverage bound the
// paper invokes for Algorithm 1.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "blot/replica.h"
#include "common/fixtures.h"
#include "core/mip_selection.h"
#include "core/selection.h"
#include "util/rng.h"

namespace blot {
namespace {

SelectionInput RandomInstance(Rng& rng, std::size_t queries,
                              std::size_t candidates) {
  SelectionInput input;
  input.weights.resize(queries);
  input.storage_bytes.resize(candidates);
  for (auto& w : input.weights) w = rng.NextDouble(0.5, 2.0);
  for (auto& s : input.storage_bytes) s = rng.NextDouble(5, 50);
  input.cost.assign(queries, std::vector<double>(candidates));
  for (auto& row : input.cost)
    for (auto& c : row) c = rng.NextDouble(1, 1000);
  double total = 0;
  for (double s : input.storage_bytes) total += s;
  // Wide budget spread: sometimes only one candidate fits, sometimes all.
  input.budget_bytes = total * rng.NextDouble(0.15, 0.9);
  // Guarantee feasibility: the smallest candidate always fits.
  input.budget_bytes = std::max(
      input.budget_bytes, *std::min_element(input.storage_bytes.begin(),
                                            input.storage_bytes.end()));
  return input;
}

// Cost gain of `result` over the worst feasible single candidate — the
// baseline Algorithm 1's guarantee is stated against (its greedy starts
// from the worst single and improves).
double Gain(const SelectionInput& input, double cost) {
  double worst_single = 0;
  for (std::size_t j = 0; j < input.NumReplicas(); ++j) {
    if (input.storage_bytes[j] > input.budget_bytes) continue;
    const std::size_t only[] = {j};
    worst_single = std::max(worst_single, SubsetWorkloadCost(input, only));
  }
  return worst_single - cost;
}

void CheckParity(const SelectionInput& input, std::uint64_t seed) {
  const SelectionResult exhaustive = SelectExhaustive(input);
  ASSERT_TRUE(exhaustive.optimal) << "seed " << seed;

  // MIP == exhaustive: same optimal cost (the chosen sets may differ
  // only when ties exist, so compare costs, then verify feasibility).
  const SelectionResult mip = SelectMip(input);
  EXPECT_TRUE(mip.optimal) << "seed " << seed;
  EXPECT_NEAR(mip.workload_cost, exhaustive.workload_cost,
              1e-6 * (1.0 + std::abs(exhaustive.workload_cost)))
      << "seed " << seed;
  EXPECT_LE(mip.storage_used, input.budget_bytes + 1e-9) << "seed " << seed;
  EXPECT_NEAR(SubsetWorkloadCost(input, mip.chosen), mip.workload_cost,
              1e-6 * (1.0 + std::abs(mip.workload_cost)))
      << "seed " << seed;

  // Greedy bound (Algorithm 1): max(greedy, best-single) captures at
  // least (1 - 1/e)/2 of the optimal gain.
  const SelectionResult greedy = SelectGreedy(input);
  const SelectionResult single = SelectBestSingle(input);
  EXPECT_LE(greedy.storage_used, input.budget_bytes + 1e-9)
      << "seed " << seed;
  EXPECT_GE(greedy.workload_cost, exhaustive.workload_cost - 1e-9)
      << "seed " << seed;

  const double best_heuristic_cost =
      std::min(greedy.workload_cost, single.workload_cost);
  const double optimal_gain = Gain(input, exhaustive.workload_cost);
  const double heuristic_gain = Gain(input, best_heuristic_cost);
  constexpr double kBound = (1.0 - 1.0 / 2.718281828459045) / 2.0;
  if (optimal_gain > 1e-9) {
    EXPECT_GE(heuristic_gain, kBound * optimal_gain - 1e-6)
        << "seed " << seed << ": heuristic gain " << heuristic_gain
        << " vs optimal gain " << optimal_gain;
  }
}

TEST(SolverParityTest, RandomInstancesUpToTenCandidates) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed * 1000003);
    const std::size_t queries = 2 + rng.NextUint64(7);
    const std::size_t candidates = 2 + rng.NextUint64(9);  // <= 10
    CheckParity(RandomInstance(rng, queries, candidates), seed);
  }
}

TEST(SolverParityTest, DegenerateInstances) {
  // One candidate: all solvers must agree exactly.
  Rng rng(99);
  SelectionInput one = RandomInstance(rng, 4, 1);
  CheckParity(one, 99);

  // Identical candidates: any singleton is optimal; greedy must not pay
  // for duplicates.
  SelectionInput twins = RandomInstance(rng, 3, 2);
  twins.cost[0][1] = twins.cost[0][0];
  twins.cost[1][1] = twins.cost[1][0];
  twins.cost[2][1] = twins.cost[2][0];
  twins.storage_bytes[1] = twins.storage_bytes[0];
  CheckParity(twins, 100);

  // Budget admitting everything: exhaustive picks the all-useful set and
  // greedy's bound still holds.
  SelectionInput rich = RandomInstance(rng, 5, 6);
  rich.budget_bytes = 1e9;
  CheckParity(rich, 101);
}

// Parity on an instance built the production way: real replicas of the
// taxi fleet, sketched, costed by the cost model — not a synthetic
// matrix. Catches disagreements the random instances can't (e.g. cost
// ties from shared partitionings).
TEST(SolverParityTest, CostModelDerivedInstance) {
  const test::TaxiFixture f(6, 200);
  std::vector<ReplicaSketch> sketches;
  for (const char* name :
       {"ROW-PLAIN", "ROW-GZIP", "COL-SNAPPY", "COL-LZMA"}) {
    for (const std::size_t spatial : {4u, 16u}) {
      const Replica replica = Replica::Build(
          f.dataset,
          {{.spatial_partitions = spatial, .temporal_partitions = 4},
           EncodingScheme::FromName(name)},
          f.universe);
      sketches.push_back(replica.sketch());
    }
  }
  ASSERT_LE(sketches.size(), 10u);

  Workload workload({{{{f.universe.Width() * 0.1, f.universe.Height() * 0.1,
                        f.universe.Duration() * 0.1}},
                      3.0},
                     {{{f.universe.Width() * 0.5, f.universe.Height() * 0.5,
                        f.universe.Duration() * 0.5}},
                      1.0}});
  const CostModel model{EnvironmentModel::AmazonS3Emr()};

  double total = 0;
  for (const ReplicaSketch& s : sketches) total += s.storage_bytes;
  for (const double fraction : {0.25, 0.5, 0.9}) {
    const SelectionInput input =
        BuildSelectionInput(sketches, workload, model, total * fraction);
    CheckParity(input, static_cast<std::uint64_t>(fraction * 100));
  }
}

}  // namespace
}  // namespace blot
