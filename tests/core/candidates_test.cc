#include "core/candidates.h"

#include <gtest/gtest.h>

#include "bench_common.h"
#include "core/mip_selection.h"
#include "gen/taxi_generator.h"
#include "util/error.h"

namespace blot {
namespace {

struct Fixture {
  Dataset sample;
  STRange universe;
  Workload workload;
  CostModel model{EnvironmentModel::AmazonS3Emr()};
  std::map<std::string, double> ratios;

  Fixture() {
    TaxiFleetConfig config;
    config.num_taxis = 10;
    config.samples_per_taxi = 300;
    sample = GenerateTaxiFleet(config);
    universe = config.Universe();
    for (const double frac : {0.02, 0.1, 0.4, 1.0})
      workload.Add({{universe.Width() * frac, universe.Height() * frac,
                     universe.Duration() * frac}},
                   1.0);
    ratios = MeasureCompressionRatios(sample, AllEncodingSchemes(), 3000);
  }
};

TEST(EnumerateReplicaConfigsTest, PaperSpaceIs25x7) {
  const auto configs = EnumerateReplicaConfigs({});
  EXPECT_EQ(configs.size(), 25u * 7u);
  // All distinct names.
  std::set<std::string> names;
  for (const ReplicaConfig& config : configs) names.insert(config.Name());
  EXPECT_EQ(names.size(), configs.size());
}

TEST(MeasureCompressionRatiosTest, CoversAllSchemesInRange) {
  const Fixture f;
  EXPECT_EQ(f.ratios.size(), 7u);
  for (const auto& [name, ratio] : f.ratios) {
    EXPECT_GT(ratio, 0.0) << name;
    EXPECT_LT(ratio, 1.2) << name;
  }
}

TEST(BuildSelectionInputGroupedTest, MatchesSketchBasedBuilder) {
  // The grouped fast path (geometry computed once per partitioning) must
  // produce the same cost matrix as sketch-by-sketch construction.
  const Fixture f;
  const std::vector<PartitioningSpec> partitionings = {
      {.spatial_partitions = 4, .temporal_partitions = 4},
      {.spatial_partitions = 16, .temporal_partitions = 8},
  };
  const std::uint64_t total_records = 5'000'000;
  const double budget = 1e12;

  const CandidateMatrixResult grouped = BuildSelectionInputGrouped(
      f.sample, f.universe, partitionings, AllEncodingSchemes(), f.ratios,
      total_records, f.workload, f.model, budget);

  std::vector<ReplicaSketch> sketches = BuildCandidateSketches(
      f.sample, f.universe, grouped.configs, total_records, f.ratios);
  const SelectionInput reference =
      BuildSelectionInput(sketches, f.workload, f.model, budget);

  ASSERT_EQ(grouped.input.NumQueries(), reference.NumQueries());
  ASSERT_EQ(grouped.input.NumReplicas(), reference.NumReplicas());
  for (std::size_t i = 0; i < reference.NumQueries(); ++i)
    for (std::size_t j = 0; j < reference.NumReplicas(); ++j)
      EXPECT_NEAR(grouped.input.cost[i][j], reference.cost[i][j],
                  reference.cost[i][j] * 1e-6 + 1e-6)
          << "i=" << i << " j=" << j;
  for (std::size_t j = 0; j < reference.NumReplicas(); ++j)
    EXPECT_NEAR(grouped.input.storage_bytes[j], reference.storage_bytes[j],
                reference.storage_bytes[j] * 1e-9 + 1.0)
        << "j=" << j;
}

TEST(BuildSelectionInputGroupedTest, ColumnOrderIsPartitioningMajor) {
  const Fixture f;
  const std::vector<PartitioningSpec> partitionings = {
      {.spatial_partitions = 4, .temporal_partitions = 4},
      {.spatial_partitions = 16, .temporal_partitions = 8},
  };
  const CandidateMatrixResult grouped = BuildSelectionInputGrouped(
      f.sample, f.universe, partitionings, AllEncodingSchemes(), f.ratios,
      1'000'000, f.workload, f.model, 1e12);
  ASSERT_EQ(grouped.configs.size(), 14u);
  EXPECT_EQ(grouped.configs[0].partitioning.Name(), "KD4xT4");
  EXPECT_EQ(grouped.configs[6].partitioning.Name(), "KD4xT4");
  EXPECT_EQ(grouped.configs[7].partitioning.Name(), "KD16xT8");
  EXPECT_EQ(grouped.configs[0].encoding, AllEncodingSchemes()[0]);
}

// Greedy never costs more than the best single replica, on every budget
// of the Figure 4 sweep.
TEST(GreedyVsSingleTest, Fig4BudgetSweepGrid) {
  const bench::Fig4Instance fig4 = bench::MakeFig4Instance();
  for (const double relative : bench::kFig4RelativeBudgets) {
    SelectionInput instance = fig4.input;
    instance.budget_bytes = fig4.base_budget * relative;
    const SelectionResult greedy = SelectGreedy(instance);
    EXPECT_LE(greedy.workload_cost, SelectBestSingle(instance).workload_cost)
        << "relative budget " << relative;
    EXPECT_LE(greedy.storage_used, instance.budget_bytes);
  }
}

TEST(SelectMipTest, NodeLimitFallsBackToGreedyHonestly) {
  // Starve the node budget: the result must carry the greedy solution and
  // be marked non-optimal.
  const Fixture f;
  const CandidateMatrixResult matrix = BuildSelectionInputGrouped(
      f.sample, f.universe,
      {{.spatial_partitions = 4, .temporal_partitions = 4},
       {.spatial_partitions = 16, .temporal_partitions = 8},
       {.spatial_partitions = 64, .temporal_partitions = 16}},
      AllEncodingSchemes(), f.ratios, 500'000'000, f.workload, f.model,
      3.0 * 500'000'000.0 * kRecordRowBytes);
  MipSelectionOptions options;
  options.mip.max_nodes = 0;
  const SelectionResult result = SelectMip(matrix.input, options);
  const SelectionResult greedy = SelectGreedy(matrix.input);
  EXPECT_FALSE(result.optimal);
  EXPECT_EQ(result.chosen, greedy.chosen);
  EXPECT_NEAR(result.workload_cost, greedy.workload_cost, 1e-9);
}

}  // namespace
}  // namespace blot
