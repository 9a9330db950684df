// Validates the analytic cost model of Section IV against ground truth:
// Monte-Carlo estimates of Np (the paper's Eq. 8 definition) and the
// noise-free simulator (Eq. 6/7 semantics).
#include "core/cost_model.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>

#include "gen/taxi_generator.h"
#include "simenv/replica_sketch.h"
#include "simenv/simulator.h"
#include "util/error.h"

namespace blot {
namespace {

struct Fixture {
  Dataset dataset;
  STRange universe;
  ReplicaSketch sketch;

  explicit Fixture(std::size_t spatial = 16, std::size_t temporal = 8,
                   const char* encoding = "ROW-GZIP") {
    TaxiFleetConfig config;
    config.num_taxis = 15;
    config.samples_per_taxi = 400;
    dataset = GenerateTaxiFleet(config);
    universe = config.Universe();
    sketch = Replica::Build(
                 dataset,
                 {{.spatial_partitions = spatial,
                   .temporal_partitions = temporal},
                  EncodingScheme::FromName(encoding)},
                 universe)
                 .sketch();
  }
};

TEST(IntersectionProbabilityTest, FullCoverageQueryAlwaysIntersects) {
  const Fixture f;
  const RangeSize whole = f.universe.Size();
  for (std::size_t p = 0; p < f.sketch.index.NumPartitions(); ++p)
    EXPECT_DOUBLE_EQ(
        IntersectionProbability(f.sketch.index.Range(p), whole, f.universe),
        1.0);
}

TEST(IntersectionProbabilityTest, OversizedQueryClampsToOne) {
  const Fixture f;
  const RangeSize huge = {f.universe.Width() * 3, f.universe.Height() * 3,
                          f.universe.Duration() * 3};
  EXPECT_DOUBLE_EQ(IntersectionProbability(f.sketch.index.Range(0), huge,
                                           f.universe),
                   1.0);
}

TEST(IntersectionProbabilityTest, TinyQueryMatchesVolumeFraction) {
  // For a point query (W=H=T→0) on a tiling, the involvement probability
  // of a partition approaches its volume fraction of the universe.
  const Fixture f;
  const RangeSize tiny = {1e-9, 1e-9, 1e-6};
  double total = 0;
  for (std::size_t p = 0; p < f.sketch.index.NumPartitions(); ++p) {
    const double prob = IntersectionProbability(f.sketch.index.Range(p),
                                                tiny, f.universe);
    EXPECT_NEAR(prob,
                f.sketch.index.Range(p).Volume() / f.universe.Volume(),
                1e-6);
    total += prob;
  }
  EXPECT_NEAR(total, 1.0, 1e-5);  // a point query involves ~one partition
}

TEST(IntersectionProbabilityTest, MonteCarloAgreement) {
  // Eq. 12 versus empirical frequency over uniformly-positioned query
  // instances, across several query sizes and partitions.
  const Fixture f;
  Rng rng(21);
  const std::vector<RangeSize> sizes = {
      {f.universe.Width() * 0.05, f.universe.Height() * 0.05,
       f.universe.Duration() * 0.05},
      {f.universe.Width() * 0.3, f.universe.Height() * 0.2,
       f.universe.Duration() * 0.5},
      {f.universe.Width() * 0.9, f.universe.Height() * 0.1,
       f.universe.Duration() * 0.02}};
  constexpr int kTrials = 4000;
  for (const RangeSize& size : sizes) {
    // Pick a handful of partitions to check individually.
    for (std::size_t p = 0; p < f.sketch.index.NumPartitions(); p += 37) {
      const STRange& partition = f.sketch.index.Range(p);
      int hits = 0;
      Rng mc = rng.Fork();
      for (int t = 0; t < kTrials; ++t) {
        const STRange instance =
            SampleQueryInstance({size}, f.universe, mc);
        if (partition.Intersects(instance)) ++hits;
      }
      const double predicted =
          IntersectionProbability(partition, size, f.universe);
      EXPECT_NEAR(static_cast<double>(hits) / kTrials, predicted, 0.03)
          << "partition " << p;
    }
  }
}

TEST(ExpectedInvolvedPartitionsTest, MatchesMonteCarloCount) {
  const Fixture f;
  Rng rng(23);
  for (const double frac : {0.05, 0.2, 0.5}) {
    const RangeSize size = {f.universe.Width() * frac,
                            f.universe.Height() * frac,
                            f.universe.Duration() * frac};
    const double predicted =
        ExpectedInvolvedPartitions(f.sketch.index, size, f.universe);
    double total = 0;
    constexpr int kTrials = 2000;
    for (int t = 0; t < kTrials; ++t) {
      const STRange instance = SampleQueryInstance({size}, f.universe, rng);
      total += static_cast<double>(f.sketch.index.CountInvolved(instance));
    }
    const double empirical = total / kTrials;
    EXPECT_NEAR(predicted / empirical, 1.0, 0.05) << "fraction " << frac;
  }
}

TEST(CostModelTest, ConcreteQueryCostMatchesNoiseFreeSimulator) {
  const Fixture f;
  const EnvironmentModel env = EnvironmentModel::AmazonS3Emr();
  const CostModel model(env);
  Simulator sim(env, {.noise_fraction = 0.0});
  Rng rng(25);
  for (int trial = 0; trial < 30; ++trial) {
    const RangeSize size = {
        f.universe.Width() * rng.NextDouble(0.05, 0.7),
        f.universe.Height() * rng.NextDouble(0.05, 0.7),
        f.universe.Duration() * rng.NextDouble(0.05, 0.7)};
    const STRange query = SampleQueryInstance({size}, f.universe, rng);
    EXPECT_NEAR(model.QueryCostMs(f.sketch, query),
                sim.ExecuteQuery(f.sketch, query).total_cost_ms, 1e-6);
  }
}

TEST(CostModelTest, GroupedCostMatchesAverageSimulatedCost) {
  // The paper's key accuracy claim: the closed-form grouped-query cost
  // equals the average cost over uniformly-positioned instances.
  const Fixture f;
  const EnvironmentModel env = EnvironmentModel::LocalHadoop();
  const CostModel model(env);
  Simulator sim(env, {.noise_fraction = 0.0});
  Rng rng(27);
  const GroupedQuery grouped{{f.universe.Width() * 0.25,
                              f.universe.Height() * 0.25,
                              f.universe.Duration() * 0.25}};
  const double predicted = model.QueryCostMs(f.sketch, grouped);
  double total = 0;
  constexpr int kTrials = 3000;
  for (int t = 0; t < kTrials; ++t)
    total += sim.ExecuteQuery(f.sketch,
                              SampleQueryInstance(grouped, f.universe, rng))
                 .total_cost_ms;
  EXPECT_NEAR(predicted / (total / kTrials), 1.0, 0.05);
}

TEST(CostModelTest, UsesMeasuredParamsWhenProvided) {
  const Fixture f;
  std::map<std::string, ScanCostParams> params;
  params["ROW-GZIP"] = {100.0, 5000.0};
  CostModel model(std::move(params));
  // Whole-universe query: every partition involved, all records scanned.
  const double cost = model.QueryCostMs(f.sketch, f.universe);
  const double expected =
      static_cast<double>(f.sketch.total_records) / 1000.0 * 100.0 +
      static_cast<double>(f.sketch.index.NumPartitions()) * 5000.0;
  EXPECT_NEAR(cost, expected, 1e-6);
  EXPECT_THROW(
      model.Params(EncodingScheme::FromName("COL-LZMA")), InvalidArgument);
}

TEST(CostModelTest, RejectsNegativeZeroRateAndNonFiniteParams) {
  const auto make = [](double scan_ms_per_krecord, double extra_ms) {
    std::map<std::string, ScanCostParams> params;
    params["ROW-GZIP"] = {scan_ms_per_krecord, extra_ms};
    return CostModel(std::move(params));
  };
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(make(-1.0, 10.0), InvalidArgument);
  EXPECT_THROW(make(1.0, -10.0), InvalidArgument);
  EXPECT_THROW(make(0.0, 10.0), InvalidArgument);
  EXPECT_THROW(make(nan, 10.0), InvalidArgument);
  EXPECT_THROW(make(1.0, nan), InvalidArgument);
  EXPECT_THROW(make(inf, 10.0), InvalidArgument);
  EXPECT_THROW(make(1.0, inf), InvalidArgument);
  // Zero ExtraTime is allowed: Eq. 6 stays non-negative.
  EXPECT_NO_THROW(make(1.0, 0.0));
}

TEST(CostModelTest, BoundedCostStopsOnceTheBoundIsCrossed) {
  const Fixture f;
  const CostModel model(EnvironmentModel::LocalHadoop());
  std::size_t full_np = 0;
  const double full = model.QueryCostMs(f.sketch, f.universe, &full_np);
  ASSERT_GT(full_np, 2u);

  // Past half the full cost the walk stops: the partial sum exceeds the
  // bound and counts fewer partitions than the full walk.
  std::size_t np = 0;
  const double half = model.QueryCostMs(f.sketch, f.universe, &np, full / 2);
  EXPECT_GT(half, full / 2);
  EXPECT_LT(half, full);
  EXPECT_GT(np, 0u);
  EXPECT_LT(np, full_np);

  // The bound is compared against cost * penalty: a penalty of 4 crosses
  // a bound of the full cost a quarter of the way in.
  const double penalized =
      model.QueryCostMs(f.sketch, f.universe, &np, full, 4.0);
  EXPECT_GT(penalized * 4.0, full);
  EXPECT_LT(np, full_np);

  // A bound the full cost does not exceed changes nothing; an infinite
  // bound equals the unbounded call bit for bit.
  EXPECT_EQ(std::bit_cast<std::uint64_t>(
                model.QueryCostMs(f.sketch, f.universe, &np, full)),
            std::bit_cast<std::uint64_t>(full));
  EXPECT_EQ(np, full_np);
  Rng rng(31);
  for (int trial = 0; trial < 50; ++trial) {
    const RangeSize size = {
        f.universe.Width() * rng.NextDouble(0.01, 1.0),
        f.universe.Height() * rng.NextDouble(0.01, 1.0),
        f.universe.Duration() * rng.NextDouble(0.01, 1.0)};
    const STRange query = SampleQueryInstance({size}, f.universe, rng);
    std::size_t unbounded_np = 0;
    std::size_t inf_np = 0;
    const double unbounded = model.QueryCostMs(f.sketch, query, &unbounded_np);
    const double inf_bound = model.QueryCostMs(
        f.sketch, query, &inf_np, std::numeric_limits<double>::infinity(),
        8.0);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(inf_bound),
              std::bit_cast<std::uint64_t>(unbounded));
    EXPECT_EQ(inf_np, unbounded_np);
  }
}

TEST(CostModelTest, WorkloadCostIsWeightedBestReplicaSum) {
  const Fixture coarse(4, 2, "ROW-PLAIN");
  const Fixture fine(64, 16, "ROW-PLAIN");
  const CostModel model(EnvironmentModel::AmazonS3Emr());
  Workload workload;
  workload.Add({{coarse.universe.Width() * 0.1,
                 coarse.universe.Height() * 0.1,
                 coarse.universe.Duration() * 0.1}},
               2.0);
  workload.Add({coarse.universe.Size()}, 1.0);
  const std::vector<ReplicaSketch> replicas = {coarse.sketch, fine.sketch};
  const double combined = model.WorkloadCostMs(replicas, workload);
  double expected = 0;
  for (const WeightedQuery& wq : workload.queries())
    expected += wq.weight * std::min(model.QueryCostMs(coarse.sketch, wq.query),
                                     model.QueryCostMs(fine.sketch, wq.query));
  EXPECT_NEAR(combined, expected, 1e-9);
  EXPECT_TRUE(std::isinf(model.WorkloadCostMs({}, workload)));
}

TEST(CostModelTest, FinerPartitioningWinsSmallQueriesCoarseWinsLarge) {
  // The paper's Figure 2 intuition: small partitions prune better for
  // small queries but pay ExtraTime per partition on large queries. This
  // only shows at realistic data scales (the paper's 65M+ records), so
  // the sketches are scaled from the sample.
  const Fixture f;
  constexpr std::uint64_t kTotalRecords = 50'000'000;
  const EncodingScheme plain = EncodingScheme::FromName("ROW-PLAIN");
  const ReplicaSketch coarse = SketchFromSample(
      f.dataset, {{.spatial_partitions = 4, .temporal_partitions = 2}, plain},
      f.universe, kTotalRecords, 1.0);
  const ReplicaSketch fine = SketchFromSample(
      f.dataset,
      {{.spatial_partitions = 256, .temporal_partitions = 32}, plain},
      f.universe, kTotalRecords, 1.0);
  const CostModel model(EnvironmentModel::LocalHadoop());
  const GroupedQuery small{{f.universe.Width() * 0.02,
                            f.universe.Height() * 0.02,
                            f.universe.Duration() * 0.02}};
  const GroupedQuery large{f.universe.Size()};
  EXPECT_LT(model.QueryCostMs(fine, small), model.QueryCostMs(coarse, small));
  EXPECT_LT(model.QueryCostMs(coarse, large), model.QueryCostMs(fine, large));
}

}  // namespace
}  // namespace blot
