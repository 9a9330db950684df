#include "simenv/simulator.h"

#include <gtest/gtest.h>

#include "core/workload.h"
#include "gen/taxi_generator.h"
#include "util/error.h"

namespace blot {
namespace {

ReplicaSketch FleetSketch(const EncodingScheme& encoding, STRange& universe) {
  TaxiFleetConfig config;
  config.num_taxis = 10;
  config.samples_per_taxi = 300;
  const Dataset d = GenerateTaxiFleet(config);
  universe = config.Universe();
  const ReplicaConfig rc{
      {.spatial_partitions = 8, .temporal_partitions = 4}, encoding};
  return Replica::Build(d, rc, universe).sketch();
}

TEST(SimulatorTest, NoiseFreeScanMatchesEnvironmentTruth) {
  const EnvironmentModel env = EnvironmentModel::AmazonS3Emr();
  Simulator sim(env, {.noise_fraction = 0.0});
  const EncodingScheme scheme = EncodingScheme::FromName("COL-GZIP");
  EXPECT_DOUBLE_EQ(sim.PartitionScanMs(scheme, 50000),
                   env.PartitionScanMs(scheme, 50000));
}

TEST(SimulatorTest, NoiseIsBoundedAndCentered) {
  Simulator sim(EnvironmentModel::LocalHadoop(), {.noise_fraction = 0.05});
  const EncodingScheme scheme = EncodingScheme::FromName("ROW-PLAIN");
  const double truth =
      EnvironmentModel::LocalHadoop().PartitionScanMs(scheme, 100000);
  double sum = 0;
  constexpr int kN = 2000;
  for (int i = 0; i < kN; ++i) {
    const double v = sim.PartitionScanMs(scheme, 100000);
    EXPECT_GT(v, truth * 0.5);
    EXPECT_LT(v, truth * 1.5);
    sum += v;
  }
  EXPECT_NEAR(sum / kN / truth, 1.0, 0.01);
}

TEST(SimulatorTest, QueryCostSumsInvolvedPartitions) {
  STRange universe;
  const ReplicaSketch sketch =
      FleetSketch(EncodingScheme::FromName("ROW-PLAIN"), universe);
  const EnvironmentModel env = EnvironmentModel::AmazonS3Emr();
  Simulator sim(env, {.noise_fraction = 0.0});

  const SimQueryResult whole = sim.ExecuteQuery(sketch, universe);
  EXPECT_EQ(whole.partitions_scanned, sketch.index.NumPartitions());
  EXPECT_EQ(whole.records_scanned, sketch.total_records);
  double expected = 0;
  for (std::size_t p = 0; p < sketch.index.NumPartitions(); ++p)
    expected += env.PartitionScanMs(sketch.config.encoding,
                                    sketch.counts[p]);
  EXPECT_NEAR(whole.total_cost_ms, expected, 1e-6);
}

TEST(SimulatorTest, MakespanBetweenBoundsAndBelowTotal) {
  STRange universe;
  const ReplicaSketch sketch =
      FleetSketch(EncodingScheme::FromName("ROW-GZIP"), universe);
  Simulator sim(EnvironmentModel::LocalHadoop(),
                {.noise_fraction = 0.0, .num_mappers = 4});
  const SimQueryResult r = sim.ExecuteQuery(sketch, universe);
  EXPECT_GT(r.partitions_scanned, 4u);
  EXPECT_LT(r.makespan_ms, r.total_cost_ms);
  EXPECT_GE(r.makespan_ms, r.total_cost_ms / 4.0 - 1e-9);
}

TEST(SimulatorTest, SingleMapperMakespanEqualsTotal) {
  STRange universe;
  const ReplicaSketch sketch =
      FleetSketch(EncodingScheme::FromName("ROW-GZIP"), universe);
  Simulator sim(EnvironmentModel::LocalHadoop(),
                {.noise_fraction = 0.0, .num_mappers = 1});
  const SimQueryResult r = sim.ExecuteQuery(sketch, universe);
  EXPECT_NEAR(r.makespan_ms, r.total_cost_ms, 1e-9);
}

TEST(SimulatorTest, EmptyQueryCostsNothing) {
  STRange universe;
  const ReplicaSketch sketch =
      FleetSketch(EncodingScheme::FromName("ROW-PLAIN"), universe);
  Simulator sim(EnvironmentModel::AmazonS3Emr());
  const SimQueryResult r =
      sim.ExecuteQuery(sketch, STRange::FromBounds(0, 1, 0, 1, 0, 1));
  EXPECT_EQ(r.partitions_scanned, 0u);
  EXPECT_EQ(r.total_cost_ms, 0.0);
  EXPECT_EQ(r.makespan_ms, 0.0);
}

TEST(SimulatorTest, ValidatesOptions) {
  EXPECT_THROW(Simulator(EnvironmentModel::AmazonS3Emr(),
                         {.noise_fraction = -0.1}),
               InvalidArgument);
  EXPECT_THROW(Simulator(EnvironmentModel::AmazonS3Emr(),
                         {.num_mappers = 0}),
               InvalidArgument);
}

}  // namespace
}  // namespace blot
