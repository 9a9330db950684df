#include "simenv/cluster.h"

#include <gtest/gtest.h>

#include <set>

#include "core/workload.h"
#include "gen/taxi_generator.h"
#include "util/error.h"

namespace blot {
namespace {

struct Fixture {
  Dataset dataset;
  STRange universe;
  ReplicaSketch sketch;

  Fixture() {
    TaxiFleetConfig config;
    config.num_taxis = 10;
    config.samples_per_taxi = 300;
    dataset = GenerateTaxiFleet(config);
    universe = config.Universe();
    sketch = ReplicaSketch::FromReplica(Replica::Build(
        dataset,
        {{.spatial_partitions = 16, .temporal_partitions = 4},
         EncodingScheme::FromName("ROW-GZIP")},
        universe));
  }
};

ClusterConfig NoiseFree(std::size_t nodes, std::size_t slots = 2) {
  ClusterConfig config;
  config.num_nodes = nodes;
  config.map_slots_per_node = slots;
  config.noise_fraction = 0.0;
  return config;
}

TEST(SimClusterTest, ValidatesConfig) {
  const EnvironmentModel env = EnvironmentModel::LocalHadoop();
  EXPECT_THROW(SimCluster(env, {.num_nodes = 0}), InvalidArgument);
  EXPECT_THROW(SimCluster(env, {.map_slots_per_node = 0}), InvalidArgument);
  EXPECT_THROW(SimCluster(env, {.replication = 0}), InvalidArgument);
  EXPECT_THROW(SimCluster(env, {.remote_read_penalty = 0.5}),
               InvalidArgument);
}

TEST(SimClusterTest, PlacementHasDistinctNodesPerPartition) {
  const Fixture f;
  ClusterConfig config = NoiseFree(8);
  config.replication = 3;
  SimCluster cluster(EnvironmentModel::LocalHadoop(), config);
  const auto placement = cluster.PlaceReplica(f.sketch);
  ASSERT_EQ(placement.size(), f.sketch.index.NumPartitions());
  for (const auto& nodes : placement) {
    EXPECT_EQ(nodes.size(), 3u);
    EXPECT_EQ(std::set<std::size_t>(nodes.begin(), nodes.end()).size(), 3u);
    for (std::size_t n : nodes) EXPECT_LT(n, 8u);
  }
}

TEST(SimClusterTest, ReplicationClampedToClusterSize) {
  const Fixture f;
  ClusterConfig config = NoiseFree(2);
  config.replication = 5;
  SimCluster cluster(EnvironmentModel::LocalHadoop(), config);
  const auto placement = cluster.PlaceReplica(f.sketch);
  for (const auto& nodes : placement) EXPECT_EQ(nodes.size(), 2u);
}

TEST(SimClusterTest, MakespanBoundsAndWorkConservation) {
  const Fixture f;
  SimCluster cluster(EnvironmentModel::LocalHadoop(), NoiseFree(4));
  const auto placement = cluster.PlaceReplica(f.sketch);
  const auto job = cluster.RunQuery(f.sketch, placement, f.universe);
  ASSERT_TRUE(job.completed);
  EXPECT_EQ(job.tasks, f.sketch.index.NumPartitions());
  EXPECT_EQ(job.reexecuted_tasks, 0u);
  // Makespan between total/slots and total.
  const std::size_t total_slots = 4 * 2;
  EXPECT_GE(job.makespan_ms,
            job.total_task_ms / static_cast<double>(total_slots) - 1e-6);
  EXPECT_LE(job.makespan_ms, job.total_task_ms + 1e-6);
  // Noise-free, all-local total equals the environment's Eq. 7 sum.
  double expected = 0;
  for (std::size_t p = 0; p < f.sketch.index.NumPartitions(); ++p)
    expected += EnvironmentModel::LocalHadoop().PartitionScanMs(
        f.sketch.config.encoding, f.sketch.counts[p]);
  if (job.local_tasks == job.tasks) {
    EXPECT_NEAR(job.total_task_ms, expected, 1e-6);
  }
}

TEST(SimClusterTest, MoreNodesShrinkMakespan) {
  const Fixture f;
  double previous = std::numeric_limits<double>::infinity();
  for (const std::size_t nodes : {1u, 2u, 4u, 8u}) {
    SimCluster cluster(EnvironmentModel::LocalHadoop(), NoiseFree(nodes));
    const auto placement = cluster.PlaceReplica(f.sketch);
    const auto job = cluster.RunQuery(f.sketch, placement, f.universe);
    EXPECT_LE(job.makespan_ms, previous + 1e-6) << nodes << " nodes";
    previous = job.makespan_ms;
  }
}

TEST(SimClusterTest, LocalityIsHighWithReplication) {
  const Fixture f;
  ClusterConfig config = NoiseFree(8);
  config.replication = 3;
  SimCluster cluster(EnvironmentModel::LocalHadoop(), config);
  const auto placement = cluster.PlaceReplica(f.sketch);
  const auto job = cluster.RunQuery(f.sketch, placement, f.universe);
  EXPECT_GT(static_cast<double>(job.local_tasks) /
                static_cast<double>(job.tasks),
            0.8);
}

TEST(SimClusterTest, NodeFailureReexecutesInFlightTasks) {
  const Fixture f;
  ClusterConfig config = NoiseFree(4);
  config.replication = 2;
  SimCluster cluster(EnvironmentModel::LocalHadoop(), config);
  const auto placement = cluster.PlaceReplica(f.sketch);
  const auto healthy = cluster.RunQuery(f.sketch, placement, f.universe);

  // Fail node 0 early in the job: some tasks must re-execute and the
  // makespan must not improve.
  const FailureInjection failure{0, healthy.makespan_ms * 0.2};
  SimCluster cluster2(EnvironmentModel::LocalHadoop(), config);
  const auto placement2 = cluster2.PlaceReplica(f.sketch);
  const auto degraded =
      cluster2.RunQuery(f.sketch, placement2, f.universe, failure);
  ASSERT_TRUE(degraded.completed);
  EXPECT_GT(degraded.reexecuted_tasks, 0u);
  EXPECT_GE(degraded.makespan_ms, healthy.makespan_ms * 0.99);
}

TEST(SimClusterTest, SoleCopyLossFailsJobWithoutReplication) {
  const Fixture f;
  ClusterConfig config = NoiseFree(4);
  config.replication = 1;
  SimCluster cluster(EnvironmentModel::LocalHadoop(), config);
  const auto placement = cluster.PlaceReplica(f.sketch);
  // Fail a node that certainly hosts in-flight work right away.
  bool any_failed = false;
  for (std::size_t node = 0; node < 4; ++node) {
    const auto job = cluster.RunQuery(f.sketch, placement, f.universe,
                                      FailureInjection{node, 1.0});
    if (!job.completed) any_failed = true;
  }
  EXPECT_TRUE(any_failed);
}

TEST(SimClusterTest, ReplicatedDataSurvivesAnySingleFailure) {
  const Fixture f;
  ClusterConfig config = NoiseFree(6);
  config.replication = 3;
  SimCluster cluster(EnvironmentModel::LocalHadoop(), config);
  const auto placement = cluster.PlaceReplica(f.sketch);
  for (std::size_t node = 0; node < 6; ++node) {
    const auto job = cluster.RunQuery(f.sketch, placement, f.universe,
                                      FailureInjection{node, 1.0});
    EXPECT_TRUE(job.completed) << "node " << node;
  }
}

TEST(SimClusterTest, SpeculationMitigatesStragglersUnderHeavyNoise) {
  const Fixture f;
  // Heavy noise creates stragglers; speculation should cut the average
  // makespan and never lose more than noise-level variance.
  ClusterConfig base = NoiseFree(8);
  base.noise_fraction = 0.4;
  double plain_total = 0, spec_total = 0;
  std::size_t backups = 0, wins = 0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    ClusterConfig plain_config = base;
    plain_config.seed = seed;
    SimCluster plain(EnvironmentModel::LocalHadoop(), plain_config);
    const auto placement = plain.PlaceReplica(f.sketch);
    plain_total +=
        plain.RunQuery(f.sketch, placement, f.universe).makespan_ms;

    ClusterConfig spec_config = plain_config;
    spec_config.speculative_execution = true;
    SimCluster speculative(EnvironmentModel::LocalHadoop(), spec_config);
    const auto placement2 = speculative.PlaceReplica(f.sketch);
    const auto job =
        speculative.RunQuery(f.sketch, placement2, f.universe);
    spec_total += job.makespan_ms;
    backups += job.speculative_backups;
    wins += job.speculative_wins;
    EXPECT_TRUE(job.completed);
  }
  EXPECT_GT(backups, 0u);
  EXPECT_GT(wins, 0u);
  EXPECT_LT(spec_total, plain_total * 1.02);
}

TEST(SimClusterTest, SpeculationRescuesTasksOnDegradedNode) {
  const Fixture f;
  ClusterConfig config = NoiseFree(8);
  config.noise_fraction = 0.05;
  config.slow_node = 2;
  // Degraded enough that its tasks outlive the job's final wave — milder
  // slowdowns are absorbed by the greedy scheduler routing around the
  // node's busy slots.
  config.slow_factor = 10.0;

  SimCluster plain(EnvironmentModel::LocalHadoop(), config);
  const auto p1 = plain.PlaceReplica(f.sketch);
  const auto slow_job = plain.RunQuery(f.sketch, p1, f.universe);

  config.speculative_execution = true;
  SimCluster spec(EnvironmentModel::LocalHadoop(), config);
  const auto p2 = spec.PlaceReplica(f.sketch);
  const auto rescued = spec.RunQuery(f.sketch, p2, f.universe);

  EXPECT_GT(rescued.speculative_backups, 0u);
  EXPECT_GT(rescued.speculative_wins, 0u);
  EXPECT_LT(rescued.makespan_ms, slow_job.makespan_ms);
}

TEST(SimClusterTest, SlowFactorValidated) {
  ClusterConfig config = NoiseFree(4);
  config.slow_factor = 0.5;
  EXPECT_THROW(SimCluster(EnvironmentModel::LocalHadoop(), config),
               InvalidArgument);
}

TEST(SimClusterTest, SpeculationIsNoopWithoutNoise) {
  const Fixture f;
  ClusterConfig config = NoiseFree(4);
  config.speculative_execution = true;
  SimCluster cluster(EnvironmentModel::LocalHadoop(), config);
  const auto placement = cluster.PlaceReplica(f.sketch);
  const auto job = cluster.RunQuery(f.sketch, placement, f.universe);
  // No task overruns its expected duration, so nothing speculates.
  EXPECT_EQ(job.speculative_backups, 0u);
}

TEST(SimClusterTest, EmptyQueryIsFree) {
  const Fixture f;
  SimCluster cluster(EnvironmentModel::LocalHadoop(), NoiseFree(4));
  const auto placement = cluster.PlaceReplica(f.sketch);
  const auto job = cluster.RunQuery(f.sketch, placement,
                                    STRange::FromBounds(0, 1, 0, 1, 0, 1));
  EXPECT_EQ(job.tasks, 0u);
  EXPECT_EQ(job.makespan_ms, 0.0);
}

}  // namespace
}  // namespace blot
