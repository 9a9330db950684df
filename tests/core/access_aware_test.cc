#include "core/access_aware.h"

#include <filesystem>

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>

#include "blot/segment_store.h"
#include "gen/taxi_generator.h"
#include "util/error.h"

namespace blot {
namespace {

// A hand-built planning instance: 2 partitions x 2 codecs.
//   codec 0 "small/slow": sizes {10, 10}, scan 100 ms/krec
//   codec 1 "big/fast":   sizes {30, 30}, scan 10 ms/krec
// Partition 0 is hot (access 10), partition 1 cold (access 0.1); both
// hold 1000 records.
AccessAwareInputs TinyInputs() {
  AccessAwareInputs inputs;
  inputs.codec_choices = {CodecKind::kLzmaLike, CodecKind::kSnappyLike};
  inputs.sizes = {{10, 10}, {30, 30}};
  inputs.params = {{100.0, 0.0}, {10.0, 0.0}};
  inputs.access = {10.0, 0.1};
  inputs.counts = {1000, 1000};
  return inputs;
}

TEST(PlanAccessAwareTest, TightBudgetKeepsSmallestEverywhere) {
  const AccessAwarePlan plan = PlanAccessAwareEncoding(TinyInputs(), 20);
  EXPECT_EQ(plan.codecs,
            (std::vector<CodecKind>{CodecKind::kLzmaLike,
                                    CodecKind::kLzmaLike}));
  EXPECT_EQ(plan.total_bytes, 20u);
  // cost = 10*100 + 0.1*100.
  EXPECT_DOUBLE_EQ(plan.expected_cost_ms, 1010.0);
}

TEST(PlanAccessAwareTest, PartialBudgetUpgradesTheHotPartitionFirst) {
  // Room for exactly one upgrade (+20 bytes): the hot partition wins.
  const AccessAwarePlan plan = PlanAccessAwareEncoding(TinyInputs(), 40);
  EXPECT_EQ(plan.codecs[0], CodecKind::kSnappyLike);
  EXPECT_EQ(plan.codecs[1], CodecKind::kLzmaLike);
  EXPECT_DOUBLE_EQ(plan.expected_cost_ms, 10 * 10.0 + 0.1 * 100.0);
  EXPECT_EQ(plan.total_bytes, 40u);
}

TEST(PlanAccessAwareTest, LooseBudgetUpgradesEverything) {
  const AccessAwarePlan plan = PlanAccessAwareEncoding(TinyInputs(), 1000);
  EXPECT_EQ(plan.codecs[0], CodecKind::kSnappyLike);
  EXPECT_EQ(plan.codecs[1], CodecKind::kSnappyLike);
}

TEST(PlanAccessAwareTest, BudgetBelowFloorThrows) {
  EXPECT_THROW(PlanAccessAwareEncoding(TinyInputs(), 19), InvalidArgument);
}

TEST(PlanAccessAwareTest, RandomInstancesRespectBudgetAndBeatBaseline) {
  Rng rng(31);
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t partitions = 3 + rng.NextUint64(20);
    AccessAwareInputs inputs;
    inputs.codec_choices = {CodecKind::kLzmaLike, CodecKind::kGzipLike,
                            CodecKind::kSnappyLike};
    inputs.params = {{rng.NextDouble(50, 200), rng.NextDouble(0, 100)},
                     {rng.NextDouble(20, 100), rng.NextDouble(0, 100)},
                     {rng.NextDouble(5, 40), rng.NextDouble(0, 100)}};
    inputs.sizes.assign(3, std::vector<std::uint64_t>(partitions));
    inputs.access.resize(partitions);
    inputs.counts.resize(partitions);
    std::uint64_t floor_bytes = 0;
    for (std::size_t p = 0; p < partitions; ++p) {
      const std::uint64_t base = 100 + rng.NextUint64(1000);
      inputs.sizes[0][p] = base;
      inputs.sizes[1][p] = base + rng.NextUint64(500);
      inputs.sizes[2][p] = base + rng.NextUint64(1500);
      inputs.access[p] = rng.NextDouble(0.01, 5.0);
      inputs.counts[p] = 100 + rng.NextUint64(10000);
      floor_bytes += base;
    }
    const std::uint64_t budget =
        floor_bytes + rng.NextUint64(partitions * 1000);
    const AccessAwarePlan plan = PlanAccessAwareEncoding(inputs, budget);
    EXPECT_LE(plan.total_bytes, budget);
    // The plan never costs more than the all-smallest baseline.
    const AccessAwarePlan baseline =
        PlanAccessAwareEncoding(inputs, floor_bytes);
    EXPECT_LE(plan.expected_cost_ms, baseline.expected_cost_ms + 1e-9);
  }
}

// The build tests use the CPU-bound environment: in the paper's IO-bound
// environments LZMA is both smallest and fastest (Table II), so no
// per-partition trade-off exists and the planner correctly picks one
// codec everywhere.
struct BuildFixture {
  Dataset dataset;
  STRange universe;
  Workload workload;
  CostModel model{EnvironmentModel::CpuBoundLocal()};

  BuildFixture() {
    TaxiFleetConfig config;
    config.num_taxis = 10;
    config.samples_per_taxi = 400;
    dataset = GenerateTaxiFleet(config);
    universe = config.Universe();
    // Hot corner of space, frequently queried.
    workload.Add({{universe.Width() * 0.1, universe.Height() * 0.1,
                   universe.Duration() * 0.1}},
                 10.0);
    workload.Add({universe.Size()}, 0.1);
  }
};

TEST(BuildAccessAwareReplicaTest, RoundTripsAndRespectsBudget) {
  const BuildFixture f;
  // Budget: halfway between the smallest and largest uniform encodings.
  const Replica smallest = Replica::Build(
      f.dataset,
      {{.spatial_partitions = 8, .temporal_partitions = 4},
       EncodingScheme::FromName("ROW-LZMA")},
      f.universe);
  const Replica fastest = Replica::Build(
      f.dataset,
      {{.spatial_partitions = 8, .temporal_partitions = 4},
       EncodingScheme::FromName("ROW-PLAIN")},
      f.universe);
  const std::uint64_t budget =
      (smallest.StorageBytes() + fastest.StorageBytes()) / 2;

  const AccessAwareBuildResult result = BuildAccessAwareReplica(
      f.dataset, {.spatial_partitions = 8, .temporal_partitions = 4},
      Layout::kRow, f.universe, f.workload, f.model, budget);
  EXPECT_LE(result.replica.StorageBytes(), budget);
  EXPECT_EQ(result.replica.StorageBytes(), result.plan.total_bytes);
  EXPECT_EQ(result.replica.NumRecords(), f.dataset.size());

  // Queries still return exact ground truth.
  Rng rng(3);
  const STRange query = SampleQueryInstance(
      {{f.universe.Width() * 0.2, f.universe.Height() * 0.2,
        f.universe.Duration() * 0.2}},
      f.universe, rng);
  EXPECT_EQ(result.replica.Execute(query).records.size(),
            f.dataset.FilterByRange(query).size());

  // A mid-range budget should produce a genuine mix of codecs.
  const std::set<CodecKind> used(result.plan.codecs.begin(),
                                 result.plan.codecs.end());
  EXPECT_GE(used.size(), 2u);
}

// Access-aware partitions carry the same exact zones as Build's, so a
// query skips exactly the partitions a uniform replica of the same
// partitioning skips.
TEST(BuildAccessAwareReplicaTest, ZoneSkipsMatchAUniformBuild) {
  const BuildFixture f;
  const PartitioningSpec spec{.spatial_partitions = 16,
                              .temporal_partitions = 8};
  const Replica uniform = Replica::Build(
      f.dataset, {spec, EncodingScheme::FromName("ROW-SNAPPY")}, f.universe);
  const Replica aware =
      BuildAccessAwareReplica(f.dataset, spec, Layout::kRow, f.universe,
                              f.workload, f.model,
                              std::numeric_limits<std::uint64_t>::max())
          .replica;
  ASSERT_EQ(aware.NumPartitions(), uniform.NumPartitions());
  for (std::size_t p = 0; p < aware.NumPartitions(); ++p) {
    ASSERT_EQ(aware.partition(p).has_zone, uniform.partition(p).has_zone);
    if (uniform.partition(p).has_zone) {
      EXPECT_EQ(aware.partition(p).zone, uniform.partition(p).zone)
          << "partition " << p;
    }
  }

  Rng rng(9);
  std::size_t skips = 0;
  for (int trial = 0; trial < 50; ++trial) {
    const STRange query = SampleQueryInstance(
        {{f.universe.Width() * 0.05, f.universe.Height() * 0.05,
          f.universe.Duration() * 0.2}},
        f.universe, rng);
    for (std::size_t p = 0; p < aware.NumPartitions(); ++p) {
      EXPECT_EQ(aware.ZoneExcludes(p, query), uniform.ZoneExcludes(p, query))
          << "trial " << trial << " partition " << p;
      skips += aware.ZoneExcludes(p, query);
    }
    EXPECT_EQ(aware.Execute(query).stats.partitions_scanned,
              uniform.Execute(query).stats.partitions_scanned)
        << "trial " << trial;
  }
  EXPECT_GT(skips, 0u);
}

TEST(BuildAccessAwareReplicaTest, HotPartitionsGetFasterCodecs) {
  const BuildFixture f;
  const PartitioningSpec spec{.spatial_partitions = 16,
                              .temporal_partitions = 4};
  // A budget tight enough that only some partitions can upgrade — the
  // planner must spend it on the hot ones.
  const Replica smallest = Replica::Build(
      f.dataset, {spec, EncodingScheme::FromName("ROW-LZMA")}, f.universe);
  const AccessAwareBuildResult result = BuildAccessAwareReplica(
      f.dataset, spec, Layout::kRow, f.universe, f.workload, f.model,
      smallest.StorageBytes() * 9 / 8);
  PartitionedData pd = PartitionDataset(f.dataset, spec, f.universe);
  const PartitionIndex index(std::move(pd.ranges));
  const std::vector<double> access =
      PartitionAccessFrequencies(index, f.universe, f.workload);
  // Mean access of upgraded (non-smallest-codec) partitions exceeds the
  // mean access of the ones kept smallest.
  double upgraded_access = 0, kept_access = 0;
  std::size_t upgraded = 0, kept = 0;
  for (std::size_t p = 0; p < result.plan.codecs.size(); ++p) {
    if (result.plan.codecs[p] == CodecKind::kLzmaLike) {
      kept_access += access[p];
      ++kept;
    } else {
      upgraded_access += access[p];
      ++upgraded;
    }
  }
  ASSERT_GT(upgraded, 0u);
  ASSERT_GT(kept, 0u);
  EXPECT_GT(upgraded_access / static_cast<double>(upgraded),
            kept_access / static_cast<double>(kept));
}

TEST(BuildAccessAwareReplicaTest, PlanPersistsThroughSegmentStore) {
  // The per-partition codec choices must survive a save/load cycle.
  const BuildFixture f;
  const AccessAwareBuildResult result = BuildAccessAwareReplica(
      f.dataset, {.spatial_partitions = 8, .temporal_partitions = 4},
      Layout::kRow, f.universe, f.workload, f.model,
      static_cast<std::uint64_t>(f.dataset.size()) * kRecordRowBytes);
  const auto dir = std::filesystem::temp_directory_path() /
                   "blot_access_aware_persist_test";
  std::filesystem::remove_all(dir);
  SegmentStore::Save(result.replica, dir);
  const Replica loaded = SegmentStore::Load(dir);
  std::filesystem::remove_all(dir);
  ASSERT_EQ(loaded.NumPartitions(), result.replica.NumPartitions());
  for (std::size_t p = 0; p < loaded.NumPartitions(); ++p)
    EXPECT_EQ(loaded.partition(p).codec, result.plan.codecs[p]);
  EXPECT_EQ(loaded.Reconstruct().size(), f.dataset.size());
}

TEST(BuildAccessAwareReplicaTest, RestorePartitionKeepsThePlannedCodec) {
  // Repairing a partition from its own records must give back the
  // planned codec and the same bytes, not the policy's smallest codec.
  const BuildFixture f;
  const PartitioningSpec spec{.spatial_partitions = 8,
                              .temporal_partitions = 4};
  const Replica smallest = Replica::Build(
      f.dataset, {spec, EncodingScheme::FromName("ROW-LZMA")}, f.universe);
  const Replica fastest = Replica::Build(
      f.dataset, {spec, EncodingScheme::FromName("ROW-PLAIN")}, f.universe);
  AccessAwareBuildResult result = BuildAccessAwareReplica(
      f.dataset, spec, Layout::kRow, f.universe, f.workload, f.model,
      (smallest.StorageBytes() + fastest.StorageBytes()) / 2);
  Replica& replica = result.replica;
  const std::set<CodecKind> used(result.plan.codecs.begin(),
                                 result.plan.codecs.end());
  ASSERT_GE(used.size(), 2u);
  const std::uint64_t bytes = replica.StorageBytes();
  for (std::size_t p = 0; p < replica.NumPartitions(); ++p) {
    const Bytes data = replica.partition(p).data;
    replica.RestorePartition(p, replica.DecodePartitionRecords(p));
    EXPECT_EQ(replica.partition(p).codec, result.plan.codecs[p]) << p;
    EXPECT_EQ(replica.partition(p).data, data) << p;
  }
  EXPECT_EQ(replica.StorageBytes(), bytes);
}

TEST(PartitionAccessFrequenciesTest, HotRegionGetsMoreAccess) {
  const BuildFixture f;
  PartitionedData pd = PartitionDataset(
      f.dataset, {.spatial_partitions = 16, .temporal_partitions = 4},
      f.universe);
  const PartitionIndex index(std::move(pd.ranges));
  const auto access = PartitionAccessFrequencies(index, f.universe,
                                                 f.workload);
  ASSERT_EQ(access.size(), index.NumPartitions());
  // Every partition is touched by the full-scan query at least.
  for (double a : access) EXPECT_GE(a, 0.1 - 1e-9);
  // And the small frequent query makes some partitions much hotter.
  const double max_access = *std::max_element(access.begin(), access.end());
  const double min_access = *std::min_element(access.begin(), access.end());
  EXPECT_GT(max_access, min_access * 2);
}

}  // namespace
}  // namespace blot
