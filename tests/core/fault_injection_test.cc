// The fault injector's contract: deterministic per (seed, replica,
// partition), spec grammar round-trips, bounded fire budgets, and
// mutation helpers that really change bytes. The integration with the
// Replica read path is covered by failover_test.cc; this file pins the
// injector itself.
#include "core/fault_injection.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "util/error.h"

namespace blot {
namespace {

Bytes MakeBytes(std::size_t n) {
  Bytes data(n);
  for (std::size_t i = 0; i < n; ++i)
    data[i] = static_cast<std::uint8_t>(i * 37 + 11);
  return data;
}

TEST(FaultSpecTest, ParsesEveryKey) {
  const FaultPlan plan = ParseFaultSpec(
      "seed=42;p=0.5;kinds=bitflip,readerror;replica=KD4xT4/ROW-SNAPPY;"
      "partition=3;fires=2;latency=9");
  EXPECT_EQ(plan.seed, 42u);
  EXPECT_DOUBLE_EQ(plan.probability, 0.5);
  ASSERT_EQ(plan.kinds.size(), 2u);
  EXPECT_EQ(plan.kinds[0], FaultKind::kBitFlip);
  EXPECT_EQ(plan.kinds[1], FaultKind::kReadError);
  EXPECT_EQ(plan.replica, "KD4xT4/ROW-SNAPPY");
  ASSERT_TRUE(plan.partition.has_value());
  EXPECT_EQ(*plan.partition, 3u);
  EXPECT_EQ(plan.max_fires_per_target, 2u);
  EXPECT_EQ(plan.latency_ms, 9u);
}

TEST(FaultSpecTest, DefaultsMatchFaultPlanDefaults) {
  const FaultPlan parsed = ParseFaultSpec("seed=7");
  const FaultPlan defaults;
  EXPECT_DOUBLE_EQ(parsed.probability, defaults.probability);
  EXPECT_EQ(parsed.kinds.size(), defaults.kinds.size());
  EXPECT_EQ(parsed.replica, defaults.replica);
  EXPECT_FALSE(parsed.partition.has_value());
  EXPECT_EQ(parsed.max_fires_per_target, defaults.max_fires_per_target);
}

TEST(FaultSpecTest, RejectsMalformedSpecs) {
  EXPECT_THROW(ParseFaultSpec("bogus=1"), InvalidArgument);
  EXPECT_THROW(ParseFaultSpec("seed=notanumber"), InvalidArgument);
  EXPECT_THROW(ParseFaultSpec("p=2.5"), InvalidArgument);
  EXPECT_THROW(ParseFaultSpec("kinds=frobnicate"), InvalidArgument);
  EXPECT_THROW(ParseFaultSpec("seed"), InvalidArgument);
}

TEST(FaultSpecTest, ParsesLatencyDistributions) {
  const FaultPlan pareto = ParseFaultSpec("kinds=latency;latency=pareto:5:50");
  EXPECT_EQ(pareto.latency_dist, FaultPlan::LatencyDist::kPareto);
  EXPECT_DOUBLE_EQ(pareto.latency_min, 5.0);
  EXPECT_DOUBLE_EQ(pareto.latency_max, 50.0);

  const FaultPlan spike =
      ParseFaultSpec("kinds=latency;latency=spike:200:0.05");
  EXPECT_EQ(spike.latency_dist, FaultPlan::LatencyDist::kSpike);
  EXPECT_DOUBLE_EQ(spike.latency_min, 200.0);
  EXPECT_DOUBLE_EQ(spike.spike_probability, 0.05);

  // The scalar grammar keeps its original fixed-delay meaning.
  const FaultPlan fixed = ParseFaultSpec("kinds=latency;latency=7");
  EXPECT_EQ(fixed.latency_dist, FaultPlan::LatencyDist::kFixed);
  EXPECT_EQ(fixed.latency_ms, 7u);
}

TEST(FaultSpecTest, RejectsMalformedLatencyDistributions) {
  EXPECT_THROW(ParseFaultSpec("latency=pareto:5"), InvalidArgument);
  EXPECT_THROW(ParseFaultSpec("latency=pareto:50:5"), InvalidArgument);
  EXPECT_THROW(ParseFaultSpec("latency=pareto:0:5"), InvalidArgument);
  EXPECT_THROW(ParseFaultSpec("latency=pareto:abc:5"), InvalidArgument);
  EXPECT_THROW(ParseFaultSpec("latency=spike:200"), InvalidArgument);
  EXPECT_THROW(ParseFaultSpec("latency=spike:200:1.5"), InvalidArgument);
  EXPECT_THROW(ParseFaultSpec("latency=spike:0:0.5"), InvalidArgument);
  EXPECT_THROW(ParseFaultSpec("latency=weibull:1:2"), InvalidArgument);
}

TEST(FaultInjectorTest, SuspendMakesReadsCleanWithoutTouchingBudgets) {
  FaultInjector injector;
  FaultPlan plan;
  plan.seed = 11;
  plan.probability = 1.0;
  plan.max_fires_per_target = 1;
  injector.Arm(plan);

  {
    // Every read under suspension is clean, however many targets fire
    // without it.
    FaultInjector::Suspend suspend(injector);
    for (std::size_t p = 0; p < 16; ++p)
      EXPECT_FALSE(injector.OnPartitionRead("R", p, 64).fire);
    EXPECT_EQ(injector.stats().fired_total, 0u);
  }

  // The suspended reads consumed no fire budget: each target's single
  // allotted fire is still available afterwards.
  std::size_t fired = 0;
  for (std::size_t p = 0; p < 16; ++p)
    if (injector.OnPartitionRead("R", p, 64).fire) ++fired;
  EXPECT_EQ(fired, 16u);
  // And the budget now really is spent.
  for (std::size_t p = 0; p < 16; ++p)
    EXPECT_FALSE(injector.OnPartitionRead("R", p, 64).fire);
}

TEST(FaultInjectorTest, DecisionsAreDeterministicPerSeed) {
  FaultPlan plan;
  plan.seed = 1234;
  plan.probability = 0.5;
  plan.max_fires_per_target = 0;  // never exhaust, so re-reads compare
  FaultInjector a;
  a.Arm(plan);
  FaultInjector b;
  b.Arm(plan);
  for (std::size_t p = 0; p < 64; ++p) {
    const FaultDecision da = a.OnPartitionRead("R", p, 100);
    const FaultDecision db = b.OnPartitionRead("R", p, 100);
    EXPECT_EQ(da.fire, db.fire) << "partition " << p;
    if (da.fire) {
      EXPECT_EQ(da.kind, db.kind) << "partition " << p;
      EXPECT_EQ(da.param, db.param) << "partition " << p;
    }
  }
  // A different seed must not reproduce the same firing pattern.
  plan.seed = 99;
  FaultInjector c;
  c.Arm(plan);
  std::size_t differing = 0;
  for (std::size_t p = 0; p < 64; ++p)
    if (c.OnPartitionRead("R", p, 100).fire !=
        a.OnPartitionRead("R", p, 100).fire)
      ++differing;
  EXPECT_GT(differing, 0u);
}

TEST(FaultInjectorTest, ProbabilityBoundsFiring) {
  FaultPlan plan;
  plan.probability = 0.0;
  FaultInjector never;
  never.Arm(plan);
  for (std::size_t p = 0; p < 32; ++p)
    EXPECT_FALSE(never.OnPartitionRead("R", p, 64).fire);
  plan.probability = 1.0;
  FaultInjector always;
  always.Arm(plan);
  for (std::size_t p = 0; p < 32; ++p)
    EXPECT_TRUE(always.OnPartitionRead("R", p, 64).fire);
}

TEST(FaultInjectorTest, FireBudgetSilencesTargetAfterExhaustion) {
  FaultPlan plan;
  plan.max_fires_per_target = 1;
  FaultInjector injector;
  injector.Arm(plan);
  EXPECT_TRUE(injector.OnPartitionRead("R", 0, 64).fire);
  EXPECT_FALSE(injector.OnPartitionRead("R", 0, 64).fire);
  // Other targets keep their own budgets.
  EXPECT_TRUE(injector.OnPartitionRead("R", 1, 64).fire);
  EXPECT_TRUE(injector.OnPartitionRead("S", 0, 64).fire);

  plan.max_fires_per_target = 0;  // unlimited
  injector.Arm(plan);
  for (int i = 0; i < 5; ++i)
    EXPECT_TRUE(injector.OnPartitionRead("R", 0, 64).fire);
}

TEST(FaultInjectorTest, TargetingRestrictsReplicaAndPartition) {
  FaultPlan plan;
  plan.replica = "VICTIM";
  plan.partition = 7;
  FaultInjector injector;
  injector.Arm(plan);
  EXPECT_FALSE(injector.OnPartitionRead("OTHER", 7, 64).fire);
  EXPECT_FALSE(injector.OnPartitionRead("VICTIM", 6, 64).fire);
  EXPECT_TRUE(injector.OnPartitionRead("VICTIM", 7, 64).fire);
}

TEST(FaultInjectorTest, EmptyPartitionsOnlySufferNonMutationFaults) {
  FaultPlan plan;  // corruption kinds only
  FaultInjector injector;
  injector.Arm(plan);
  // data_size 0: nothing to mutate, so the read must pass untouched.
  EXPECT_FALSE(injector.OnPartitionRead("R", 0, 0).fire);
  plan.kinds = {FaultKind::kReadError};
  injector.Arm(plan);
  EXPECT_TRUE(injector.OnPartitionRead("R", 0, 0).fire);
}

TEST(FaultInjectorTest, StatsCountFiresByKindAndTarget) {
  FaultPlan plan;
  plan.kinds = {FaultKind::kReadError};
  FaultInjector injector;
  injector.Arm(plan);
  for (std::size_t p = 0; p < 4; ++p) injector.OnPartitionRead("R", p, 64);
  injector.OnPartitionRead("R", 0, 64);  // budget exhausted, no fire
  const FaultInjector::Stats stats = injector.stats();
  EXPECT_EQ(stats.fired_total, 4u);
  EXPECT_EQ(stats.read_errors, 4u);
  EXPECT_EQ(stats.targets_hit, 4u);
  EXPECT_EQ(stats.bit_flips + stats.truncations + stats.torn_reads, 0u);
  // Disarm keeps stats; re-arm resets them.
  injector.Disarm();
  EXPECT_EQ(injector.stats().fired_total, 4u);
  injector.Arm(plan);
  EXPECT_EQ(injector.stats().fired_total, 0u);
}

TEST(FaultInjectorTest, DisarmedInjectorNeverFires) {
  FaultInjector injector;
  EXPECT_FALSE(injector.enabled());
  EXPECT_FALSE(injector.OnPartitionRead("R", 0, 64).fire);
  injector.Arm({});
  EXPECT_TRUE(injector.enabled());
  injector.Disarm();
  EXPECT_FALSE(injector.OnPartitionRead("R", 1, 64).fire);
}

TEST(FaultMutationTest, FlipBitChangesExactlyOneBit) {
  Bytes data = MakeBytes(32);
  const Bytes original = data;
  FaultInjector::FlipBit(data, 1000);
  ASSERT_EQ(data.size(), original.size());
  std::size_t bits_changed = 0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    std::uint8_t diff = data[i] ^ original[i];
    while (diff != 0) {
      bits_changed += diff & 1;
      diff >>= 1;
    }
  }
  EXPECT_EQ(bits_changed, 1u);
  Bytes empty;
  FaultInjector::FlipBit(empty, 5);  // must not crash
  EXPECT_TRUE(empty.empty());
}

TEST(FaultMutationTest, TruncateAlwaysShortensNonEmptyData) {
  for (std::uint64_t salt = 0; salt < 16; ++salt) {
    Bytes data = MakeBytes(64);
    FaultInjector::Truncate(data, salt);
    EXPECT_LT(data.size(), 64u) << "salt " << salt;
  }
}

TEST(FaultMutationTest, ZeroTailZeroesASuffix) {
  Bytes data = MakeBytes(64);
  const Bytes original = data;
  FaultInjector::ZeroTail(data, 3);
  ASSERT_EQ(data.size(), original.size());
  // Find the first changed byte; everything after it must be zero.
  std::size_t first = 0;
  while (first < data.size() && data[first] == original[first]) ++first;
  ASSERT_LT(first, data.size()) << "torn read changed nothing";
  for (std::size_t i = first; i < data.size(); ++i)
    EXPECT_EQ(data[i], 0u) << "byte " << i;
}

TEST(FaultMutationTest, ApplyMutationRejectsNonMutationKinds) {
  Bytes data = MakeBytes(16);
  EXPECT_THROW(
      FaultInjector::ApplyMutation(data, FaultKind::kReadError, 1),
      InvalidArgument);
  EXPECT_THROW(FaultInjector::ApplyMutation(data, FaultKind::kLatency, 1),
               InvalidArgument);
  FaultInjector::ApplyMutation(data, FaultKind::kBitFlip, 1);
  EXPECT_NE(data, MakeBytes(16));
}

TEST(FaultMutationTest, CorruptFileMutatesOnDisk) {
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() / "blot_corrupt_file_test.bin";
  const Bytes original = MakeBytes(128);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(original.data()),
              static_cast<std::streamsize>(original.size()));
  }
  FaultInjector::CorruptFile(path, FaultKind::kBitFlip, 17);
  std::ifstream in(path, std::ios::binary);
  const Bytes mutated((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_EQ(mutated.size(), original.size());
  EXPECT_NE(mutated, original);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace blot
