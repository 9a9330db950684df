#include "obs/profile.h"

#include <gtest/gtest.h>

#include <string>

#include "obs/metrics.h"

namespace blot::obs {
namespace {

QueryProfile SampleProfile() {
  QueryProfile p;
  p.AddStage(Stage::kRoute, 0.25);
  p.AddStage(Stage::kExecute, 3.0, 4096);
  p.AddStage(Stage::kFailover, 0.75);
  p.AddStage(Stage::kCacheProbe, 0.1, 1024);
  p.AddStage(Stage::kDecode, 2.0, 4096);
  p.AddStage(Stage::kFilter, 0.5);
  p.partitions_touched = 6;
  p.partitions_skipped = 58;
  p.records_scanned = 1234;
  p.cache_hits = 2;
  p.cache_misses = 4;
  p.cache_hit_bytes = 1024;
  p.cache_miss_bytes = 4096;
  p.total_ms = 4.125;
  return p;
}

TEST(QueryProfileTest, StageNamesMatchEnumOrder) {
  EXPECT_EQ(StageName(Stage::kRoute), "route");
  EXPECT_EQ(StageName(Stage::kExecute), "execute");
  EXPECT_EQ(StageName(Stage::kFailover), "failover");
  EXPECT_EQ(StageName(Stage::kRepair), "repair");
  EXPECT_EQ(StageName(Stage::kCacheProbe), "cache_probe");
  EXPECT_EQ(StageName(Stage::kDecode), "decode");
  EXPECT_EQ(StageName(Stage::kFilter), "filter");
}

TEST(QueryProfileTest, AddStageAccumulates) {
  QueryProfile p;
  p.AddStage(Stage::kDecode, 1.5, 100);
  p.AddStage(Stage::kDecode, 0.5, 50);
  EXPECT_DOUBLE_EQ(p.stage(Stage::kDecode), 2.0);
  EXPECT_EQ(p.stage_bytes[static_cast<std::size_t>(Stage::kDecode)], 150u);
}

TEST(QueryProfileTest, TopLevelSumExcludesSubStages) {
  const QueryProfile p = SampleProfile();
  // route + execute + failover + repair only; cache_probe/decode/filter
  // nest inside execute and must not double-count.
  EXPECT_DOUBLE_EQ(p.TopLevelSumMs(), 0.25 + 3.0 + 0.75);
}

TEST(QueryProfileTest, RenderShowsStagesAndConsistencyLine) {
  const std::string text = SampleProfile().Render();
  EXPECT_NE(text.find("route"), std::string::npos);
  EXPECT_NE(text.find("decode"), std::string::npos);
  EXPECT_NE(text.find("total 4.125 ms (stages sum 4.000 ms)"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("partitions=6/64 cache_hits=2 cache_misses=4"),
            std::string::npos)
      << text;
  EXPECT_EQ(text.find("[parallel scan"), std::string::npos);
}

TEST(QueryProfileTest, RenderFlagsParallelScan) {
  QueryProfile p = SampleProfile();
  p.parallel_scan = true;
  EXPECT_NE(p.Render().find("[parallel scan"), std::string::npos);
}

TEST(QueryProfileMetricsTest, RecordProfileFillsStageHistograms) {
  MetricsRegistry& registry = MetricsRegistry::global();
  registry.Reset();
  registry.set_enabled(false);
  RecordProfile(SampleProfile());  // disabled: must not register/observe
  EXPECT_EQ(registry.Snapshot().FindCounter("query.profiled_total"),
            nullptr);

  registry.set_enabled(true);
  RecordProfile(SampleProfile());
  RecordProfile(SampleProfile());
  registry.set_enabled(false);

  const MetricsSnapshot snap = registry.Snapshot();
  const CounterSnapshot* profiled = snap.FindCounter("query.profiled_total");
  ASSERT_NE(profiled, nullptr);
  EXPECT_EQ(profiled->value, 2u);
  const HistogramSnapshot* decode =
      snap.FindHistogram("query.stage_ms", {{"stage", "decode"}});
  ASSERT_NE(decode, nullptr);
  EXPECT_EQ(decode->count, 2u);
  EXPECT_DOUBLE_EQ(decode->sum, 4.0);
  // The repair stage never ran: its histogram exists (registered by the
  // cached-handle table) but stays empty.
  const HistogramSnapshot* repair =
      snap.FindHistogram("query.stage_ms", {{"stage", "repair"}});
  ASSERT_NE(repair, nullptr);
  EXPECT_EQ(repair->count, 0u);
  const CounterSnapshot* decode_bytes =
      snap.FindCounter("query.stage_bytes_total", {{"stage", "decode"}});
  ASSERT_NE(decode_bytes, nullptr);
  EXPECT_EQ(decode_bytes->value, 2u * 4096u);
  registry.Reset();
}

}  // namespace
}  // namespace blot::obs
