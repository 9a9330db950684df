#include "obs/drift_monitor.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "obs/event_log.h"
#include "obs/metrics.h"
#include "util/error.h"

namespace blot::obs {
namespace {

std::size_t CountCategory(const EventLog& log, std::string_view category) {
  std::size_t n = 0;
  for (const Event& e : log.Recent(256))
    if (e.category == category) ++n;
  return n;
}

TEST(CostDriftMonitorTest, RejectsDegenerateOptions) {
  EXPECT_THROW(CostDriftMonitor({.window = 0}), InvalidArgument);
  EXPECT_THROW(CostDriftMonitor({.min_samples = 0}), InvalidArgument);
  EXPECT_THROW(CostDriftMonitor({.alert_error_pct = 0.0}), InvalidArgument);
}

TEST(CostDriftMonitorTest, IgnoresUnmeasuredProfiles) {
  CostDriftMonitor monitor;
  monitor.Observe(0, 1.0, 0.0);  // failed before execution
  EXPECT_EQ(monitor.StatsFor(0).samples, 0u);
  EXPECT_TRUE(monitor.AllStats().empty());
}

TEST(CostDriftMonitorTest, TracksSignedAndAbsoluteErrorPerReplica) {
  CostDriftMonitor monitor;
  // Replica 0: model underestimates by 50% (measured 2x estimate).
  monitor.Observe(0, 1.0, 2.0);
  // Replica 1: model overestimates by 100% of measured.
  monitor.Observe(1, 2.0, 1.0);

  const auto r0 = monitor.StatsFor(0);
  EXPECT_EQ(r0.samples, 1u);
  EXPECT_DOUBLE_EQ(r0.mean_abs_error_pct, 50.0);
  EXPECT_DOUBLE_EQ(r0.mean_signed_error_pct, 50.0);
  const auto r1 = monitor.StatsFor(1);
  EXPECT_DOUBLE_EQ(r1.mean_abs_error_pct, 100.0);
  EXPECT_DOUBLE_EQ(r1.mean_signed_error_pct, -100.0);
  EXPECT_DOUBLE_EQ(r1.max_abs_error_pct, 100.0);

  const auto all = monitor.AllStats();
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].first, 0u);  // sorted by replica index
  EXPECT_EQ(all[1].first, 1u);
  EXPECT_EQ(monitor.StatsFor(7).samples, 0u);  // never seen
}

TEST(CostDriftMonitorTest, WindowSlidesAndForgets) {
  CostDriftMonitor monitor({.window = 4, .min_samples = 2,
                            .alert_error_pct = 25.0});
  // Fill the window with perfect predictions, then four bad ones: the
  // good samples must age out entirely.
  for (int i = 0; i < 4; ++i) monitor.Observe(0, 1.0, 1.0);
  EXPECT_DOUBLE_EQ(monitor.StatsFor(0).mean_abs_error_pct, 0.0);
  for (int i = 0; i < 4; ++i) monitor.Observe(0, 1.0, 2.0);
  const auto stats = monitor.StatsFor(0);
  EXPECT_EQ(stats.samples, 4u);
  EXPECT_DOUBLE_EQ(stats.mean_abs_error_pct, 50.0);
}

TEST(CostDriftMonitorTest, AlertsOnTransitionAndClearsOnRecovery) {
  EventLog& log = EventLog::Global();
  log.ResetForTest();
  log.set_enabled(true);

  CostDriftMonitor monitor({.window = 8, .min_samples = 2,
                            .alert_error_pct = 25.0});
  // Below min_samples: no alert no matter how wrong the model is.
  monitor.Observe(0, 1.0, 10.0);
  EXPECT_FALSE(monitor.AnyAlerting());
  EXPECT_EQ(CountCategory(log, "cost_drift.alert"), 0u);

  // Second bad sample crosses min_samples and the threshold: exactly one
  // alert fires, and staying bad does not re-fire it.
  monitor.Observe(0, 1.0, 10.0);
  EXPECT_TRUE(monitor.AnyAlerting());
  EXPECT_TRUE(monitor.StatsFor(0).alerting);
  monitor.Observe(0, 1.0, 10.0);
  EXPECT_EQ(CountCategory(log, "cost_drift.alert"), 1u);

  // Flood with perfect predictions until the mean drops back under the
  // threshold: one clear event on the way down.
  for (int i = 0; i < 8; ++i) monitor.Observe(0, 1.0, 1.0);
  EXPECT_FALSE(monitor.AnyAlerting());
  EXPECT_EQ(CountCategory(log, "cost_drift.alert"), 1u);
  EXPECT_EQ(CountCategory(log, "cost_drift.clear"), 1u);

  log.set_enabled(false);
  log.ResetForTest();
}

TEST(CostDriftMonitorTest, UpdatesGaugesWhenRegistryEnabled) {
  MetricsRegistry& registry = MetricsRegistry::global();
  registry.Reset();
  registry.set_enabled(true);
  CostDriftMonitor monitor({.window = 8, .min_samples = 1,
                            .alert_error_pct = 25.0});
  monitor.Observe(3, 1.0, 2.0);
  registry.set_enabled(false);

  const MetricsSnapshot snap = registry.Snapshot();
  const Labels labels = {{"replica", "3"}};
  bool found_error = false, found_alerting = false;
  for (const GaugeSnapshot& g : snap.gauges) {
    if (g.name == "cost_drift.error_pct" && g.labels == labels) {
      EXPECT_DOUBLE_EQ(g.value, 50.0);
      found_error = true;
    }
    if (g.name == "cost_drift.alerting" && g.labels == labels) {
      EXPECT_DOUBLE_EQ(g.value, 1.0);
      found_alerting = true;
    }
  }
  EXPECT_TRUE(found_error);
  EXPECT_TRUE(found_alerting);
  registry.Reset();
}

}  // namespace
}  // namespace blot::obs
