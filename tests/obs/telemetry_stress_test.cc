// Concurrency stress for the telemetry stack, run under the TSan CI job
// (test names carry the `Metrics` prefix the job's -R regex selects):
// many writer threads hammer the registry while the snapshotter samples
// it, and many threads emit events (across every severity) while a
// reader drains Recent() and a flusher forces sink drains.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/event_log.h"
#include "obs/metrics.h"
#include "obs/snapshot.h"

namespace blot::obs {
namespace {

constexpr int kThreads = 8;
constexpr int kOpsPerThread = 2000;

TEST(MetricsTelemetryStressTest, RegistryUnderConcurrentWritesAndSnapshots) {
  MetricsRegistry registry;
  SnapshotterOptions options;
  options.interval = std::chrono::milliseconds(1);
  options.capacity = 16;
  MetricsSnapshotter snapshotter(options, &registry);
  snapshotter.Start();

  std::atomic<bool> go{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&registry, &go, t] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      // Mix of shared handles (contended atomics) and per-thread labels
      // (registration racing registration and Snapshot()).
      Counter& shared = registry.GetCounter("stress.shared_total");
      Counter& mine = registry.GetCounter(
          "stress.per_thread_total", {{"t", std::to_string(t)}});
      Histogram& lat = registry.GetHistogram("stress.lat_ms");
      for (int i = 0; i < kOpsPerThread; ++i) {
        shared.Increment();
        mine.Increment();
        lat.Observe(double(i % 7) * 0.5);
        registry.GetGauge("stress.depth", {{"t", std::to_string(t)}})
            .Set(double(i));
      }
    });
  }
  go.store(true, std::memory_order_release);
  for (std::thread& w : writers) w.join();
  snapshotter.Stop();

  const MetricsSnapshot snap = registry.Snapshot();
  const CounterSnapshot* shared = snap.FindCounter("stress.shared_total");
  ASSERT_NE(shared, nullptr);
  EXPECT_EQ(shared->value,
            std::uint64_t(kThreads) * std::uint64_t(kOpsPerThread));
  const HistogramSnapshot* lat = snap.FindHistogram("stress.lat_ms");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->count,
            std::uint64_t(kThreads) * std::uint64_t(kOpsPerThread));
  EXPECT_GE(snapshotter.samples_taken(), 1u);
  // The serialized ring must still reconstruct (no torn lines).
  EXPECT_FALSE(snapshotter.ToJsonl().empty());
}

TEST(MetricsTelemetryStressTest, EventLogUnderConcurrentEmitReadFlush) {
  const std::string path =
      std::string(::testing::TempDir()) + "/telemetry_stress_events.jsonl";
  std::remove(path.c_str());
  EventLog log;
  log.OpenSink(path);

  std::atomic<bool> go{false};
  std::atomic<bool> done{false};
  std::vector<std::thread> emitters;
  for (int t = 0; t < kThreads; ++t) {
    emitters.emplace_back([&log, &go, t] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (int i = 0; i < kOpsPerThread; ++i) {
        switch (i % 3) {
          case 0:
            log.Info("stress.info", "info", {Field("t", t), Field("i", i)});
            break;
          case 1:
            log.Warn("stress.warn", "warn", {Field("t", t)});
            break;
          default:
            log.Emit(EventSeverity::kError, "stress.error", "error");
        }
      }
    });
  }
  std::thread reader([&log, &go, &done] {
    while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
    while (!done.load(std::memory_order_acquire)) {
      for (const Event& e : log.Recent(32)) {
        EXPECT_FALSE(e.category.empty());
        EXPECT_GE(e.seq, 1u);
      }
      log.Flush();
    }
  });
  go.store(true, std::memory_order_release);
  for (std::thread& e : emitters) e.join();
  done.store(true, std::memory_order_release);
  reader.join();
  log.CloseSink();

  // Every emission is kept: none may be lost to the race.
  EXPECT_EQ(log.emitted(),
            std::uint64_t(kThreads) * std::uint64_t(kOpsPerThread));

  // Every line in the sink is a complete JSONL record (no interleaved
  // partial writes), and seq values are unique.
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  std::uint64_t lines = 0;
  while (std::getline(in, line)) {
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    ++lines;
  }
  EXPECT_EQ(lines, log.emitted());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace blot::obs
