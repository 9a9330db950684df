// Hammers one registry from every pool worker at once: registration
// races, counter increments and histogram observations must all land
// without losing updates.
#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "util/thread_pool.h"

namespace blot::obs {
namespace {

TEST(MetricsConcurrencyTest, CountersAreExactUnderThreadPoolLoad) {
  MetricsRegistry registry;
  constexpr std::size_t kTasks = 64;
  constexpr std::size_t kIncrementsPerTask = 10000;

  ThreadPool pool(8);
  pool.ParallelFor(kTasks, [&](std::size_t) {
    Counter& counter = registry.GetCounter("race.total");
    for (std::size_t i = 0; i < kIncrementsPerTask; ++i)
      counter.Increment();
  });
  EXPECT_EQ(registry.GetCounter("race.total").value(),
            kTasks * kIncrementsPerTask);
}

TEST(MetricsConcurrencyTest, ConcurrentRegistrationYieldsOneInstance) {
  MetricsRegistry registry;
  constexpr std::size_t kTasks = 64;
  std::vector<Counter*> seen(kTasks, nullptr);

  ThreadPool pool(8);
  pool.ParallelFor(kTasks, [&](std::size_t t) {
    // Every task races to register the same 8 labeled metrics.
    for (int k = 0; k < 8; ++k) {
      Counter& c = registry.GetCounter(
          "conc.total", {{"k", std::to_string(k)}});
      c.Increment();
      if (k == 0) seen[t] = &c;
    }
  });
  for (std::size_t t = 1; t < kTasks; ++t)
    EXPECT_EQ(seen[t], seen[0]) << "task " << t << " got a different "
                                << "instance for the same key";
  for (int k = 0; k < 8; ++k)
    EXPECT_EQ(registry
                  .GetCounter("conc.total", {{"k", std::to_string(k)}})
                  .value(),
              kTasks);
}

TEST(MetricsConcurrencyTest, HistogramCountMatchesObservationsUnderLoad) {
  MetricsRegistry registry;
  constexpr std::size_t kTasks = 32;
  constexpr std::size_t kObsPerTask = 5000;

  ThreadPool pool(8);
  pool.ParallelFor(kTasks, [&](std::size_t t) {
    Histogram& h = registry.GetHistogram("race.ms");
    for (std::size_t i = 0; i < kObsPerTask; ++i)
      h.Observe(double(t % 7) * 0.01);
  });
  const Histogram& h = registry.GetHistogram("race.ms");
  EXPECT_EQ(h.count(), kTasks * kObsPerTask);
  // Per-bucket tallies must agree with the total.
  std::uint64_t bucket_sum = 0;
  for (std::uint64_t c : h.counts()) bucket_sum += c;
  EXPECT_EQ(bucket_sum, kTasks * kObsPerTask);
}

TEST(MetricsConcurrencyTest, SnapshotWhileWritingIsConsistent) {
  MetricsRegistry registry;
  ThreadPool pool(4);
  std::atomic<bool> stop{false};
  auto writer = pool.Submit([&] {
    Counter& c = registry.GetCounter("live.total");
    while (!stop.load(std::memory_order_relaxed)) c.Increment();
  });
  // Snapshots taken mid-stream must be internally sane, never torn.
  for (int i = 0; i < 50; ++i) {
    const MetricsSnapshot snap = registry.Snapshot();
    if (const CounterSnapshot* c = snap.FindCounter("live.total")) {
      EXPECT_LE(c->value, registry.GetCounter("live.total").value());
    }
  }
  stop.store(true);
  writer.get();
}

}  // namespace
}  // namespace blot::obs
