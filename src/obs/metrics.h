// Process-wide metrics for the BLOT store: counters, gauges and
// fixed-bucket histograms, keyed by name + label set.
//
// The registry exists so that the cost model's estimates (Eq. 6-12) can be
// compared against what execution actually does: every routed query
// records its estimated and measured cost, every partition decode its
// codec and duration, and so on (see docs/observability.md for the metric
// catalogue). Instrumented hot paths guard their clock reads with
// MetricsRegistry::enabled(), a single relaxed atomic load, so the layer
// costs nothing when disabled; metric objects themselves are lock-free
// atomics and are always safe to touch from any thread.
//
// Metric handles returned by GetCounter/GetGauge/GetHistogram are stable
// for the registry's lifetime — hot call sites look them up once and cache
// the pointer.
#ifndef BLOT_OBS_METRICS_H_
#define BLOT_OBS_METRICS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace blot::obs {

// Label set for one metric instance, e.g. {{"codec", "GZIP"}}. Order is
// irrelevant for identity; the registry canonicalizes by sorting.
using Labels = std::vector<std::pair<std::string, std::string>>;

// Monotonically increasing event count.
class Counter {
 public:
  void Increment(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

// Point-in-time value (queue depth, utilization, ...).
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  void Add(double delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

// Fixed-bucket histogram. `bounds` are inclusive upper edges of the
// finite buckets, strictly increasing; observations above the last bound
// land in an implicit overflow bucket.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void Observe(double v);

  const std::vector<double>& bounds() const { return bounds_; }
  // counts()[i] pairs with bounds()[i]; the final element is the
  // overflow bucket.
  std::vector<std::uint64_t> counts() const;
  std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  double Mean() const;
  // Percentile estimate by linear interpolation inside the bucket;
  // `p` in [0, 100]. Returns 0 for an empty histogram.
  double Percentile(double p) const;
  void Reset();

  // Exponential latency buckets in milliseconds, 0.001 ms .. 60 s — the
  // default for every *_ms histogram.
  static const std::vector<double>& DefaultLatencyBoundsMs();

 private:
  std::vector<double> bounds_;
  std::vector<std::atomic<std::uint64_t>> buckets_;  // bounds_.size() + 1
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

// Immutable copy of one histogram, used by exporters and tests.
struct HistogramSnapshot {
  std::string name;
  Labels labels;
  std::vector<double> bounds;
  std::vector<std::uint64_t> counts;  // bounds.size() + 1 (overflow last)
  std::uint64_t count = 0;
  double sum = 0.0;

  double Mean() const { return count == 0 ? 0.0 : sum / double(count); }
  double Percentile(double p) const;
};

struct CounterSnapshot {
  std::string name;
  Labels labels;
  std::uint64_t value = 0;
};

struct GaugeSnapshot {
  std::string name;
  Labels labels;
  double value = 0.0;
};

// Point-in-time copy of every registered metric, sorted by (name, labels).
struct MetricsSnapshot {
  std::vector<CounterSnapshot> counters;
  std::vector<GaugeSnapshot> gauges;
  std::vector<HistogramSnapshot> histograms;

  const CounterSnapshot* FindCounter(std::string_view name,
                                     const Labels& labels = {}) const;
  const HistogramSnapshot* FindHistogram(std::string_view name,
                                         const Labels& labels = {}) const;

  // {"counters": [...], "gauges": [...], "histograms": [...]} — each
  // histogram carries per-bucket counts plus
  // count/sum/mean/p50/p90/p95/p99.
  std::string ToJson() const;
  // Prometheus text exposition format ('.' in names becomes '_',
  // histograms emit cumulative `_bucket{le=...}` series plus
  // summary-style `{quantile="..."}` lines for p50/p95/p99).
  std::string ToPrometheus() const;
};

// Thread-safe metric registry. Get* registers on first use and returns
// the existing instance afterwards; mismatched histogram bounds for an
// existing name+labels throw InvalidArgument.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // The process-wide registry used by all built-in instrumentation.
  // Disabled at startup: hot paths skip their clock reads until
  // set_enabled(true).
  static MetricsRegistry& global();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

  Counter& GetCounter(std::string_view name, Labels labels = {});
  Gauge& GetGauge(std::string_view name, Labels labels = {});
  // Empty `bounds` means Histogram::DefaultLatencyBoundsMs().
  Histogram& GetHistogram(std::string_view name, Labels labels = {},
                          std::vector<double> bounds = {});

  MetricsSnapshot Snapshot() const;
  // Zeroes every metric's value; registrations (and cached handles)
  // stay valid.
  void Reset();

 private:
  using Key = std::pair<std::string, Labels>;

  std::atomic<bool> enabled_{false};
  mutable std::mutex mutex_;
  std::map<Key, std::unique_ptr<Counter>> counters_;
  std::map<Key, std::unique_ptr<Gauge>> gauges_;
  std::map<Key, std::unique_ptr<Histogram>> histograms_;
};

// Wall-clock stopwatch for *_ms histograms: records elapsed milliseconds
// into `histogram` on destruction. A null histogram disables the timer
// (no clock read), so call sites can write
//   ScopedTimerMs timer(registry.enabled() ? &h : nullptr);
class ScopedTimerMs {
 public:
  explicit ScopedTimerMs(Histogram* histogram);
  ~ScopedTimerMs();
  ScopedTimerMs(const ScopedTimerMs&) = delete;
  ScopedTimerMs& operator=(const ScopedTimerMs&) = delete;

  // Milliseconds elapsed since construction (0 when disabled).
  double ElapsedMs() const;

 private:
  Histogram* histogram_;
  std::uint64_t start_ns_ = 0;
};

// Monotonic clock in nanoseconds, shared by all instrumentation.
std::uint64_t MonotonicNanos();

// The percentile estimator behind Histogram::Percentile, exposed so
// out-of-process consumers of snapshot JSONL (blotmon --summary) can
// reproduce the registry's quantiles bit-for-bit from (bounds, counts):
// linear interpolation inside the covering bucket; the overflow bucket
// reports its lower edge. `p` in [0, 100]; 0 for an empty histogram.
double HistogramPercentile(const std::vector<double>& bounds,
                           const std::vector<std::uint64_t>& counts,
                           std::uint64_t total, double p);

// JSON formatting helpers shared by the metrics, event-log and snapshot
// exporters (and their tests).
//
// Shortest round-trippable number: integral values print bare, others
// with enough digits to survive JSON parse-back.
std::string FormatJsonNumber(double v);
// Escapes `"` `\` and control characters for a JSON string literal.
std::string JsonEscapeString(std::string_view s);
// `labels` as a JSON object of strings, {"key":"value",...}, both sides
// escaped; also writes an event's fields.
std::string JsonLabels(const Labels& labels);

}  // namespace blot::obs

#endif  // BLOT_OBS_METRICS_H_
