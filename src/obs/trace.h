// Per-query trace spans: a tree of named, timed operations with
// key=value attributes, rendered as an ASCII tree.
//
// Tools build the tree for the operation they ran (blotctl store-query
// renders `route` and `execute` children from the query's RoutedResult)
// and it carries what the metrics layer aggregates away: which replica
// THIS query chose, what the model estimated, what execution measured. All
// public methods are thread-safe so parallel partition scans can annotate
// spans concurrently; child spans have stable addresses for the lifetime
// of their parent.
#ifndef BLOT_OBS_TRACE_H_
#define BLOT_OBS_TRACE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace blot::obs {

class TraceSpan {
 public:
  explicit TraceSpan(std::string name) : name_(std::move(name)) {}
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  const std::string& name() const { return name_; }

  // Appends a child span; the reference stays valid until this span is
  // destroyed.
  TraceSpan& AddChild(std::string name);

  void AddAttribute(std::string key, std::string value);
  void AddAttribute(std::string key, double value);
  void AddAttribute(std::string key, std::uint64_t value);

  void set_duration_ms(double ms) { duration_ms_ = ms; }
  double duration_ms() const { return duration_ms_; }

  // Value of `key`, or "" if absent (for tests and tooling).
  std::string attribute(std::string_view key) const;
  // First direct child named `name`, or nullptr.
  const TraceSpan* FindChild(std::string_view name) const;

  //   store-query (3.42 ms) replica=KD4xT4/ROW-SNAPPY estimated_cost_ms=...
  //   ├─ route (0.01 ms) candidates=2
  //   └─ execute (3.38 ms) partitions_scanned=4
  std::string Render() const;

 private:
  void RenderInto(std::string& out, const std::string& prefix,
                  bool last, bool root) const;

  mutable std::mutex mutex_;
  std::string name_;
  double duration_ms_ = 0.0;
  std::vector<std::pair<std::string, std::string>> attributes_;
  std::vector<std::unique_ptr<TraceSpan>> children_;
};

// RAII timer: stamps `span->set_duration_ms()` with the elapsed wall
// clock on destruction. Null-safe: a null span disables the clock reads.
class SpanTimer {
 public:
  explicit SpanTimer(TraceSpan* span);
  ~SpanTimer();
  SpanTimer(const SpanTimer&) = delete;
  SpanTimer& operator=(const SpanTimer&) = delete;

  double ElapsedMs() const;

 private:
  TraceSpan* span_;
  std::uint64_t start_ns_ = 0;
};

}  // namespace blot::obs

#endif  // BLOT_OBS_TRACE_H_
