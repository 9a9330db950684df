// Structured, machine-readable event log for the BLOT store.
//
// Metrics aggregate; traces follow one query; events record *incidents*:
// a partition was quarantined, a query failed over, a repair ran, the
// cache is thrashing, a snapshot was flushed. Each event is one JSONL
// line with a severity, a category (dot-separated, e.g. "quarantine" or
// "cost_drift.alert"), a human message and typed key/value fields — the
// replacement for ad-hoc stderr prints in the store/health/repair paths,
// and the input `blotmon` renders into an incident timeline
// (docs/observability.md).
//
// Design mirrors the metrics registry's cost discipline: the global log
// starts disabled and `enabled()` is one relaxed atomic load, so
// instrumented paths cost nothing until a sink is opened. Events are
// rare transitions, so one mutex is enough: Emit takes it, assigns the
// next sequence number, formats the line and appends it to the pending
// buffer and the recent-events ring. The buffer drains to the sink (an
// append-only JSONL file) when it grows past a threshold and on Flush(),
// so the sink's lines are always in `seq` order.
#ifndef BLOT_OBS_EVENT_LOG_H_
#define BLOT_OBS_EVENT_LOG_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace blot::obs {

enum class EventSeverity : std::uint8_t { kDebug, kInfo, kWarn, kError };

std::string_view SeverityName(EventSeverity severity);
// Parses "debug"/"info"/"warn"/"error"; throws InvalidArgument otherwise.
EventSeverity SeverityFromName(std::string_view name);

// Key/value payload of one event. Values are stored as strings; the
// helpers render numbers with round-trippable formatting.
using EventFields = std::vector<std::pair<std::string, std::string>>;

struct Event {
  std::uint64_t seq = 0;       // global emission order
  std::uint64_t wall_ms = 0;   // unix epoch milliseconds
  std::uint64_t mono_ns = 0;   // MonotonicNanos() at emission
  EventSeverity severity = EventSeverity::kInfo;
  std::string category;
  std::string message;
  EventFields fields;

  // The JSONL representation (no trailing newline).
  std::string ToJson() const;
};

class EventLog {
 public:
  EventLog() = default;
  EventLog(const EventLog&) = delete;
  EventLog& operator=(const EventLog&) = delete;
  ~EventLog();

  // The process-wide log used by all built-in instrumentation. Disabled
  // until a sink is opened (or set_enabled(true) for in-memory only).
  static EventLog& Global();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  // Enables the log without a sink: events are kept in the in-memory
  // ring (Recent()) only. Opening a sink enables automatically.
  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

  // Opens (appending) the JSONL sink and enables the log. Throws
  // ReadError when the file cannot be opened.
  void OpenSink(const std::string& path);
  // Flushes, closes the sink and disables the log.
  void CloseSink();
  bool has_sink() const;

  // Emits one event. No-op (beyond the enabled() load) when disabled.
  void Emit(EventSeverity severity, std::string_view category,
            std::string_view message, EventFields fields = {});

  // Convenience severities.
  void Info(std::string_view category, std::string_view message,
            EventFields fields = {}) {
    Emit(EventSeverity::kInfo, category, message, std::move(fields));
  }
  void Warn(std::string_view category, std::string_view message,
            EventFields fields = {}) {
    Emit(EventSeverity::kWarn, category, message, std::move(fields));
  }

  // Drains the pending buffer to the sink and flushes it.
  void Flush();

  // The most recent `max` events (any severity), oldest first — for
  // tests and in-process tooling. Capacity is bounded
  // (kRecentCapacity); older events are only in the sink.
  std::vector<Event> Recent(std::size_t max = 64) const;

  std::uint64_t emitted() const {
    return emitted_.load(std::memory_order_relaxed);
  }

  // Resets counters, the sequence number and the in-memory ring (the
  // sink, if open, is left as-is). For tests.
  void ResetForTest();

  static constexpr std::size_t kRecentCapacity = 1024;
  static constexpr std::size_t kFlushThresholdBytes = 16 * 1024;

 private:
  // Appends the pending bytes to the sink. Caller holds mutex_.
  void DrainLocked();

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> emitted_{0};

  mutable std::mutex mutex_;
  std::uint64_t next_seq_ = 1;  // guarded by mutex_
  std::string pending_;         // formatted JSONL lines awaiting the sink
  std::deque<Event> recent_;    // bounded ring for Recent()
  void* sink_ = nullptr;        // std::FILE*, kept opaque in the header
};

// Field helpers: EventFields entries with numeric formatting shared
// with the metrics JSON exporter.
std::pair<std::string, std::string> Field(std::string key,
                                          std::string value);
std::pair<std::string, std::string> Field(std::string key, const char* value);
std::pair<std::string, std::string> Field(std::string key, double value);
template <typename T>
  requires std::is_integral_v<T>
std::pair<std::string, std::string> Field(std::string key, T value) {
  return {std::move(key), std::to_string(value)};
}

}  // namespace blot::obs

#endif  // BLOT_OBS_EVENT_LOG_H_
