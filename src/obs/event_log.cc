#include "obs/event_log.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <thread>

#include "obs/metrics.h"
#include "util/error.h"

namespace blot::obs {
namespace {

std::uint64_t WallMillis() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

std::FILE* AsFile(void* sink) { return static_cast<std::FILE*>(sink); }

}  // namespace

std::string_view SeverityName(EventSeverity severity) {
  switch (severity) {
    case EventSeverity::kDebug: return "debug";
    case EventSeverity::kInfo: return "info";
    case EventSeverity::kWarn: return "warn";
    case EventSeverity::kError: return "error";
  }
  return "info";
}

EventSeverity SeverityFromName(std::string_view name) {
  if (name == "debug") return EventSeverity::kDebug;
  if (name == "info") return EventSeverity::kInfo;
  if (name == "warn") return EventSeverity::kWarn;
  if (name == "error") return EventSeverity::kError;
  throw InvalidArgument("unknown event severity: " + std::string(name));
}

std::string Event::ToJson() const {
  std::string out = "{\"seq\":" + std::to_string(seq) +
                    ",\"wall_ms\":" + std::to_string(wall_ms) +
                    ",\"mono_ns\":" + std::to_string(mono_ns) +
                    ",\"severity\":\"" + std::string(SeverityName(severity)) +
                    "\",\"category\":\"" + JsonEscapeString(category) +
                    "\",\"message\":\"" + JsonEscapeString(message) + "\"";
  if (!fields.empty()) {
    out += ",\"fields\":{";
    for (std::size_t i = 0; i < fields.size(); ++i) {
      if (i > 0) out += ",";
      out += "\"" + JsonEscapeString(fields[i].first) + "\":\"" +
             JsonEscapeString(fields[i].second) + "\"";
    }
    out += "}";
  }
  return out + "}";
}

EventLog& EventLog::Global() {
  static EventLog* log = new EventLog();
  return *log;
}

EventLog::~EventLog() {
  if (sink_ != nullptr) CloseSink();
}

void EventLog::OpenSink(const std::string& path) {
  std::lock_guard lock(sink_mutex_);
  if (sink_ != nullptr) {
    std::fclose(AsFile(sink_));
    sink_ = nullptr;
  }
  std::FILE* f = std::fopen(path.c_str(), "ab");
  if (f == nullptr)
    throw ReadError("EventLog: cannot open sink: " + path);
  sink_ = f;
  enabled_.store(true, std::memory_order_relaxed);
  // The global log is a leaked singleton, so its destructor never runs;
  // flush at process exit so an error path that skips CloseSink (e.g. a
  // tool exiting through an exception handler) still lands its incident
  // events — exactly the runs where the log matters most.
  static const bool flush_registered = [] {
    return std::atexit([] { Global().Flush(); }) == 0;
  }();
  (void)flush_registered;
}

void EventLog::CloseSink() {
  Flush();
  std::lock_guard lock(sink_mutex_);
  if (sink_ != nullptr) {
    std::fclose(AsFile(sink_));
    sink_ = nullptr;
  }
  enabled_.store(false, std::memory_order_relaxed);
}

bool EventLog::has_sink() const {
  std::lock_guard lock(sink_mutex_);
  return sink_ != nullptr;
}

EventLog::Shard& EventLog::ShardForThisThread() {
  const std::size_t h =
      std::hash<std::thread::id>{}(std::this_thread::get_id());
  return shards_[h % kShards];
}

void EventLog::DrainLocked(Shard& shard) {
  if (shard.pending.empty()) return;
  std::lock_guard sink_lock(sink_mutex_);
  if (sink_ != nullptr) {
    std::fwrite(shard.pending.data(), 1, shard.pending.size(),
                AsFile(sink_));
  }
  shard.pending.clear();
}

void EventLog::Emit(EventSeverity severity, std::string_view category,
                    std::string_view message, EventFields fields) {
  if (!enabled()) return;

  Event event;
  event.wall_ms = WallMillis();
  event.mono_ns = MonotonicNanos();
  event.severity = severity;
  event.category = std::string(category);
  event.message = std::string(message);
  event.fields = std::move(fields);

  Shard& shard = ShardForThisThread();
  std::lock_guard lock(shard.mutex);
  event.seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
  emitted_.fetch_add(1, std::memory_order_relaxed);

  shard.pending += event.ToJson();
  shard.pending += '\n';
  shard.recent.push_back(std::move(event));
  while (shard.recent.size() > kRecentCapacity) shard.recent.pop_front();
  if (shard.pending.size() >= kFlushThresholdBytes) DrainLocked(shard);
}

void EventLog::Flush() {
  for (Shard& shard : shards_) {
    std::lock_guard lock(shard.mutex);
    DrainLocked(shard);
  }
  std::lock_guard lock(sink_mutex_);
  if (sink_ != nullptr) std::fflush(AsFile(sink_));
}

std::vector<Event> EventLog::Recent(std::size_t max) const {
  std::vector<Event> out;
  for (Shard& shard : shards_) {
    std::lock_guard lock(shard.mutex);
    out.insert(out.end(), shard.recent.begin(), shard.recent.end());
  }
  std::sort(out.begin(), out.end(),
            [](const Event& a, const Event& b) { return a.seq < b.seq; });
  if (out.size() > max) out.erase(out.begin(), out.end() - max);
  return out;
}

void EventLog::ResetForTest() {
  for (Shard& shard : shards_) {
    std::lock_guard lock(shard.mutex);
    DrainLocked(shard);
    shard.recent.clear();
  }
  next_seq_.store(1, std::memory_order_relaxed);
  emitted_.store(0, std::memory_order_relaxed);
}

std::pair<std::string, std::string> Field(std::string key,
                                          std::string value) {
  return {std::move(key), std::move(value)};
}

std::pair<std::string, std::string> Field(std::string key,
                                          const char* value) {
  return {std::move(key), std::string(value)};
}

std::pair<std::string, std::string> Field(std::string key, double value) {
  return {std::move(key), FormatJsonNumber(value)};
}

}  // namespace blot::obs
