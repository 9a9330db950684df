#include "obs/event_log.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>

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
    out += ",\"fields\":";
    out += JsonLabels(fields);
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
  std::lock_guard lock(mutex_);
  if (sink_ != nullptr) {
    DrainLocked();
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
  std::lock_guard lock(mutex_);
  if (sink_ != nullptr) {
    DrainLocked();
    std::fclose(AsFile(sink_));
    sink_ = nullptr;
  }
  enabled_.store(false, std::memory_order_relaxed);
}

bool EventLog::has_sink() const {
  std::lock_guard lock(mutex_);
  return sink_ != nullptr;
}

void EventLog::DrainLocked() {
  if (sink_ != nullptr && !pending_.empty())
    std::fwrite(pending_.data(), 1, pending_.size(), AsFile(sink_));
  pending_.clear();
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

  std::lock_guard lock(mutex_);
  event.seq = next_seq_++;
  emitted_.fetch_add(1, std::memory_order_relaxed);
  pending_ += event.ToJson();
  pending_ += '\n';
  recent_.push_back(std::move(event));
  if (recent_.size() > kRecentCapacity) recent_.pop_front();
  if (pending_.size() >= kFlushThresholdBytes) DrainLocked();
}

void EventLog::Flush() {
  std::lock_guard lock(mutex_);
  DrainLocked();
  if (sink_ != nullptr) std::fflush(AsFile(sink_));
}

std::vector<Event> EventLog::Recent(std::size_t max) const {
  std::lock_guard lock(mutex_);
  const std::size_t n = std::min(max, recent_.size());
  return {recent_.end() - static_cast<std::ptrdiff_t>(n), recent_.end()};
}

void EventLog::ResetForTest() {
  std::lock_guard lock(mutex_);
  DrainLocked();
  recent_.clear();
  next_seq_ = 1;
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
