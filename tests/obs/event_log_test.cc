#include "obs/event_log.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "util/error.h"
#include "util/json.h"

namespace blot::obs {
namespace {

std::vector<util::JsonValue> ReadJsonl(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::vector<util::JsonValue> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    lines.push_back(util::JsonValue::Parse(line));
  }
  return lines;
}

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

constexpr int kEmitters = 4;
constexpr int kEventsPerEmitter = 200;

// kEmitters threads emit kEventsPerEmitter events each into `log`.
void EmitConcurrently(EventLog& log) {
  std::vector<std::thread> emitters;
  for (int t = 0; t < kEmitters; ++t) {
    emitters.emplace_back([&log, t] {
      for (int i = 0; i < kEventsPerEmitter; ++i)
        log.Info("stress", "event", {Field("thread", t), Field("i", i)});
    });
  }
  for (std::thread& emitter : emitters) emitter.join();
}

TEST(EventSeverityTest, NamesRoundTrip) {
  for (const EventSeverity s :
       {EventSeverity::kDebug, EventSeverity::kInfo, EventSeverity::kWarn,
        EventSeverity::kError})
    EXPECT_EQ(SeverityFromName(SeverityName(s)), s);
  EXPECT_THROW(SeverityFromName("fatal"), InvalidArgument);
}

TEST(EventLogTest, DisabledLogDropsEverything) {
  EventLog log;
  EXPECT_FALSE(log.enabled());
  log.Info("cat", "dropped");
  EXPECT_EQ(log.emitted(), 0u);
  EXPECT_TRUE(log.Recent().empty());
}

TEST(EventLogTest, RecentIsOrderedWithMonotonicSeq) {
  EventLog log;
  log.set_enabled(true);
  log.Info("a", "first");
  log.Warn("b", "second", {Field("k", 7)});
  log.Emit(EventSeverity::kError, "c", "third");
  const std::vector<Event> recent = log.Recent();
  ASSERT_EQ(recent.size(), 3u);
  EXPECT_LT(recent[0].seq, recent[1].seq);
  EXPECT_LT(recent[1].seq, recent[2].seq);
  EXPECT_EQ(recent[0].category, "a");
  EXPECT_EQ(recent[1].severity, EventSeverity::kWarn);
  ASSERT_EQ(recent[1].fields.size(), 1u);
  EXPECT_EQ(recent[1].fields[0].first, "k");
  EXPECT_EQ(recent[1].fields[0].second, "7");
  EXPECT_EQ(log.emitted(), 3u);
}

TEST(EventLogTest, EventJsonIsParseableAndEscaped) {
  EventLog log;
  log.set_enabled(true);
  log.Warn("cache.pressure", "a \"quoted\"\nmessage",
           {Field("path", std::string("a\\b")), Field("ratio", 0.5)});
  const std::vector<Event> recent = log.Recent();
  ASSERT_EQ(recent.size(), 1u);
  const util::JsonValue parsed = util::JsonValue::Parse(recent[0].ToJson());
  EXPECT_EQ(parsed.At("severity").AsString(), "warn");
  EXPECT_EQ(parsed.At("category").AsString(), "cache.pressure");
  EXPECT_EQ(parsed.At("message").AsString(), "a \"quoted\"\nmessage");
  EXPECT_EQ(parsed.At("fields").At("path").AsString(), "a\\b");
  EXPECT_EQ(parsed.At("fields").At("ratio").AsString(), "0.5");
  EXPECT_GE(parsed.At("seq").AsUint64(), 1u);
  EXPECT_GT(parsed.At("wall_ms").AsUint64(), 0u);
}

TEST(EventLogTest, SinkReceivesJsonlOnFlushAndClose) {
  const std::string path = TempPath("event_log_test_sink.jsonl");
  std::remove(path.c_str());
  EventLog log;
  log.OpenSink(path);
  EXPECT_TRUE(log.enabled());
  EXPECT_TRUE(log.has_sink());
  log.Info("quarantine", "partition quarantined",
           {Field("replica", 1), Field("partition", 42)});
  log.Warn("failover", "rerouted");
  log.Flush();
  const std::vector<util::JsonValue> after_flush = ReadJsonl(path);
  ASSERT_EQ(after_flush.size(), 2u);
  EXPECT_EQ(after_flush[0].At("category").AsString(), "quarantine");
  EXPECT_EQ(after_flush[0].At("fields").At("partition").AsString(), "42");

  log.Info("repair", "healed");
  log.CloseSink();  // flushes the tail and disables
  EXPECT_FALSE(log.enabled());
  EXPECT_FALSE(log.has_sink());
  const std::vector<util::JsonValue> after_close = ReadJsonl(path);
  ASSERT_EQ(after_close.size(), 3u);
  EXPECT_EQ(after_close[2].At("category").AsString(), "repair");
  std::remove(path.c_str());
}

TEST(EventLogTest, OpenSinkOnBadPathThrows) {
  EventLog log;
  EXPECT_THROW(log.OpenSink("/nonexistent-dir/events.jsonl"), ReadError);
  EXPECT_FALSE(log.enabled());
}

TEST(EventLogTest, ResetForTestClearsRingAndCounters) {
  EventLog log;
  log.set_enabled(true);
  log.Info("cat", "one");
  log.ResetForTest();
  EXPECT_EQ(log.emitted(), 0u);
  EXPECT_TRUE(log.Recent().empty());
  log.Info("cat", "two");
  ASSERT_EQ(log.Recent().size(), 1u);
  EXPECT_EQ(log.Recent()[0].seq, 1u);  // sequence restarted
}

TEST(EventLogTest, ConcurrentEmittersReachTheSinkInSeqOrder) {
  const std::string path = TempPath("event_log_test_order.jsonl");
  std::remove(path.c_str());
  EventLog log;
  log.OpenSink(path);
  EmitConcurrently(log);
  log.CloseSink();
  const std::vector<util::JsonValue> lines = ReadJsonl(path);
  ASSERT_EQ(lines.size(), std::size_t{kEmitters * kEventsPerEmitter});
  for (std::size_t i = 1; i < lines.size(); ++i)
    ASSERT_GT(lines[i].At("seq").AsUint64(), lines[i - 1].At("seq").AsUint64())
        << "line " << i;
  std::remove(path.c_str());
}

TEST(EventLogTest, RecentKeepsEveryEventOfConcurrentEmitters) {
  EventLog log;
  log.set_enabled(true);
  EmitConcurrently(log);
  const std::vector<Event> recent = log.Recent(1000);
  ASSERT_EQ(recent.size(), std::size_t{kEmitters * kEventsPerEmitter});
  for (std::size_t i = 1; i < recent.size(); ++i)
    EXPECT_EQ(recent[i].seq, recent[i - 1].seq + 1);
}

}  // namespace
}  // namespace blot::obs
