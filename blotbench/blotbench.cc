// blotbench: the end-to-end benchmark of the BLOT store.
//
// Drives one seeded workload through the public serving APIs —
// serve::QueryServer over a BlotStore for `paper-mix` and `hotspot`,
// StreamingStore for `ingest-mix` — checks every answer against
// testing::Oracle, and prints one JSON object as the last line of
// stdout:
//
//   {"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones (latency, throughput,
// routing regret, storage, memory, ingest). With --trace 1 the run replays
// every served op through each layer's public call (route, index, replica
// scan, codec decode) and prints per-layer numbers instead. Every layer is
// timed from outside, around calls to its public functions.
//
//   blotbench --workload paper-mix --seed 1 --seconds 10 --trace 0
//
// Each workload is a fixed, seeded op sequence (one "pass") replayed by
// one closed-loop client. A set-up starts from nothing: data generation,
// replica builds and an untimed warm-up; setup_s is the median over the
// run's set-ups. paper-mix and hotspot run kRounds rounds, each a set-up
// (whose warm-up is one whole pass) followed by whole passes for its share
// of --seconds; ingest-mix sets up before every pass, since ingestion
// changes the store.
// blotbench/README.md records the workloads and why each was chosen.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include <sys/resource.h>

#include "bench_common.h"
#include "blot/encoding_scheme.h"
#include "blot/replica.h"
#include "codec/codec.h"
#include "core/cost_model.h"
#include "core/partial.h"
#include "core/partition_cache.h"
#include "core/store.h"
#include "core/streaming.h"
#include "core/workload.h"
#include "gen/taxi_generator.h"
#include "serve/server.h"
#include "testing/oracle.h"
#include "util/rng.h"
#include "util/stats.h"

namespace blot::blotbench {
namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

double Median(std::vector<double> values) {
  return values.empty() ? 0.0 : Percentile(std::move(values), 50);
}

double Geomean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (const double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// Peak resident set of this process, MiB.
double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return double(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

// A served answer disagreed with the oracle: the run reports no metrics.
struct OracleMismatch : std::runtime_error {
  using std::runtime_error::runtime_error;
};

// ---- configuration --------------------------------------------------------

// A run is kRounds rounds, each set up afresh and then timed for
// its share of --seconds. Spreading set-ups through the run exposes every
// figure to the same stretch of machine speed, and each round re-rolls
// the routing state the brownout flips depend on.
constexpr std::size_t kRounds = 5;
constexpr std::size_t kRegretBestOf = 3;

struct ReplicaSpec {
  std::size_t spatial;
  std::size_t temporal;
  const char* encoding;
};

// The fixed diverse set of paper-mix and hotspot: fine time, fine space,
// and a balanced high-ratio replica. Selection is not run in set-up:
// AdviseReplicas under LocalHadoop picks a single replica, which leaves
// nothing to route.
constexpr ReplicaSpec kQueryReplicas[] = {
    {16, 256, "ROW-SNAPPY"}, {1024, 16, "COL-GZIP"}, {64, 64, "COL-LZMA"}};
// The smaller store under ingest-mix; compaction rebuilds both replicas.
constexpr ReplicaSpec kIngestReplicas[] = {{16, 16, "ROW-SNAPPY"},
                                           {64, 8, "COL-GZIP"}};
constexpr std::size_t kMaxReplicas = 3;

// Encodings whose encode rate the traced run samples (every encoding any
// workload stores).
constexpr const char* kEncodings[] = {"ROW-SNAPPY", "COL-GZIP", "COL-LZMA"};
constexpr CodecKind kCodecs[] = {CodecKind::kSnappyLike, CodecKind::kGzipLike,
                                 CodecKind::kLzmaLike};

ReplicaConfig ConfigOf(const ReplicaSpec& spec) {
  return {{.spatial_partitions = spec.spatial,
           .temporal_partitions = spec.temporal},
          EncodingScheme::FromName(spec.encoding)};
}

// Frozen per-pass counts of Section V-C's eight wildly varied shapes, in
// the order of bench::WildlyVariedWorkload (q1..q8). The counts are roughly
// inverse to each shape's served cost as measured on the parent commit (in
// the comments), so every shape takes a similar share of busy time and the
// pooled median falls inside one shape's band instead of on the cliff
// between two. A pass holds enough instances that the p99, which falls
// among the largest q1 instances, does not hang on a handful of them.
constexpr std::size_t kPaperShapeCounts[] = {
    100,   // q1: 1.56 ms
    732,   // q2: 0.21 ms
    2108,  // q3: 0.073 ms
    340,   // q4: 0.45 ms
    1280,  // q5: 0.12 ms
    792,   // q6: 0.19 ms
    24,    // q7: 6.0 ms
    4,     // q8: 38.5 ms
};
constexpr std::size_t kPaperShapes = std::size(kPaperShapeCounts);

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Multiplies record and op counts; the smoke test runs at a tiny scale.
  double scale = 1.0;
  // Adds one to the first expected count, so the oracle gate must fail.
  bool corrupt_expected = false;
  // Where the traced run writes its spans (JSON lines); empty = nowhere.
  std::string spans_out;
};

std::size_t Scaled(std::size_t n, double scale) {
  return std::max<std::size_t>(1, static_cast<std::size_t>(
                                      std::llround(double(n) * scale)));
}

TaxiFleetConfig FleetConfig(std::uint64_t seed, std::size_t taxis,
                            std::size_t samples) {
  TaxiFleetConfig config;
  config.seed = seed;
  config.num_taxis = taxis;
  config.samples_per_taxi = samples;
  return config;
}

// ---- metrics and spans ----------------------------------------------------

class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }

  std::string Json(bool correct, std::uint64_t attempted,
                   std::uint64_t failed) const {
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
    char buf[64];
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      std::snprintf(buf, sizeof(buf), "%.17g",
                    std::isfinite(m.value) ? m.value : 0.0);
      out += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + buf +
             ", \"unit\": \"" + m.unit + "\"}";
    }
    return out + "}}";
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
};

enum SpanName : std::uint8_t {
  kServe,      // QueryServer::Submit -> future ready (the served call)
  kStreaming,  // StreamingStore::Execute (the served call on ingest-mix)
  kStore,      // BlotStore::Execute replayed on the same query
  kRoute,      // BlotStore::RouteQueryDetailed
  kScan,       // Replica::Execute on the replica the served call chose
  kIndex,      // PartitionIndex::InvolvedPartitions on that replica
  kDecode,     // GetCodec(k).Decompress over all its involved partitions
  kIngest,     // one tick of StreamingStore::Ingest calls
  kNumSpanNames
};
constexpr const char* kSpanNames[] = {"serve", "streaming", "store",
                                      "route", "scan",      "index",
                                      "decode", "ingest"};

struct Span {
  std::uint32_t op;
  SpanName name;
  std::int32_t parent;  // index into the span log, -1 for a root
  Clock::time_point start, end;
  double Ms() const {
    return std::chrono::duration<double, std::milli>(end - start).count();
  }
};

// In-memory span log of the traced run, written out once the run ends.
class SpanLog {
 public:
  std::int32_t Add(std::uint32_t op, SpanName name, std::int32_t parent,
                   Clock::time_point start, Clock::time_point end) {
    spans_.push_back({op, name, parent, start, end});
    return static_cast<std::int32_t>(spans_.size() - 1);
  }

  std::vector<double> DurationsMs(SpanName name) const {
    std::vector<double> out;
    for (const Span& s : spans_)
      if (s.name == name) out.push_back(s.Ms());
    return out;
  }
  double MedianMs(SpanName name) const { return Median(DurationsMs(name)); }

  void Write(const std::string& path) const {
    if (path.empty() || spans_.empty()) return;
    std::ofstream out(path);
    const Clock::time_point origin = spans_.front().start;
    const auto us = [origin](Clock::time_point t) {
      return std::chrono::duration<double, std::micro>(t - origin).count();
    };
    for (const Span& s : spans_) {
      char line[160];
      std::snprintf(line, sizeof(line),
                    "{\"op\":%u,\"name\":\"%s\",\"parent\":%d,"
                    "\"start_us\":%.3f,\"end_us\":%.3f}\n",
                    s.op, kSpanNames[s.name], s.parent, us(s.start),
                    us(s.end));
      out << line;
    }
  }

 private:
  std::vector<Span> spans_;
};

// Aggregates over served queries (from RoutedResult and QueryStats).
struct QueryTally {
  std::uint64_t queries = 0;
  std::uint64_t failed = 0;
  std::vector<double> latency_ms;
  double busy_ms = 0.0;
  std::uint64_t routed_to[kMaxReplicas] = {};
  std::uint64_t attempts = 0;
  std::vector<double> cost_error;  // estimated / measured, per query
  std::uint64_t predicted_partitions = 0;
  std::uint64_t partitions_scanned = 0;
  std::uint64_t records_scanned = 0;
  std::uint64_t records_returned = 0;
  std::uint64_t bytes_read = 0;

  void Ok(const BlotStore::RoutedResult& routed, double ms) {
    ++queries;
    latency_ms.push_back(ms);
    busy_ms += ms;
    if (routed.replica_index < kMaxReplicas) ++routed_to[routed.replica_index];
    attempts += routed.attempts;
    if (routed.estimated_cost_ms > 0 && routed.measured_cost_ms > 0)
      cost_error.push_back(routed.estimated_cost_ms / routed.measured_cost_ms);
    predicted_partitions += routed.predicted_partitions;
    const QueryStats& s = routed.result.stats;
    partitions_scanned += s.partitions_scanned;
    records_scanned += s.records_scanned;
    records_returned += routed.result.records.size();
    bytes_read += s.bytes_read;
  }
  void Failed(double ms) {
    ++queries;
    ++failed;
    latency_ms.push_back(ms);
    busy_ms += ms;
  }

  // Marks the end of one pass over the op sequence.
  void EndPass() { pass_end.push_back(latency_ms.size()); }
  // Latencies of pass `i`.
  std::vector<double> Pass(std::size_t i) const {
    const std::size_t begin = i == 0 ? 0 : pass_end[i - 1];
    return {latency_ms.begin() + std::ptrdiff_t(begin),
            latency_ms.begin() + std::ptrdiff_t(pass_end[i])};
  }
  std::vector<std::size_t> pass_end;  // latency_ms size after each pass
};

// Per-codec decode accounting of the traced replay.
struct DecodeTally {
  double ms[std::size(kCodecs)] = {};
  double bytes[std::size(kCodecs)] = {};
  double weighted_decode_ms = 0.0;  // decode time scaled by the miss share
  double scan_ms = 0.0;
};

std::size_t CodecSlot(CodecKind kind) {
  for (std::size_t i = 0; i < std::size(kCodecs); ++i)
    if (kCodecs[i] == kind) return i;
  return std::size(kCodecs);
}

// Replays `query` through the layers under the served call: routing, the
// chosen replica's index, its scan, and a decode of the stored partitions
// the scan reads. `miss_share` is the fraction of the served call's partition
// reads that missed the decoded-partition cache (1 with the cache off).
void ReplayLayers(const BlotStore& store, const CostModel& model,
                  const STRange& query, std::size_t chosen, double miss_share,
                  std::uint32_t op, std::int32_t parent, SpanLog& spans,
                  DecodeTally& decode) {
  Clock::time_point t0 = Clock::now();
  (void)store.RouteQueryDetailed(query, model);
  spans.Add(op, kRoute, parent, t0, Clock::now());

  const Replica& replica = store.replica(chosen);
  t0 = Clock::now();
  (void)replica.Execute(query);
  const Clock::time_point scan_end = Clock::now();
  const std::int32_t scan = spans.Add(op, kScan, parent, t0, scan_end);
  decode.scan_ms += std::chrono::duration<double, std::milli>(scan_end - t0)
                        .count();

  t0 = Clock::now();
  const std::vector<std::size_t> involved =
      replica.index().InvolvedPartitions(query);
  spans.Add(op, kIndex, scan, t0, Clock::now());

  // One decode span per op; the per-codec rates are timed per partition.
  // Partitions whose stored zone misses the query are skipped, as the scan
  // skips them.
  const Clock::time_point decode_start = Clock::now();
  for (const std::size_t p : involved) {
    const StoredPartition& stored = replica.partition(p);
    if (stored.has_zone && !query.Intersects(stored.zone)) continue;
    const std::size_t slot = CodecSlot(stored.codec);
    t0 = Clock::now();
    const Bytes decoded = GetCodec(stored.codec).Decompress(stored.data);
    const double ms = MsSince(t0);
    decode.weighted_decode_ms += ms * miss_share;
    if (slot < std::size(kCodecs)) {
      decode.ms[slot] += ms;
      decode.bytes[slot] += static_cast<double>(decoded.size());
    }
  }
  spans.Add(op, kDecode, scan, decode_start, Clock::now());
}

double MissShare(const QueryStats& stats) {
  const std::size_t lookups = stats.cache_hits + stats.cache_misses;
  return lookups == 0 ? 1.0 : double(stats.cache_misses) / double(lookups);
}

// Best-of-k single-threaded time of `query` on every replica of `store`.
std::vector<double> TimeOnEveryReplica(const BlotStore& store,
                                       const STRange& query) {
  std::vector<double> best(store.NumReplicas(), 0.0);
  for (std::size_t r = 0; r < store.NumReplicas(); ++r) {
    for (std::size_t k = 0; k < kRegretBestOf; ++k) {
      const Clock::time_point t0 = Clock::now();
      (void)store.replica(r).Execute(query);
      const double ms = MsSince(t0);
      best[r] = k == 0 ? ms : std::min(best[r], ms);
    }
  }
  return best;
}

// Routing regret of one routed op: the chosen replica's time over the
// fastest replica's time.
struct RegretTally {
  std::vector<double> regret;
  std::uint64_t fastest = 0;

  void Add(const std::vector<double>& times, std::size_t chosen) {
    const auto fastest_it = std::min_element(times.begin(), times.end());
    regret.push_back(times[chosen] / std::max(*fastest_it, 1e-6));
    if (std::size_t(fastest_it - times.begin()) == chosen) ++fastest;
  }
  double FastestFrac() const {
    return Ratio(double(fastest), double(regret.size()));
  }
};

// Encode rate of every stored encoding over a fixed partition sample.
void ReportEncodeRates(const Replica& replica, Report& report) {
  std::vector<std::vector<Record>> sample;
  for (std::size_t p = 0; p < replica.NumPartitions() && sample.size() < 4;
       p += std::max<std::size_t>(1, replica.NumPartitions() / 4))
    sample.push_back(replica.DecodePartitionRecords(p));
  for (const char* encoding : kEncodings) {
    const EncodingScheme scheme = EncodingScheme::FromName(encoding);
    double best_ms = 0.0, bytes = 0.0;
    for (std::size_t k = 0; k < kRegretBestOf; ++k) {
      const Clock::time_point t0 = Clock::now();
      for (const auto& records : sample)
        (void)EncodePartition(records, scheme);
      const double ms = MsSince(t0);
      best_ms = k == 0 ? ms : std::min(best_ms, ms);
    }
    for (const auto& records : sample)
      bytes += double(records.size() * kRecordRowBytes);
    report.Add(std::string("codec.encode_mb_s.") + encoding,
               Ratio(bytes / 1e6, best_ms / 1e3), "MB/s");
  }
}

void ReportDecode(const DecodeTally& decode, Report& report) {
  for (std::size_t i = 0; i < std::size(kCodecs); ++i)
    report.Add(std::string("codec.decode_mb_s.") +
                   std::string(CodecKindName(kCodecs[i])),
               Ratio(decode.bytes[i] / 1e6, decode.ms[i] / 1e3), "MB/s");
  report.Add("codec.decode_share",
             Ratio(decode.weighted_decode_ms, decode.scan_ms), "ratio");
}

void ReportTallyLayers(const QueryTally& tally, std::size_t replicas,
                       Report& report) {
  const double q = double(std::max<std::uint64_t>(1, tally.queries));
  for (std::size_t r = 0; r < kMaxReplicas; ++r)
    report.Add("core.routed_share.r" + std::to_string(r),
               r < replicas ? double(tally.routed_to[r]) / q : 0.0, "ratio");
  report.Add("core.cost_error_ratio", Geomean(tally.cost_error), "ratio");
  report.Add("core.np_ratio",
             Ratio(double(tally.predicted_partitions),
                   double(tally.partitions_scanned)),
             "ratio");
  report.Add("core.attempts_per_query", double(tally.attempts) / q, "count");
  report.Add("blot.partitions_per_query",
             double(tally.partitions_scanned) / q, "count");
  report.Add("blot.rows_examined_per_row",
             Ratio(double(tally.records_scanned),
                   double(tally.records_returned)),
             "ratio");
  report.Add("blot.bytes_read_per_query", double(tally.bytes_read) / q, "B");
}

void ReportSetupLayers(const std::vector<double>& gen_s,
                       const std::vector<std::vector<double>>& build_s,
                       Report& report) {
  for (std::size_t r = 0; r < kMaxReplicas; ++r)
    report.Add("blot.build_s.r" + std::to_string(r),
               r < build_s.size() ? Median(build_s[r]) : 0.0, "s");
  report.Add("gen.dataset_s", Median(gen_s), "s");
}

// The end-to-end latency metrics of a tally: the median over passes of
// each pass's throughput, p50 and p99, so a stall that hits one pass moves
// the run's figure less. A pass's p99 is meaningful only with at least ten
// samples beyond it (1000 queries); smaller passes say so.
void ReportLatency(const QueryTally& tally, Report& report) {
  std::vector<double> qps, p50, p99;
  for (std::size_t i = 0; i < tally.pass_end.size(); ++i) {
    const std::vector<double> pass = tally.Pass(i);
    double busy_ms = 0.0;
    for (const double ms : pass) busy_ms += ms;
    qps.push_back(Ratio(double(pass.size()), busy_ms / 1e3));
    p50.push_back(Percentile(pass, 50));
    p99.push_back(Percentile(pass, 99));
  }
  if (tally.Pass(0).size() < 1000)
    std::fprintf(stderr, "note: p99 over %zu queries per pass (< 1000)\n",
                 tally.Pass(0).size());
  report.Add("qps", Median(qps), "1/s");
  report.Add("p50_ms", Median(p50), "ms");
  report.Add("p99_ms", Median(p99), "ms");
}

// ---- paper-mix and hotspot: QueryServer over a three-replica store ----------

struct QueryWorkload {
  std::vector<STRange> queries;     // distinct query instances
  std::vector<std::uint32_t> seq;   // one pass: indices into `queries`
  std::vector<std::uint32_t> shape; // per distinct query (diagnostics)
  // Positions in `seq` whose routing is scored for regret.
  std::vector<std::uint32_t> regret_ops;
  std::uint64_t cache_bytes = 0;
  double deadline_ms = 0.0;
};

QueryWorkload MakePaperMix(std::uint64_t seed, const STRange& universe,
                           double scale) {
  QueryWorkload w;
  Rng rng(seed ^ 0x70617065726d6978ull);
  const Workload shapes = bench::WildlyVariedWorkload(universe);
  if (shapes.size() != kPaperShapes)
    throw std::logic_error("paper-mix expects 8 shapes");
  for (std::uint32_t s = 0; s < kPaperShapes; ++s) {
    const GroupedQuery& grouped = shapes.queries()[s].query;
    for (std::size_t i = 0; i < Scaled(kPaperShapeCounts[s], scale); ++i) {
      w.queries.push_back(SampleQueryInstance(grouped, universe, rng));
      w.shape.push_back(s);
    }
  }
  std::vector<std::size_t> order = rng.Permutation(w.queries.size());
  for (const std::size_t i : order) w.seq.push_back(std::uint32_t(i));
  // Regret sample: the first four ops of every shape in pass order.
  std::size_t taken[kPaperShapes] = {};
  for (std::uint32_t pos = 0; pos < w.seq.size(); ++pos)
    if (taken[w.shape[w.seq[pos]]]++ < 4) w.regret_ops.push_back(pos);
  // Several times smaller than the decoded bytes one pass touches.
  w.cache_bytes = std::uint64_t(4.0 * scale * (1 << 20));
  return w;
}

QueryWorkload MakeHotspot(std::uint64_t seed, const Dataset& dataset,
                          const STRange& universe, double scale) {
  QueryWorkload w;
  Rng rng(seed ^ 0x686f7473706f74ull);
  const STRange hot = DensestSpatialBox(dataset, universe, 0.6);
  const GroupedQuery grouped{{hot.Width() * 0.05, hot.Height() * 0.05,
                              universe.Duration() * 0.02}};
  constexpr std::size_t kPool = 64;
  for (std::size_t i = 0; i < kPool; ++i) {
    w.queries.push_back(SampleQueryInstance(grouped, hot, rng));
    w.shape.push_back(0);
  }
  const std::size_t ops = Scaled(4000, scale);
  for (std::size_t i = 0; i < ops; ++i)
    w.seq.push_back(std::uint32_t(rng.NextZipf(kPool, 1.1)));
  for (std::uint32_t pos = 0; pos < w.seq.size() && w.regret_ops.size() < 32;
       pos += std::max<std::uint32_t>(1, std::uint32_t(w.seq.size() / 32)))
    w.regret_ops.push_back(pos);
  // Several times the decoded hot set, so it stays resident.
  w.cache_bytes = std::uint64_t(8.0 * scale * (1 << 20));
  w.deadline_ms = 1000.0;
  return w;
}

// One served query through QueryServer, checked against the oracle.
// Shed, failed, deadline-exceeded and partial answers count as failed.
class QueryClient {
 public:
  QueryClient(serve::QueryServer& server, const QueryWorkload& workload,
              const std::vector<std::size_t>& expected)
      : server_(server), workload_(workload), expected_(expected) {}

  struct Served {
    std::optional<BlotStore::RoutedResult> routed;  // empty when it failed
    Clock::time_point start, end;
  };

  // Serves seq[pos] and records it in `tally`.
  Served Serve(std::uint32_t pos, QueryTally& tally) {
    const std::uint32_t q = workload_.seq[pos];
    Served served;
    served.start = Clock::now();
    try {
      served.routed = server_.Submit(workload_.queries[q]).get();
    } catch (const std::exception&) {
      served.routed.reset();
    }
    served.end = Clock::now();
    const double ms =
        std::chrono::duration<double, std::milli>(served.end - served.start)
            .count();
    if (!served.routed || served.routed->partial) {
      served.routed.reset();
      tally.Failed(ms);
      return served;
    }
    const std::size_t count = served.routed->result.records.size();
    if (count != expected_[q])
      throw OracleMismatch("query " + std::to_string(q) + " returned " +
                           std::to_string(count) + " records, oracle expects " +
                           std::to_string(expected_[q]));
    tally.Ok(*served.routed, ms);
    return served;
  }

 private:
  serve::QueryServer& server_;
  const QueryWorkload& workload_;
  const std::vector<std::size_t>& expected_;
};

int RunQueryWorkload(const Args& args) {
  const bool hotspot = args.workload == "hotspot";
  const CostModel model{EnvironmentModel::LocalHadoop()};
  const TaxiFleetConfig fleet =
      FleetConfig(args.seed, Scaled(400, args.scale), 500);
  const STRange universe = fleet.Universe();
  constexpr std::size_t kReplicas = std::size(kQueryReplicas);

  std::vector<double> setup_s, gen_s, bulk_s, slowest_build_ms;
  std::vector<std::vector<double>> build_s(kReplicas);
  Dataset dataset;
  QueryWorkload workload;
  std::unique_ptr<BlotStore> store;
  std::unique_ptr<serve::QueryServer> server;
  std::vector<std::size_t> expected;  // per distinct query

  // Set-up: generation, replica builds, server start and the warm-up pass.
  // Returns the warm-up counts (UINT32_MAX for a failed op), checked once
  // the oracle has run.
  const auto set_up = [&] {
    server.reset();
    store.reset();
    PartitionCache::Global().Configure(0);
    const Clock::time_point t0 = Clock::now();
    dataset = GenerateTaxiFleet(fleet);
    gen_s.push_back(MsSince(t0) / 1e3);
    workload = hotspot ? MakeHotspot(args.seed, dataset, universe, args.scale)
                       : MakePaperMix(args.seed, universe, args.scale);
    PartitionCache::Global().Configure(workload.cache_bytes);
    store = std::make_unique<BlotStore>(Dataset(dataset), universe);
    double bulk_ms = 0.0, slowest_ms = 0.0;
    for (std::size_t r = 0; r < kReplicas; ++r) {
      const Clock::time_point b0 = Clock::now();
      store->AddReplica(ConfigOf(kQueryReplicas[r]));
      const double ms = MsSince(b0);
      build_s[r].push_back(ms / 1e3);
      bulk_ms += ms;
      slowest_ms = std::max(slowest_ms, ms);
    }
    bulk_s.push_back(bulk_ms / 1e3);
    slowest_build_ms.push_back(slowest_ms);
    serve::ServerOptions options;
    options.worker_threads = 1;
    options.max_inflight = 4;
    options.default_deadline_ms = workload.deadline_ms;
    server = std::make_unique<serve::QueryServer>(*store, model, options);
    // The warm-up arms the latency map's brownout state and fills the
    // cache, which the first timed pass would otherwise pay for.
    std::vector<std::uint32_t> counts(workload.seq.size(), UINT32_MAX);
    for (std::uint32_t pos = 0; pos < workload.seq.size(); ++pos) {
      try {
        const BlotStore::RoutedResult routed =
            server->Submit(workload.queries[workload.seq[pos]]).get();
        if (!routed.partial)
          counts[pos] = std::uint32_t(routed.result.records.size());
      } catch (const std::exception&) {
      }
    }
    setup_s.push_back(MsSince(t0) / 1e3);
    return counts;
  };

  QueryTally tally, traced_tally;
  SpanLog spans;
  DecodeTally decode;
  // Routed replica of every regret-sampled op, per pass.
  std::vector<std::vector<std::int32_t>> regret_chosen;
  const auto run_passes = [&](QueryClient& client, double seconds,
                              QueryTally& t, SpanLog* trace,
                              DecodeTally* replay) {
    const Clock::time_point start = Clock::now();
    std::uint64_t routed_before[kMaxReplicas] = {};
    std::copy(std::begin(t.routed_to), std::end(t.routed_to), routed_before);
    do {
      std::vector<std::int32_t> chosen(workload.regret_ops.size(), -1);
      std::size_t next_sample = 0;
      for (std::uint32_t pos = 0; pos < workload.seq.size(); ++pos) {
        const QueryClient::Served served = client.Serve(pos, t);
        const auto& routed = served.routed;
        if (next_sample < workload.regret_ops.size() &&
            workload.regret_ops[next_sample] == pos) {
          if (routed) chosen[next_sample] = std::int32_t(routed->replica_index);
          ++next_sample;
        }
        if (!trace || !routed) continue;
        const std::uint32_t op = std::uint32_t(t.queries);
        const std::int32_t serve_span =
            trace->Add(op, kServe, -1, served.start, served.end);
        const STRange& query = workload.queries[workload.seq[pos]];
        const Clock::time_point t0 = Clock::now();
        (void)store->Execute(query, model);
        const std::int32_t store_span =
            trace->Add(op, kStore, serve_span, t0, Clock::now());
        ReplayLayers(*store, model, query, routed->replica_index,
                     MissShare(routed->result.stats), op, store_span, *trace,
                     *replay);
      }
      // Traced passes replay each op through BlotStore::Execute, which feeds
      // the latency map and so shifts later routing; only untraced passes
      // are scored.
      if (!trace) regret_chosen.push_back(std::move(chosen));
      t.EndPass();
      // Per-pass routed counts (stderr) make routing flips visible.
      std::fprintf(stderr, "pass %zu routed:", t.pass_end.size());
      for (std::size_t r = 0; r < kReplicas; ++r) {
        std::fprintf(stderr, " r%zu=%llu", r,
                     static_cast<unsigned long long>(t.routed_to[r] -
                                                     routed_before[r]));
        routed_before[r] = t.routed_to[r];
      }
      std::fprintf(stderr, " p50=%.4f ms\n",
                   Median(t.Pass(t.pass_end.size() - 1)));
    } while (MsSince(start) < seconds * 1e3);
  };

  // kRounds rounds, each from a fresh set-up. The traced run spends the
  // first half of each round's share untraced (cache counters, routing
  // shares and the untraced serve p50 come from it) and the second half
  // replaying every op through the layers.
  PartitionCache::Stats cache;  // summed over the untraced parts
  serve::ServerStatsSnapshot server_stats;  // summed over rounds
  std::uint64_t warm_ops = 0, warm_failed = 0;
  const double round_seconds =
      args.seconds / double(kRounds) / (args.trace ? 2.0 : 1.0);
  for (std::size_t round = 0; round < kRounds; ++round) {
    const std::vector<std::uint32_t> warm_counts = set_up();
    if (expected.empty()) {  // oracle counts, outside set-up
      const testing::Oracle oracle(dataset);
      expected.resize(workload.queries.size());
      for (std::size_t q = 0; q < expected.size(); ++q)
        expected[q] = oracle.Count(workload.queries[q]);
      if (args.corrupt_expected) ++expected[workload.seq[0]];
    }
    for (std::uint32_t pos = 0; pos < workload.seq.size(); ++pos) {
      ++warm_ops;
      if (warm_counts[pos] == UINT32_MAX) {
        ++warm_failed;
      } else if (warm_counts[pos] != expected[workload.seq[pos]]) {
        throw OracleMismatch("warm-up op " + std::to_string(pos) +
                             " disagrees with the oracle");
      }
    }

    QueryClient client(*server, workload, expected);
    PartitionCache::Global().ResetStats();
    run_passes(client, round_seconds, tally, nullptr, nullptr);
    const PartitionCache::Stats c = PartitionCache::Global().stats();
    cache.hits += c.hits;
    cache.misses += c.misses;
    cache.evictions += c.evictions;
    cache.bytes = c.bytes;
    if (args.trace)
      run_passes(client, round_seconds, traced_tally, &spans, &decode);
    const serve::ServerStatsSnapshot st = server->stats();
    server_stats.submitted += st.submitted;
    server_stats.shed += st.shed;
    server_stats.failed += st.failed;
  }

  // Routing regret, single-threaded and with the cache off so every
  // replica pays its own decode. The replicas are identical in every
  // round, so the last round's store times the choices of all of them.
  PartitionCache::Global().Configure(0);
  RegretTally regret;
  for (std::size_t i = 0; i < workload.regret_ops.size(); ++i) {
    const STRange& query =
        workload.queries[workload.seq[workload.regret_ops[i]]];
    const std::vector<double> times = TimeOnEveryReplica(*store, query);
    for (const auto& pass : regret_chosen)
      if (pass[i] >= 0) regret.Add(times, std::size_t(pass[i]));
  }

  // Per-shape diagnostics (stderr): served p50 and share of busy time.
  if (!hotspot && !args.trace) {
    const std::size_t n = workload.seq.size();
    std::vector<std::vector<double>> by_shape(kPaperShapes);
    for (std::size_t i = 0; i < tally.latency_ms.size(); ++i)
      by_shape[workload.shape[workload.seq[i % n]]].push_back(
          tally.latency_ms[i]);
    for (std::size_t s = 0; s < by_shape.size(); ++s) {
      double sum = 0.0;
      for (const double ms : by_shape[s]) sum += ms;
      std::fprintf(stderr, "shape q%zu: n=%zu p50=%.4f ms busy=%.1f%%\n",
                   s + 1, by_shape[s].size(),
                   Median(by_shape[s]), 100.0 * sum / tally.busy_ms);
    }
  }
  // Decoded bytes one pass touches, as routed at the end of the run.
  std::map<std::pair<std::size_t, std::size_t>, std::uint64_t> touched;
  for (const STRange& query : workload.queries) {
    const std::size_t r = store->RouteQueryDetailed(query, model).replica_index;
    for (const std::size_t p : store->replica(r).index().InvolvedPartitions(
             query))
      touched[{r, p}] =
          store->replica(r).partition(p).num_records * sizeof(Record) +
          PartitionCache::kPerEntryOverheadBytes;
  }
  double touched_bytes = 0.0;
  for (const auto& [key, bytes] : touched) touched_bytes += double(bytes);
  std::fprintf(stderr,
               "%s: %zu records, %zu ops/pass, %zu passes, storage %.2f MB, "
               "decoded %.1f MiB touched per pass, cache %.1f MiB, "
               "hit ratio %.3f\n",
               args.workload.c_str(), dataset.size(), workload.seq.size(),
               tally.pass_end.size(), double(store->TotalStorageBytes()) / 1e6,
               touched_bytes / (1 << 20),
               double(workload.cache_bytes) / (1 << 20), cache.HitRatio());

  Report report;
  const std::uint64_t attempted =
      tally.queries + traced_tally.queries + warm_ops;
  const std::uint64_t failed =
      tally.failed + traced_tally.failed + warm_failed;
  if (!args.trace) {
    report.Add("setup_s", Median(setup_s), "s");
    ReportLatency(tally, report);
    report.Add("routing_regret", Geomean(regret.regret), "ratio");
    report.Add("bytes_per_user_byte",
               double(store->TotalStorageBytes()) /
                   double(dataset.size() * kRecordRowBytes),
               "ratio");
    report.Add("peak_rss_mb", PeakRssMb(), "MiB");
    // No streaming writes here: the replica set is bulk-loaded in set-up,
    // so the ingest metrics describe that load (records/s through the
    // replica builds, and the longest single replica build as the stall).
    report.Add("ingest_rps", double(dataset.size()) / Median(bulk_s), "1/s");
    report.Add("ingest_p99_ms", Median(slowest_build_ms), "ms");
  } else {
    const double q = double(std::max<std::uint64_t>(1, tally.queries));
    const double submitted = double(std::max<std::uint64_t>(
        1, server_stats.submitted));
    report.Add("serve.self_ms",
               spans.MedianMs(kServe) - spans.MedianMs(kStore), "ms");
    report.Add("serve.shed_frac", double(server_stats.shed) / submitted,
               "ratio");
    report.Add("serve.failed_frac", double(server_stats.failed) / submitted,
               "ratio");
    report.Add("core.route_us", spans.MedianMs(kRoute) * 1e3, "us");
    report.Add("core.routed_fastest_frac", regret.FastestFrac(), "ratio");
    report.Add("core.exec_self_ms",
               spans.MedianMs(kStore) - spans.MedianMs(kRoute) -
                   spans.MedianMs(kScan),
               "ms");
    ReportTallyLayers(tally, kReplicas, report);
    report.Add("cache.hit_ratio", cache.HitRatio(), "ratio");
    report.Add("cache.evictions_per_query", double(cache.evictions) / q,
               "count");
    report.Add("cache.resident_mb", double(cache.bytes) / (1 << 20), "MiB");
    report.Add("streaming.ingest_us", 0.0, "us");
    report.Add("streaming.compact_s", 0.0, "s");
    report.Add("streaming.compactions", 0.0, "count");
    report.Add("streaming.delta_scan_ms", 0.0, "ms");
    report.Add("blot.index_us", spans.MedianMs(kIndex) * 1e3, "us");
    const std::vector<double> scan_ms = spans.DurationsMs(kScan);
    report.Add("blot.scan_ms_p50", Percentile(scan_ms, 50), "ms");
    report.Add("blot.scan_ms_p99", Percentile(scan_ms, 99), "ms");
    ReportSetupLayers(gen_s, build_s, report);
    ReportDecode(decode, report);
    ReportEncodeRates(store->replica(0), report);
    report.Add("trace.overhead_ms",
               spans.MedianMs(kServe) - Percentile(tally.latency_ms, 50),
               "ms");
    spans.Write(args.spans_out);
  }
  server.reset();
  std::printf("%s\n", report.Json(true, attempted, failed).c_str());
  return 0;
}

// ---- ingest-mix: StreamingStore over a smaller two-replica store --------
//
// Modeled on the repository's StreamingStore caller,
// examples/live_dashboard.cpp: the store bootstraps on the first week of
// data, the later weeks stream in time order, and after every tick of
// ingested records a dashboard refresh queries each cell of a 6 x 6 grid
// over the last 24 hours behind the ingest head. The streamed records come
// from a second fleet, whose vehicles come online after the bootstrap week.
// The dashboard refreshes once per 6000 records; here once per tick of
// kTickRecords, so a pass holds over 1000 queries (a p99 with ten samples
// beyond it) while compaction still runs several times per pass. --scale
// scales the tick with the fleets, so a tiny run compacts as often.

constexpr double kBootstrapSeconds = 7 * 86400.0;
constexpr double kWindowSeconds = 86400.0;
constexpr int kGrid = 6;
constexpr std::size_t kTickRecords = 250;
// Compaction every tenth tick, so the per-tick p99 lands in the
// compaction stall.
constexpr std::size_t kTicksPerCompaction = 10;
// A pass streams this many ticks (of the ~60 the second fleet has after
// the bootstrap week), so every seed compacts five times per pass.
constexpr std::size_t kTicks = 56;

struct IngestWorkload {
  Dataset base;                  // the bootstrap week
  std::vector<Record> stream;    // later weeks of the second fleet, in time
  std::size_t tick_records = 0;
  std::size_t ticks = 0;
  std::vector<STRange> warm_queries;  // one refresh at the bootstrap head
  std::vector<STRange> queries;       // kGrid^2 per tick
};

// The refresh grid over the kWindowSeconds behind `now`.
void AddRefresh(const STRange& universe, double now,
                std::vector<STRange>& out) {
  for (int gx = 0; gx < kGrid; ++gx)
    for (int gy = 0; gy < kGrid; ++gy)
      out.push_back(STRange::FromBounds(
          universe.x_min() + universe.Width() * gx / kGrid,
          universe.x_min() + universe.Width() * (gx + 1) / kGrid,
          universe.y_min() + universe.Height() * gy / kGrid,
          universe.y_min() + universe.Height() * (gy + 1) / kGrid,
          now - kWindowSeconds, now));
}

IngestWorkload MakeIngestMix(const TaxiFleetConfig& bootstrap_fleet,
                             const TaxiFleetConfig& stream_fleet,
                             const STRange& universe, double scale) {
  IngestWorkload w;
  const double week_end = universe.t_min() + kBootstrapSeconds;
  const Dataset bootstrap = GenerateTaxiFleet(bootstrap_fleet);
  for (const Record& r : bootstrap.records())
    if (static_cast<double>(r.time) < week_end) w.base.Append(r);
  const Dataset second = GenerateTaxiFleet(stream_fleet);
  Dataset later;
  for (const Record& r : second.records())
    if (static_cast<double>(r.time) >= week_end) later.Append(r);
  later.SortByTime();
  w.stream = later.records();
  w.tick_records = Scaled(kTickRecords, scale);
  w.stream.resize(std::min(w.stream.size(), kTicks * w.tick_records));
  w.ticks = (w.stream.size() + w.tick_records - 1) / w.tick_records;
  double head = universe.t_min();
  for (const Record& r : w.base.records())
    head = std::max(head, static_cast<double>(r.time));
  AddRefresh(universe, head, w.warm_queries);
  for (std::size_t t = 0; t < w.ticks; ++t) {
    const std::size_t end =
        std::min(w.stream.size(), (t + 1) * w.tick_records);
    AddRefresh(universe, static_cast<double>(w.stream[end - 1].time),
               w.queries);
  }
  return w;
}

int RunIngestMix(const Args& args) {
  const CostModel model{EnvironmentModel::LocalHadoop()};
  // Pass `pass` of the run streams its own pair of fleets, seeded from
  // --seed and the pass number, so a run's figures average over many
  // generated months rather than hanging on one.
  const auto bootstrap_fleet = [&](std::uint64_t pass) {
    return FleetConfig((args.seed << 20) + 2 * pass, Scaled(80, args.scale),
                       1000);
  };
  const auto stream_fleet = [&](std::uint64_t pass) {
    return FleetConfig((args.seed << 20) + 2 * pass + 1,
                       Scaled(25, args.scale), 800);
  };
  const STRange universe = bootstrap_fleet(0).Universe();
  constexpr std::size_t kReplicas = std::size(kIngestReplicas);
  constexpr std::size_t kPerTick = std::size_t(kGrid) * kGrid;
  PartitionCache::Global().Configure(0);

  std::vector<double> setup_s, gen_s;
  std::vector<std::vector<double>> build_s(kReplicas);
  IngestWorkload w;
  std::unique_ptr<StreamingStore> streaming;
  // Oracle counts of the current pass, per query: base records plus the
  // ticks ingested so far.
  std::vector<std::size_t> expected, warm_expected;
  std::uint64_t warm_ops = 0, warm_failed = 0;

  // Set-up, before every pass: generation, the two-replica base store
  // (single-threaded builds) and a warm-up refresh at the bootstrap head,
  // which arms the base store's latency map before the pass routes on it.
  // The oracle runs after it, untimed.
  const auto set_up = [&](std::uint64_t pass) {
    streaming.reset();
    const Clock::time_point t0 = Clock::now();
    w = MakeIngestMix(bootstrap_fleet(pass), stream_fleet(pass), universe,
                      args.scale);
    gen_s.push_back(MsSince(t0) / 1e3);
    BlotStore store(Dataset(w.base), universe);
    for (std::size_t r = 0; r < kReplicas; ++r) {
      const Clock::time_point b0 = Clock::now();
      store.AddReplica(ConfigOf(kIngestReplicas[r]));
      build_s[r].push_back(MsSince(b0) / 1e3);
    }
    streaming = std::make_unique<StreamingStore>(
        std::move(store), kTicksPerCompaction * w.tick_records);
    std::vector<std::size_t> counts(w.warm_queries.size(), SIZE_MAX);
    for (std::size_t q = 0; q < w.warm_queries.size(); ++q) {
      try {
        const BlotStore::RoutedResult routed =
            streaming->Execute(w.warm_queries[q], model);
        if (!routed.partial) counts[q] = routed.result.records.size();
      } catch (const std::exception&) {
      }
    }
    setup_s.push_back(MsSince(t0) / 1e3);

    const testing::Oracle base_oracle(w.base);
    warm_expected.clear();
    for (const STRange& query : w.warm_queries)
      warm_expected.push_back(base_oracle.Count(query));
    expected.assign(w.queries.size(), 0);
    for (std::size_t t = 0; t < w.ticks; ++t) {
      const std::size_t end =
          std::min(w.stream.size(), (t + 1) * w.tick_records);
      const testing::Oracle stream_oracle(std::vector<Record>(
          w.stream.begin(), w.stream.begin() + std::ptrdiff_t(end)));
      for (std::size_t q = t * kPerTick; q < (t + 1) * kPerTick; ++q)
        expected[q] = base_oracle.Count(w.queries[q]) +
                      stream_oracle.Count(w.queries[q]);
    }
    if (args.corrupt_expected) ++expected[0];
    for (std::size_t q = 0; q < counts.size(); ++q) {
      ++warm_ops;
      if (counts[q] == SIZE_MAX) {
        ++warm_failed;
      } else if (counts[q] != warm_expected[q]) {
        throw OracleMismatch("warm-up query " + std::to_string(q) +
                             " disagrees with the oracle");
      }
    }
  };

  QueryTally tally, traced_tally;
  std::vector<double> tick_ms;
  std::vector<bool> tick_compacted;
  SpanLog spans;
  DecodeTally decode;
  RegretTally regret;
  std::size_t passes = 0;
  std::uint64_t compactions = 0;
  // One pass over a fresh set-up: each tick's records through Ingest, then
  // the refresh. Traced passes replay every query through the layers and
  // are not scored for regret.
  const auto run_pass = [&](QueryTally& t, bool traced) {
    set_up(passes);
    StreamingStore& s = *streaming;
    std::size_t q = 0;
    for (std::size_t tick = 0; tick < w.ticks; ++tick) {
      const Clock::time_point t0 = Clock::now();
      bool compacted = false;
      for (std::size_t i = tick * w.tick_records;
           i < std::min(w.stream.size(), (tick + 1) * w.tick_records); ++i)
        compacted |= s.Ingest(w.stream[i]);
      const Clock::time_point t1 = Clock::now();
      tick_ms.push_back(
          std::chrono::duration<double, std::milli>(t1 - t0).count());
      tick_compacted.push_back(compacted);
      if (traced) spans.Add(std::uint32_t(tick), kIngest, -1, t0, t1);
      for (std::size_t k = 0; k < kPerTick; ++k, ++q) {
        const Clock::time_point s0 = Clock::now();
        std::optional<BlotStore::RoutedResult> routed;
        try {
          routed = s.Execute(w.queries[q], model);
        } catch (const std::exception&) {
          routed.reset();
        }
        const Clock::time_point s1 = Clock::now();
        const double ms =
            std::chrono::duration<double, std::milli>(s1 - s0).count();
        if (!routed || routed->partial) {
          t.Failed(ms);
          continue;
        }
        const std::size_t count = routed->result.records.size();
        if (count != expected[q])
          throw OracleMismatch("query " + std::to_string(q) + " returned " +
                               std::to_string(count) +
                               " records, oracle expects " +
                               std::to_string(expected[q]));
        t.Ok(*routed, ms);
        if (!traced && q % 8 == 0)
          regret.Add(TimeOnEveryReplica(s.store(), w.queries[q]),
                     routed->replica_index);
        if (traced) {
          const std::uint32_t op = std::uint32_t(q);
          const std::int32_t root = spans.Add(op, kStreaming, -1, s0, s1);
          ReplayLayers(s.store(), model, w.queries[q], routed->replica_index,
                       1.0, op, root, spans, decode);
        }
      }
    }
    t.EndPass();
    compactions += s.compactions();
    ++passes;
  };

  // Whole passes for --seconds; the traced run spends the first half
  // untraced (the untraced p50 comes from it) and the second half traced.
  const double untraced_seconds = args.seconds / (args.trace ? 2.0 : 1.0);
  Clock::time_point start = Clock::now();
  do {
    run_pass(tally, false);
  } while (MsSince(start) < untraced_seconds * 1e3);
  if (args.trace) {
    start = Clock::now();
    do {
      run_pass(traced_tally, true);
    } while (MsSince(start) < untraced_seconds * 1e3);
  }

  std::fprintf(stderr,
               "ingest-mix: %zu base records, %zu streamed/pass in %zu "
               "ticks, %zu queries/pass, %zu passes, %.1f compactions/pass\n",
               w.base.size(), w.stream.size(), w.ticks, w.queries.size(),
               passes, double(compactions) / double(passes));

  Report report;
  const std::uint64_t attempted =
      tally.queries + traced_tally.queries + tick_ms.size() + warm_ops;
  const std::uint64_t failed =
      tally.failed + traced_tally.failed + warm_failed;
  const BlotStore& final_store = streaming->store();
  if (!args.trace) {
    double ingest_ms = 0.0;
    for (const double ms : tick_ms) ingest_ms += ms;
    report.Add("setup_s", Median(setup_s), "s");
    ReportLatency(tally, report);
    report.Add("routing_regret", Geomean(regret.regret), "ratio");
    report.Add("bytes_per_user_byte",
               double(final_store.TotalStorageBytes()) /
                   double(final_store.dataset().size() * kRecordRowBytes),
               "ratio");
    report.Add("peak_rss_mb", PeakRssMb(), "MiB");
    report.Add("ingest_rps",
               double(passes * w.stream.size()) / (ingest_ms / 1e3), "1/s");
    report.Add("ingest_p99_ms", Percentile(tick_ms, 99), "ms");
  } else {
    std::vector<double> plain_us, compact_s;
    for (std::size_t i = 0; i < tick_ms.size(); ++i) {
      if (tick_compacted[i]) {
        compact_s.push_back(tick_ms[i] / 1e3);
      } else {
        plain_us.push_back(tick_ms[i] * 1e3);
      }
    }
    report.Add("serve.self_ms", 0.0, "ms");
    report.Add("serve.shed_frac", 0.0, "ratio");
    report.Add("serve.failed_frac",
               Ratio(double(tally.failed + traced_tally.failed),
                     double(tally.queries + traced_tally.queries)),
               "ratio");
    report.Add("core.route_us", spans.MedianMs(kRoute) * 1e3, "us");
    report.Add("core.routed_fastest_frac", regret.FastestFrac(), "ratio");
    report.Add("core.exec_self_ms", 0.0, "ms");
    ReportTallyLayers(tally, kReplicas, report);
    report.Add("cache.hit_ratio", 0.0, "ratio");
    report.Add("cache.evictions_per_query", 0.0, "count");
    report.Add("cache.resident_mb", 0.0, "MiB");
    report.Add("streaming.ingest_us", Median(plain_us), "us");
    report.Add("streaming.compact_s", Median(compact_s), "s");
    report.Add("streaming.compactions", double(compactions) / double(passes),
               "count");
    report.Add("streaming.delta_scan_ms",
               spans.MedianMs(kStreaming) - spans.MedianMs(kScan), "ms");
    report.Add("blot.index_us", spans.MedianMs(kIndex) * 1e3, "us");
    const std::vector<double> scan_ms = spans.DurationsMs(kScan);
    report.Add("blot.scan_ms_p50", Percentile(scan_ms, 50), "ms");
    report.Add("blot.scan_ms_p99", Percentile(scan_ms, 99), "ms");
    ReportSetupLayers(gen_s, build_s, report);
    ReportDecode(decode, report);
    ReportEncodeRates(final_store.replica(0), report);
    report.Add("trace.overhead_ms",
               spans.MedianMs(kStreaming) - Percentile(tally.latency_ms, 50),
               "ms");
    spans.Write(args.spans_out);
  }
  std::printf("%s\n", report.Json(true, attempted, failed).c_str());
  return 0;
}

// ---- command line ---------------------------------------------------------

int Usage(const char* message) {
  std::fprintf(stderr,
               "blotbench: %s\nusage: blotbench --workload "
               "paper-mix|hotspot|ingest-mix --seed N --seconds S "
               "--trace 0|1 [--scale X] [--corrupt-expected 1] "
               "[--spans-out FILE]\n",
               message);
  return 2;
}

int Main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        args.trace = std::stoi(value) != 0;
      } else if (flag == "--scale") {
        args.scale = std::stod(value);
      } else if (flag == "--corrupt-expected") {
        args.corrupt_expected = std::stoi(value) != 0;
      } else if (flag == "--spans-out") {
        args.spans_out = value;
      } else {
        return Usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::exception&) {
      return Usage(("bad value for " + flag).c_str());
    }
  }
  if (!(args.seconds > 0) || !(args.scale > 0))
    return Usage("--seconds and --scale must be positive");
  try {
    if (args.workload == "paper-mix" || args.workload == "hotspot")
      return RunQueryWorkload(args);
    if (args.workload == "ingest-mix") return RunIngestMix(args);
  } catch (const OracleMismatch& e) {
    std::fprintf(stderr, "blotbench: oracle mismatch: %s\n", e.what());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "blotbench: error: %s\n", e.what());
    return 3;
  }
  return Usage("unknown workload");
}

}  // namespace
}  // namespace blot::blotbench

int main(int argc, char** argv) { return blot::blotbench::Main(argc, argv); }
