// blotctl — command-line front end for the BLOT diverse-replica store.
//
// Commands:
//   generate    synthesize a taxi-fleet dataset (CSV or binary)
//   build       build a replica from a dataset and persist it on disk
//   info        describe a persisted replica
//   query       range query against a persisted replica
//   aggregate   range statistics against a persisted replica
//   trajectory  one object's trajectory over a time window
//   recover     rebuild a damaged replica from a healthy one
//   store-build persist a multi-replica store (dataset + replicas)
//   store-query routed query against a persisted store
//   advise      recommend a diverse replica set for a workload/budget
//   stats       probe a persisted store and emit a metrics snapshot
//
// Observability: `--trace` on query/store-query prints the span tree of
// the execution; `--metrics-out FILE` on the heavier commands writes a
// JSON metrics snapshot when the command finishes (docs/observability.md).
//
// Run `blotctl help` (or any command with missing flags) for usage.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>

#include "blot/aggregate.h"
#include "blot/segment_store.h"
#include "blot/trajectory.h"
#include "core/advisor.h"
#include "core/fault_injection.h"
#include "core/partition_cache.h"
#include "core/store.h"
#include "gen/taxi_generator.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "obs/snapshot.h"
#include "obs/trace.h"
#include "serve/server.h"
#include "tools/flags.h"
#include "util/stats.h"

namespace blot::tools {
namespace {

int Usage() {
  std::fprintf(
      stderr,
      "usage: blotctl <command> [--flag value ...]\n"
      "\n"
      "  generate   --out FILE [--taxis N] [--samples N] [--seed S]\n"
      "             [--format csv|bin]\n"
      "  build      --data FILE --out DIR [--scheme KD64xT16/COL-GZIP]\n"
      "             [--hybrid 1]\n"
      "  info       --dir DIR\n"
      "  query      --dir DIR --range x0,x1,y0,y1,t0,t1 [--limit N]\n"
      "             [--trace] [--cache-mb N]\n"
      "  aggregate  --dir DIR --range x0,x1,y0,y1,t0,t1\n"
      "  trajectory --dir DIR --oid N [--from T] [--to T] [--limit N]\n"
      "  recover    --from DIR --to DIR\n"
      "  store-build --data FILE --out DIR [--schemes A;B;...]\n"
      "  store-query --dir DIR --range x0,x1,y0,y1,t0,t1 [--env s3|hadoop]\n"
      "             [--trace] [--profile] [--cache-mb N]\n"
      "             [--concurrency N] [--repeat K]\n"
      "             [--deadline-ms D] [--allow-partial] [--hedge-ms H]\n"
      "  advise     --data FILE [--records N] [--budget-gb G]\n"
      "             [--env s3|hadoop] [--algorithm greedy|mip]\n"
      "  stats      --dir DIR [--queries N] [--env s3|hadoop] [--seed S]\n"
      "             [--format json|prom] [--out FILE] [--cache-mb N]\n"
      "             [--snapshots-out FILE] [--snapshot-interval-ms N]\n"
      "\n"
      "  build, query, recover, store-build, store-query and advise also\n"
      "  accept --metrics-out FILE (JSON metrics snapshot on completion).\n"
      "  --cache-mb N enables the decoded-partition cache with an N MiB\n"
      "  budget (default 0 = disabled; docs/performance.md).\n"
      "  query, store-query and stats accept --inject-faults SPEC to arm\n"
      "  the deterministic fault injector on the read path, e.g.\n"
      "  \"seed=7;p=0.5;kinds=bitflip,readerror\" (docs/robustness.md).\n"
      "  query, store-query and stats accept --event-log FILE to append\n"
      "  structured JSONL events (quarantine/failover/repair/...); view\n"
      "  them with blotmon. store-query --profile prints the per-query\n"
      "  stage profile (single-threaded so stage times sum to the total).\n"
      "  store-query --repeat K [--concurrency N] replays the query K\n"
      "  times over N serving-layer workers and reports p50/p95.\n"
      "  stats --snapshots-out FILE [--snapshot-interval-ms N] samples the\n"
      "  registry on a background thread and writes snapshot JSONL.\n"
      "  store-query --deadline-ms D bounds the query's wall time;\n"
      "  --allow-partial serves what was found (with a coverage report)\n"
      "  when the deadline expires or partitions are lost; --hedge-ms H\n"
      "  races a backup replica when the primary stalls past H ms\n"
      "  (docs/robustness.md).\n"
      "\n"
      "exit codes: 0 ok, 1 error, 2 usage/invalid argument,\n"
      "            3 corrupt data, 4 query failed (no healthy copy),\n"
      "            5 partial result served (--allow-partial),\n"
      "            6 deadline exceeded (--deadline-ms)\n");
  return 2;
}

// --metrics-out FILE: switch the global registry on before the command
// body runs, and dump the JSON snapshot when it is done.
void EnableMetricsIfRequested(const Flags& flags) {
  if (flags.Has("metrics-out"))
    obs::MetricsRegistry::global().set_enabled(true);
}

void WriteMetricsIfRequested(const Flags& flags) {
  if (!flags.Has("metrics-out")) return;
  const std::string path = flags.GetString("metrics-out");
  std::ofstream out(path, std::ios::trunc);
  require(out.good(), "cannot open metrics output: " + path);
  out << obs::MetricsRegistry::global().Snapshot().ToJson();
}

// --event-log FILE: append structured events to FILE for the duration of
// the command (blotmon pretty-prints the result).
void OpenEventLogIfRequested(const Flags& flags) {
  if (flags.Has("event-log"))
    obs::EventLog::Global().OpenSink(flags.GetString("event-log"));
}

void CloseEventLogIfOpen() {
  auto& log = obs::EventLog::Global();
  if (log.has_sink()) log.CloseSink();
}

// --inject-faults SPEC: arm the global deterministic fault injector for
// this command (grammar in ParseFaultSpec / docs/robustness.md).
void ArmFaultsIfRequested(const Flags& flags) {
  if (flags.Has("inject-faults"))
    FaultInjector::Global().Arm(
        ParseFaultSpec(flags.GetString("inject-faults")));
}

// One-line injector summary after a command that armed it.
void PrintFaultSummaryIfArmed(const Flags& flags) {
  if (!flags.Has("inject-faults")) return;
  const FaultInjector::Stats s = FaultInjector::Global().stats();
  std::fprintf(stderr,
               "faults: %llu fired on %llu targets (%llu corruptions, "
               "%llu read errors, %llu latency spikes)\n",
               static_cast<unsigned long long>(s.fired_total),
               static_cast<unsigned long long>(s.targets_hit),
               static_cast<unsigned long long>(s.bit_flips + s.truncations +
                                               s.torn_reads),
               static_cast<unsigned long long>(s.read_errors),
               static_cast<unsigned long long>(s.latency_spikes));
  FaultInjector::Global().Disarm();
}

// --cache-mb N: give the decoded-partition cache an N MiB budget for
// this command (0, the default, leaves it disabled).
void ConfigureCacheIfRequested(const Flags& flags) {
  const std::int64_t cache_mb = flags.GetInt("cache-mb", 0);
  require(cache_mb >= 0, "--cache-mb must be >= 0");
  if (cache_mb > 0)
    PartitionCache::Global().Configure(
        static_cast<std::uint64_t>(cache_mb) << 20);
}

// One-line cache summary after a command that may have used it.
void PrintCacheSummaryIfEnabled() {
  PartitionCache& cache = PartitionCache::Global();
  if (!cache.enabled()) return;
  const PartitionCache::Stats s = cache.stats();
  std::printf("cache: %llu hits / %llu misses (%.1f%% hit ratio), "
              "%.2f MiB resident, %llu evictions\n",
              static_cast<unsigned long long>(s.hits),
              static_cast<unsigned long long>(s.misses),
              100.0 * s.HitRatio(), double(s.bytes) / (1 << 20),
              static_cast<unsigned long long>(s.evictions));
}

Dataset LoadDataset(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  require(in.good(), "cannot open dataset: " + path);
  if (path.size() >= 4 && path.substr(path.size() - 4) == ".csv")
    return Dataset::ReadCsv(in);
  return Dataset::ReadBinary(in);
}

// Parses "KD64xT16/COL-GZIP" (optionally "GRID..." / "+HYBRID").
ReplicaConfig ParseReplicaConfig(std::string name, bool hybrid) {
  ReplicaConfig config;
  if (name.size() > 7 && name.substr(name.size() - 7) == "+HYBRID") {
    hybrid = true;
    name = name.substr(0, name.size() - 7);
  }
  const std::size_t slash = name.find('/');
  require(slash != std::string::npos,
          "scheme must look like KD64xT16/COL-GZIP: " + name);
  const std::string part = name.substr(0, slash);
  config.encoding = EncodingScheme::FromName(name.substr(slash + 1));
  std::size_t digits = 0;
  if (part.rfind("KD", 0) == 0) {
    config.partitioning.method = SpatialMethod::kKdTree;
    digits = 2;
  } else if (part.rfind("GRID", 0) == 0) {
    config.partitioning.method = SpatialMethod::kGrid;
    digits = 4;
  } else {
    throw InvalidArgument("partitioning must start with KD or GRID: " + part);
  }
  const std::size_t x = part.find("xT", digits);
  require(x != std::string::npos, "partitioning must contain xT: " + part);
  config.partitioning.spatial_partitions =
      static_cast<std::size_t>(std::stoull(part.substr(digits, x - digits)));
  config.partitioning.temporal_partitions =
      static_cast<std::size_t>(std::stoull(part.substr(x + 2)));
  if (hybrid) config.policy = EncodingPolicy::kBestCodecPerPartition;
  return config;
}

STRange ParseRange(const std::string& csv) {
  const std::vector<double> v = SplitDoubles(csv);
  require(v.size() == 6, "range needs 6 numbers: x0,x1,y0,y1,t0,t1");
  return STRange::FromBounds(v[0], v[1], v[2], v[3], v[4], v[5]);
}

int CmdGenerate(const Flags& flags) {
  TaxiFleetConfig config;
  config.num_taxis = static_cast<std::size_t>(flags.GetInt("taxis", 100));
  config.samples_per_taxi =
      static_cast<std::size_t>(flags.GetInt("samples", 1000));
  config.seed = flags.GetUint64("seed", 20071101);
  const std::string out = flags.GetString("out");
  const std::string format = flags.GetString("format", "bin");
  const Dataset dataset = GenerateTaxiFleet(config);
  std::ofstream file(out, std::ios::binary | std::ios::trunc);
  require(file.good(), "cannot open output: " + out);
  if (format == "csv") {
    dataset.WriteCsv(file);
  } else {
    require(format == "bin", "format must be csv or bin");
    dataset.WriteBinary(file);
  }
  std::printf("wrote %zu records to %s (%s)\n", dataset.size(), out.c_str(),
              format.c_str());
  return 0;
}

int CmdBuild(const Flags& flags) {
  EnableMetricsIfRequested(flags);
  const Dataset dataset = LoadDataset(flags.GetString("data"));
  const ReplicaConfig config = ParseReplicaConfig(
      flags.GetString("scheme", "KD64xT16/COL-GZIP"),
      flags.GetInt("hybrid", 0) != 0);
  ThreadPool pool(4);
  const Replica replica =
      Replica::Build(dataset, config, dataset.BoundingBox(), &pool);
  const std::string dir = flags.GetString("out");
  SegmentStore::Save(replica, dir);
  std::printf("built %s: %zu partitions, %llu records, %.2f MiB -> %s\n",
              config.Name().c_str(), replica.NumPartitions(),
              static_cast<unsigned long long>(replica.NumRecords()),
              double(replica.StorageBytes()) / (1 << 20), dir.c_str());
  WriteMetricsIfRequested(flags);
  return 0;
}

int CmdInfo(const Flags& flags) {
  const std::string dir = flags.GetString("dir");
  const Replica replica = SegmentStore::Load(dir);
  std::printf("replica:    %s\n", replica.config().Name().c_str());
  std::printf("records:    %llu\n",
              static_cast<unsigned long long>(replica.NumRecords()));
  std::printf("partitions: %zu\n", replica.NumPartitions());
  std::printf("storage:    %.2f MiB (%.2f MiB on disk)\n",
              double(replica.StorageBytes()) / (1 << 20),
              double(SegmentStore::DiskBytes(dir)) / (1 << 20));
  std::printf("universe:   %s\n", replica.universe().ToString().c_str());
  return 0;
}

int CmdQuery(const Flags& flags) {
  EnableMetricsIfRequested(flags);
  ConfigureCacheIfRequested(flags);
  ArmFaultsIfRequested(flags);
  OpenEventLogIfRequested(flags);
  obs::TraceSpan root("query");
  obs::TraceSpan& load_span = root.AddChild("load");
  const std::uint64_t root_start_ns = obs::MonotonicNanos();

  Replica replica = [&] {
    obs::SpanTimer timer(&load_span);
    return SegmentStore::Load(flags.GetString("dir"));
  }();
  load_span.AddAttribute("replica", replica.config().Name());
  load_span.AddAttribute("partitions",
                         std::uint64_t{replica.NumPartitions()});

  const STRange range = ParseRange(flags.GetString("range"));
  const std::int64_t limit = flags.GetInt("limit", 20);
  ThreadPool pool(4);
  obs::TraceSpan& execute_span = root.AddChild("execute");
  const QueryResult result = [&] {
    obs::SpanTimer timer(&execute_span);
    return replica.Execute(range, &pool);
  }();
  execute_span.AddAttribute(
      "partitions_scanned", std::uint64_t{result.stats.partitions_scanned});
  execute_span.AddAttribute("records_scanned",
                            result.stats.records_scanned);
  execute_span.AddAttribute("bytes_read", result.stats.bytes_read);
  root.set_duration_ms(double(obs::MonotonicNanos() - root_start_ns) *
                       1e-6);
  if (flags.Has("trace")) std::fputs(root.Render().c_str(), stdout);

  std::printf("%zu records (scanned %llu records in %zu partitions)\n",
              result.records.size(),
              static_cast<unsigned long long>(result.stats.records_scanned),
              result.stats.partitions_scanned);
  std::int64_t shown = 0;
  for (const Record& r : result.records) {
    if (shown++ >= limit) {
      std::printf("... (%zu more)\n",
                  result.records.size() - static_cast<std::size_t>(limit));
      break;
    }
    std::printf("oid=%u t=%lld lon=%.6f lat=%.6f speed=%.1f status=%u\n",
                r.oid, static_cast<long long>(r.time), r.x, r.y,
                static_cast<double>(r.speed), r.status);
  }
  PrintCacheSummaryIfEnabled();
  PrintFaultSummaryIfArmed(flags);
  WriteMetricsIfRequested(flags);
  CloseEventLogIfOpen();
  return 0;
}

int CmdAggregate(const Flags& flags) {
  const Replica replica = SegmentStore::Load(flags.GetString("dir"));
  const STRange range = ParseRange(flags.GetString("range"));
  ThreadPool pool(4);
  const RangeStatistics s = AggregateRange(replica, range, &pool);
  std::printf("count:            %llu\n",
              static_cast<unsigned long long>(s.count));
  std::printf("distinct objects: %llu\n",
              static_cast<unsigned long long>(s.distinct_objects));
  std::printf("occupancy rate:   %.1f%%\n", 100.0 * s.OccupancyRate());
  std::printf("mean speed:       %.1f km/h\n", s.MeanSpeed());
  if (s.count > 0)
    std::printf("time span:        %lld .. %lld\n",
                static_cast<long long>(s.first_time),
                static_cast<long long>(s.last_time));
  return 0;
}

int CmdTrajectory(const Flags& flags) {
  const Replica replica = SegmentStore::Load(flags.GetString("dir"));
  const std::uint32_t oid =
      static_cast<std::uint32_t>(flags.GetInt("oid"));
  const std::int64_t from = flags.GetInt(
      "from", static_cast<std::int64_t>(replica.universe().t_min()));
  const std::int64_t to = flags.GetInt(
      "to", static_cast<std::int64_t>(replica.universe().t_max()));
  const std::int64_t limit = flags.GetInt("limit", 20);
  ThreadPool pool(4);
  const TrajectoryIndex index(replica, &pool);
  const auto result = index.Query(replica, oid, from, to, &pool);
  std::printf("object %u: %zu samples in [%lld, %lld] "
              "(scanned %zu of %zu time-matching partitions)\n",
              oid, result.records.size(), static_cast<long long>(from),
              static_cast<long long>(to), result.partitions_scanned,
              result.partitions_considered);
  std::int64_t shown = 0;
  for (const Record& r : result.records) {
    if (shown++ >= limit) {
      std::printf("...\n");
      break;
    }
    std::printf("t=%lld lon=%.6f lat=%.6f speed=%.1f\n",
                static_cast<long long>(r.time), r.x, r.y,
                static_cast<double>(r.speed));
  }
  return 0;
}

int CmdRecover(const Flags& flags) {
  EnableMetricsIfRequested(flags);
  const Replica source = SegmentStore::Load(flags.GetString("from"));
  const std::string to = flags.GetString("to");
  const Replica damaged = SegmentStore::Load(to);
  ThreadPool pool(4);
  const Replica recovered =
      RecoverReplica(source, damaged.config(), &pool);
  SegmentStore::Save(recovered, to);
  std::printf("recovered %s (%llu records) from %s\n",
              recovered.config().Name().c_str(),
              static_cast<unsigned long long>(recovered.NumRecords()),
              source.config().Name().c_str());
  WriteMetricsIfRequested(flags);
  return 0;
}

// Builds a multi-replica store from a ;-separated scheme list and
// persists it (dataset + all replicas).
int CmdStoreBuild(const Flags& flags) {
  EnableMetricsIfRequested(flags);
  const Dataset dataset = LoadDataset(flags.GetString("data"));
  const std::string schemes =
      flags.GetString("schemes", "KD4xT4/ROW-SNAPPY;KD64xT16/COL-GZIP");
  ThreadPool pool(4);
  BlotStore store(dataset);
  std::size_t start = 0;
  while (start <= schemes.size()) {
    const std::size_t semi = schemes.find(';', start);
    const std::string scheme = schemes.substr(
        start, semi == std::string::npos ? std::string::npos : semi - start);
    require(!scheme.empty(), "empty scheme in list: " + schemes);
    store.AddReplica(ParseReplicaConfig(scheme, false), &pool);
    if (semi == std::string::npos) break;
    start = semi + 1;
  }
  const std::string dir = flags.GetString("out");
  store.Save(dir);
  std::printf("store with %zu replicas (%.2f MiB total) -> %s\n",
              store.NumReplicas(),
              double(store.TotalStorageBytes()) / (1 << 20), dir.c_str());
  WriteMetricsIfRequested(flags);
  return 0;
}

// --profile's output: the profile's stage table and scan shape, then
// the routing outcome from the query's record — which replica served it,
// after how many attempts, and how far the model's estimate was from the
// measurement.
void PrintProfile(const BlotStore::RoutedResult& routed) {
  std::fputs(routed.profile.Render().c_str(), stdout);
  std::printf("replica=%zu attempts=%zu degraded=%s\n"
              "estimated_cost=%.3f ms measured_cost=%.3f ms "
              "error=%.1f%%\n",
              routed.replica_index, routed.attempts,
              routed.degraded ? "yes" : "no", routed.estimated_cost_ms,
              routed.measured_cost_ms,
              std::abs(obs::SignedCostErrorPct(routed.estimated_cost_ms,
                                               routed.measured_cost_ms)));
}

// Fills `root` with the span tree of one routed query, rendered from its
// record: the root carries the serving replica and both costs, `route`
// the routing decision, and one `execute` child per attempt — the
// serving one with its scan stats, a failed one with its fault.
void TraceRoutedQuery(const BlotStore& store,
                      const BlotStore::RoutedResult& routed,
                      obs::TraceSpan& root) {
  const QueryStats& stats = routed.result.stats;
  root.AddAttribute("replica", routed.served_by);
  root.AddAttribute("estimated_cost_ms", routed.estimated_cost_ms);
  root.AddAttribute("measured_cost_ms", routed.measured_cost_ms);
  root.AddAttribute("partitions_scanned",
                    std::uint64_t{stats.partitions_scanned});
  if (routed.degraded) {
    root.AddAttribute("attempts", std::uint64_t{routed.attempts});
    root.AddAttribute("degraded", std::string("true"));
  }
  if (routed.hedged) {
    root.AddAttribute("hedged", std::string("true"));
    root.AddAttribute("hedge_backup_won",
                      std::string(routed.hedge_backup_won ? "true" : "false"));
  }
  if (routed.partial) {
    root.AddAttribute("partial_served",
                      std::uint64_t{routed.result.served_partitions.size()});
    root.AddAttribute("partial_missed",
                      std::uint64_t{routed.result.missed_partitions.size()});
  }
  obs::TraceSpan& route = root.AddChild("route");
  route.set_duration_ms(routed.profile.stage(obs::Stage::kRoute));
  route.AddAttribute("candidates", std::uint64_t{store.NumReplicas()});
  route.AddAttribute("replica", routed.served_by);
  route.AddAttribute("estimated_cost_ms", routed.estimated_cost_ms);
  route.AddAttribute("predicted_partitions",
                     std::uint64_t{routed.predicted_partitions});
  for (std::size_t i = 0; i < routed.attempt_log.size(); ++i) {
    const QueryAttempt& attempt = routed.attempt_log[i];
    obs::TraceSpan& execute = root.AddChild("execute");
    execute.set_duration_ms(attempt.ms);
    execute.AddAttribute("attempt", std::uint64_t{i + 1});
    execute.AddAttribute("replica", attempt.replica);
    if (!attempt.success) {
      execute.AddAttribute("fault", attempt.fault);
      continue;
    }
    execute.AddAttribute("partitions_scanned",
                         std::uint64_t{stats.partitions_scanned});
    execute.AddAttribute("records_scanned", stats.records_scanned);
    execute.AddAttribute("records_returned",
                         std::uint64_t{routed.result.records.size()});
    execute.AddAttribute("bytes_read", stats.bytes_read);
    if (PartitionCache::Global().enabled()) {
      execute.AddAttribute("cache_hits", std::uint64_t{stats.cache_hits});
      execute.AddAttribute("cache_misses", std::uint64_t{stats.cache_misses});
    }
  }
}

// Routed query against a persisted multi-replica store. With
// --concurrency N and/or --repeat K the query runs K times scheduled
// over N request workers through the serving layer (serve::QueryServer),
// so the CLI exercises the same admission/scheduling path as a server;
// exit codes are unchanged (a failing run surfaces its error, e.g. 4 on
// QueryFailedError) and --profile prints the first run's stage profile.
int CmdStoreQuery(const Flags& flags) {
  EnableMetricsIfRequested(flags);
  ConfigureCacheIfRequested(flags);
  ArmFaultsIfRequested(flags);
  OpenEventLogIfRequested(flags);
  // --profile and --trace want the stage breakdown, which is only
  // populated when the registry is on; --profile also runs the scan
  // single-threaded so the sub-stage wall times are additive and sum to
  // the total.
  const bool profile_requested = flags.Has("profile");
  const bool trace_requested = flags.Has("trace");
  if (profile_requested || trace_requested)
    obs::MetricsRegistry::global().set_enabled(true);
  const std::size_t concurrency =
      static_cast<std::size_t>(flags.GetInt("concurrency", 1));
  const std::size_t repeat =
      static_cast<std::size_t>(flags.GetInt("repeat", 1));
  require(concurrency >= 1, "--concurrency must be at least 1");
  require(repeat >= 1, "--repeat must be at least 1");
  const bool concurrent = concurrency > 1 || repeat > 1;
  require(!(concurrent && trace_requested),
          "--trace requires --concurrency 1 --repeat 1");
  // Non-const: Execute may quarantine and self-heal faulty partitions.
  BlotStore store = BlotStore::Load(flags.GetString("dir"));
  const STRange range = ParseRange(flags.GetString("range"));
  const std::string env_name = flags.GetString("env", "hadoop");
  const CostModel model{env_name == "s3" ? EnvironmentModel::AmazonS3Emr()
                                         : EnvironmentModel::LocalHadoop()};
  const double deadline_ms = flags.GetDouble("deadline-ms", 0.0);
  const double hedge_ms = flags.GetDouble("hedge-ms", 0.0);
  const bool allow_partial = flags.Has("allow-partial");
  require(deadline_ms >= 0.0, "--deadline-ms must be >= 0");
  require(hedge_ms >= 0.0, "--hedge-ms must be >= 0");
  if (concurrent) {
    serve::ServerOptions options;
    options.worker_threads = concurrency;
    // The CLI never sheds its own runs: admit everything up front.
    options.max_inflight = repeat + concurrency;
    options.default_deadline_ms = deadline_ms;
    options.hedge_ms = hedge_ms;
    options.allow_partial = allow_partial;
    serve::QueryServer server(store, model, options);
    std::vector<std::future<BlotStore::RoutedResult>> futures;
    futures.reserve(repeat);
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t k = 0; k < repeat; ++k)
      futures.push_back(server.Submit(range));
    std::vector<double> run_ms;
    run_ms.reserve(repeat);
    std::size_t first_count = 0;
    bool counts_agree = true;
    bool first_full_seen = false;
    std::size_t partial_runs = 0;
    std::size_t partial_served = 0, partial_total = 0;
    for (std::size_t k = 0; k < repeat; ++k) {
      // get() rethrows, so a failing run keeps the exit-code contract
      // (QueryFailedError -> 4, CorruptData -> 3, ...).
      const auto routed = futures[k].get();
      run_ms.push_back(routed.measured_cost_ms);
      if (k == 0) {
        if (profile_requested) PrintProfile(routed);
        std::printf("routed to replica %zu (%s): %zu records\n",
                    routed.replica_index,
                    store.replica(routed.replica_index).config().Name().c_str(),
                    routed.result.records.size());
      }
      if (routed.partial) {
        // A partial run legitimately returns fewer records; it reports
        // its coverage instead of entering the count agreement check.
        ++partial_runs;
        partial_served = routed.result.served_partitions.size();
        partial_total = partial_served + routed.result.missed_partitions.size();
        continue;
      }
      if (!first_full_seen) {
        first_full_seen = true;
        first_count = routed.result.records.size();
      } else if (routed.result.records.size() != first_count) {
        counts_agree = false;
      }
    }
    server.Drain();
    const double wall_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    std::printf(
        "%zu runs on %zu workers in %.2f ms (%.1f queries/s); "
        "per-run p50 %.2f ms, p95 %.2f ms\n",
        repeat, concurrency, wall_ms,
        wall_ms > 0 ? 1000.0 * double(repeat) / wall_ms : 0.0,
        Percentile(run_ms, 50), Percentile(run_ms, 95));
    require(counts_agree, "concurrent runs returned differing record counts");
    if (partial_runs > 0)
      std::printf("partial: served %zu/%zu partitions (%zu of %zu runs)\n",
                  partial_served, partial_total, partial_runs, repeat);
    PrintCacheSummaryIfEnabled();
    PrintFaultSummaryIfArmed(flags);
    WriteMetricsIfRequested(flags);
    CloseEventLogIfOpen();
    return partial_runs > 0 ? 5 : 0;
  }
  ThreadPool pool(4);
  obs::TraceSpan root("store-query");
  const auto routed = [&] {
    obs::SpanTimer timer(&root);
    BlotStore::ExecOptions exec;
    exec.pool = profile_requested ? nullptr : &pool;
    exec.deadline_ms = deadline_ms;
    exec.allow_partial = allow_partial;
    exec.hedge_ms = hedge_ms;
    return store.Execute(range, model, exec);
  }();
  if (trace_requested) {
    TraceRoutedQuery(store, routed, root);
    std::fputs(root.Render().c_str(), stdout);
  }
  if (profile_requested) PrintProfile(routed);
  std::printf("routed to replica %zu (%s), estimated %.1f s, "
              "measured %.2f ms\n",
              routed.replica_index,
              store.replica(routed.replica_index).config().Name().c_str(),
              routed.estimated_cost_ms / 1000.0, routed.measured_cost_ms);
  if (routed.degraded)
    std::printf("degraded: served by %s after %zu attempt(s) "
                "(faulty copies quarantined)\n",
                routed.served_by.c_str(), routed.attempts);
  if (routed.hedged)
    std::printf("hedged: backup attempt %s\n",
                routed.hedge_backup_won ? "won" : "lost");
  std::printf("%zu records (scanned %llu in %zu partitions)\n",
              routed.result.records.size(),
              static_cast<unsigned long long>(
                  routed.result.stats.records_scanned),
              routed.result.stats.partitions_scanned);
  if (routed.partial)
    std::printf("partial: served %zu/%zu partitions\n",
                routed.result.served_partitions.size(),
                routed.result.served_partitions.size() +
                    routed.result.missed_partitions.size());
  PrintCacheSummaryIfEnabled();
  PrintFaultSummaryIfArmed(flags);
  WriteMetricsIfRequested(flags);
  CloseEventLogIfOpen();
  return routed.partial ? 5 : 0;
}

// Probes a persisted store with a routed sample workload and emits the
// resulting metrics snapshot — the quickest way to see, for real data on
// disk, how the cost model's estimates line up with measured execution
// (query.cost_error_pct) and where decode time goes (codec.decode_ms).
int CmdStats(const Flags& flags) {
  auto& registry = obs::MetricsRegistry::global();
  registry.set_enabled(true);
  ConfigureCacheIfRequested(flags);
  ArmFaultsIfRequested(flags);
  OpenEventLogIfRequested(flags);
  // Non-const: probe queries may quarantine and repair partitions.
  BlotStore store = BlotStore::Load(flags.GetString("dir"));
  const std::size_t num_queries =
      static_cast<std::size_t>(flags.GetInt("queries", 32));
  const std::string env_name = flags.GetString("env", "hadoop");
  const CostModel model{env_name == "s3" ? EnvironmentModel::AmazonS3Emr()
                                         : EnvironmentModel::LocalHadoop()};
  ThreadPool pool(4);
  Rng rng(flags.GetUint64("seed", 42));
  const STRange& universe = store.universe();

  // --snapshots-out FILE: sample the registry into a time series while
  // the probes run, and flush the ring as snapshot JSONL at the end
  // (blotmon --summary reconstructs the registry from it).
  std::unique_ptr<obs::MetricsSnapshotter> snapshotter;
  if (flags.Has("snapshots-out")) {
    obs::SnapshotterOptions options;
    options.interval = std::chrono::milliseconds(
        flags.GetInt("snapshot-interval-ms", 50));
    snapshotter = std::make_unique<obs::MetricsSnapshotter>(options);
    snapshotter->SampleNow();  // baseline before any probe runs
    snapshotter->Start();
  }

  // Probe mix: mostly selective queries with some large scans, echoing
  // the advisor's default workload shape.
  const double fractions[] = {0.01, 0.05, 0.2, 1.0};
  for (std::size_t i = 0; i < num_queries; ++i) {
    const double frac = fractions[i % 4];
    const STRange query = SampleQueryInstance(
        {{universe.Width() * frac, universe.Height() * frac,
          universe.Duration() * frac}},
        universe, rng);
    store.Execute(query, model, &pool);
  }

  if (snapshotter) {
    snapshotter->Stop();
    snapshotter->SampleNow();  // final state after the last probe
    const std::string path = flags.GetString("snapshots-out");
    snapshotter->WriteJsonlFile(path);
    std::fprintf(stderr, "%zu snapshots -> %s\n",
                 snapshotter->sample_count(), path.c_str());
  }

  // Fold the cache's hit ratio into the snapshot so the exported stats
  // answer "is the budget paying off" directly.
  PartitionCache& cache = PartitionCache::Global();
  if (cache.enabled())
    registry.GetGauge("cache.hit_ratio").Set(cache.stats().HitRatio());

  const obs::MetricsSnapshot snapshot = registry.Snapshot();
  const std::string format = flags.GetString("format", "json");
  require(format == "json" || format == "prom",
          "format must be json or prom");
  const std::string rendered =
      format == "json" ? snapshot.ToJson() : snapshot.ToPrometheus();
  if (flags.Has("out")) {
    const std::string path = flags.GetString("out");
    std::ofstream out(path, std::ios::trunc);
    require(out.good(), "cannot open output: " + path);
    out << rendered;
    std::fprintf(stderr, "ran %zu probe queries against %zu replicas; "
                 "snapshot -> %s\n",
                 num_queries, store.NumReplicas(), path.c_str());
  } else {
    std::fputs(rendered.c_str(), stdout);
  }
  if (cache.enabled()) {
    const PartitionCache::Stats s = cache.stats();
    std::fprintf(stderr,
                 "cache: %llu hits / %llu misses (%.1f%% hit ratio), "
                 "%.2f MiB resident\n",
                 static_cast<unsigned long long>(s.hits),
                 static_cast<unsigned long long>(s.misses),
                 100.0 * s.HitRatio(), double(s.bytes) / (1 << 20));
  }
  PrintFaultSummaryIfArmed(flags);
  CloseEventLogIfOpen();
  return 0;
}

int CmdAdvise(const Flags& flags) {
  EnableMetricsIfRequested(flags);
  const Dataset dataset = LoadDataset(flags.GetString("data"));
  const std::uint64_t records = static_cast<std::uint64_t>(
      flags.GetInt("records", static_cast<std::int64_t>(dataset.size())));
  const double budget_gb = flags.GetDouble(
      "budget-gb",
      3.0 * double(records) * kRecordRowBytes / 1e9);
  const std::string env_name = flags.GetString("env", "hadoop");
  const CostModel model{env_name == "s3"
                            ? EnvironmentModel::AmazonS3Emr()
                            : EnvironmentModel::LocalHadoop()};
  AdvisorOptions options;
  options.algorithm = flags.GetString("algorithm", "greedy") == "mip"
                          ? SelectionAlgorithm::kMip
                          : SelectionAlgorithm::kGreedy;
  const STRange universe = dataset.BoundingBox();
  Workload workload;  // default: varied sizes, small queries frequent
  for (const auto& [frac, weight] :
       std::vector<std::pair<double, double>>{
           {0.01, 100}, {0.05, 20}, {0.2, 4}, {1.0, 1}}) {
    workload.Add({{universe.Width() * frac, universe.Height() * frac,
                   universe.Duration() * frac}},
                 weight);
  }
  const AdvisorReport report =
      AdviseReplicas(dataset, universe, records, workload, model,
                     budget_gb * 1e9, options);
  std::printf("dataset: %llu records; budget %.2f GB; environment %s\n",
              static_cast<unsigned long long>(records), budget_gb,
              env_name.c_str());
  std::printf("recommended replicas:\n");
  for (const ReplicaConfig& config : report.chosen)
    std::printf("  %s\n", config.Name().c_str());
  std::printf("predicted workload cost %.1f s (single replica %.1f s, "
              "ideal %.1f s; speedup %.2fx)\n",
              report.selection.workload_cost / 1000.0,
              report.best_single_cost_ms / 1000.0,
              report.ideal_cost_ms / 1000.0, report.SpeedupOverSingle());
  WriteMetricsIfRequested(flags);
  return 0;
}

int Run(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  if (command == "help" || command == "--help") return Usage();
  if (command == "generate")
    return CmdGenerate(
        {argc, argv, 2, {"out", "taxis", "samples", "seed", "format"}});
  if (command == "build")
    return CmdBuild({argc, argv, 2,
                     {"data", "out", "scheme", "hybrid", "metrics-out"}});
  if (command == "info") return CmdInfo({argc, argv, 2, {"dir"}});
  if (command == "query")
    return CmdQuery({argc, argv, 2,
                     {"dir", "range", "limit", "metrics-out", "cache-mb",
                      "inject-faults", "event-log"},
                     {"trace"}});
  if (command == "aggregate")
    return CmdAggregate({argc, argv, 2, {"dir", "range"}});
  if (command == "trajectory")
    return CmdTrajectory(
        {argc, argv, 2, {"dir", "oid", "from", "to", "limit"}});
  if (command == "recover")
    return CmdRecover({argc, argv, 2, {"from", "to", "metrics-out"}});
  if (command == "store-build")
    return CmdStoreBuild(
        {argc, argv, 2, {"data", "out", "schemes", "metrics-out"}});
  if (command == "store-query")
    return CmdStoreQuery({argc, argv, 2,
                          {"dir", "range", "env", "metrics-out",
                           "cache-mb", "inject-faults", "event-log",
                           "concurrency", "repeat", "deadline-ms",
                           "hedge-ms"},
                          {"trace", "profile", "allow-partial"}});
  if (command == "advise")
    return CmdAdvise({argc, argv, 2,
                      {"data", "records", "budget-gb", "env", "algorithm",
                       "metrics-out"}});
  if (command == "stats")
    return CmdStats({argc, argv, 2,
                     {"dir", "queries", "env", "seed", "format", "out",
                      "cache-mb", "inject-faults", "event-log",
                      "snapshots-out", "snapshot-interval-ms"}});
  std::fprintf(stderr, "unknown command: %s\n", command.c_str());
  return Usage();
}

}  // namespace
}  // namespace blot::tools

// Exit codes are part of the CLI contract (asserted by the tools tests
// and usable from shell scripts): 2 = caller error, 3 = data corruption
// detected, 4 = query unservable (every healthy copy gone), 5 = partial
// result served (returned by CmdStoreQuery, not thrown), 6 = deadline
// exceeded, 1 = any other failure. Each gets a one-line diagnostic
// naming the class. DeadlineExceededError must be caught before
// blot::Error, which it derives from.
int main(int argc, char** argv) {
  try {
    return blot::tools::Run(argc, argv);
  } catch (const blot::DeadlineExceededError& e) {
    std::fprintf(stderr, "deadline exceeded: %s\n", e.what());
    return 6;
  } catch (const blot::QueryFailedError& e) {
    std::fprintf(stderr, "query failed: %s\n", e.what());
    return 4;
  } catch (const blot::InvalidArgument& e) {
    std::fprintf(stderr, "invalid argument: %s\n", e.what());
    return 2;
  } catch (const blot::CorruptData& e) {
    std::fprintf(stderr, "corrupt data: %s\n", e.what());
    return 3;
  } catch (const blot::Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  } catch (const std::exception& e) {
    // Foreign exceptions here are malformed numeric flags (std::stod and
    // friends), i.e. caller errors.
    std::fprintf(stderr, "invalid argument: %s\n", e.what());
    return 2;
  }
}
