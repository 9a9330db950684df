// Microbenchmarks for the auxiliary access paths: partition-index lookup
// (bounding-box tree against a linear scan), query routing over a diverse
// replica set, trajectory retrieval (object-digest pruning),
// shared-scan batch execution, segment-store persistence, and the fused
// decode-filter kernels against naive decode-then-filter.
#include <benchmark/benchmark.h>

#include <filesystem>

#include <algorithm>
#include <tuple>
#include <vector>

#include "bench_common.h"
#include "gbench_capture.h"
#include "blot/batch.h"
#include "blot/segment_store.h"
#include "blot/trajectory.h"
#include "core/store.h"
#include "core/workload.h"
#include "util/thread_pool.h"

namespace blot {
namespace {

const Dataset& Fleet() {
  static const Dataset dataset = bench::MakeSample(80000);
  return dataset;
}

const Replica& SharedReplica() {
  static const Replica replica = Replica::Build(
      Fleet(),
      {{.spatial_partitions = 64, .temporal_partitions = 32},
       EncodingScheme::FromName("COL-GZIP")},
      bench::PaperUniverse());
  return replica;
}

// Index with many partitions, to expose the tree's win over a scan.
const PartitionIndex& BigIndex() {
  static const PartitionIndex index = [] {
    PartitionedData pd = PartitionDataset(
        Fleet(),
        {.spatial_partitions = 1024, .temporal_partitions = 64},
        bench::PaperUniverse());
    return PartitionIndex(std::move(pd.ranges));
  }();
  return index;
}

// 20% of each spatial axis and `time_pct`% of the time axis.
STRange IndexLookupQuery(std::int64_t time_pct) {
  const STRange universe = bench::PaperUniverse();
  Rng rng(1);
  return SampleQueryInstance(
      {{universe.Width() * 0.2, universe.Height() * 0.2,
        universe.Duration() * static_cast<double>(time_pct) / 100.0}},
      universe, rng);
}

void BM_IndexLookupTimeSelective(benchmark::State& state) {
  const STRange query = IndexLookupQuery(state.range(0));
  for (auto _ : state) {
    auto involved = BigIndex().InvolvedPartitions(query);
    benchmark::DoNotOptimize(involved);
  }
  state.counters["partitions"] =
      static_cast<double>(BigIndex().NumPartitions());
}
BENCHMARK(BM_IndexLookupTimeSelective)->Arg(1)->Arg(10)->Arg(100);

// The same lookup as a linear scan testing every range: the baseline the
// index must stay well ahead of.
void BM_IndexLookupLinear(benchmark::State& state) {
  const STRange query = IndexLookupQuery(state.range(0));
  for (auto _ : state) {
    std::vector<std::size_t> involved;
    const std::vector<STRange>& ranges = BigIndex().ranges();
    for (std::size_t i = 0; i < ranges.size(); ++i)
      if (ranges[i].Intersects(query)) involved.push_back(i);
    benchmark::DoNotOptimize(involved);
  }
}
BENCHMARK(BM_IndexLookupLinear)->Arg(1);

// Routing on paper-mix's store (blotbench): 200k records in its three
// diverse replicas, KD16xT256/ROW-SNAPPY, KD1024xT16/COL-GZIP and
// KD64xT64/COL-LZMA. A q2 instance (city-wide, about an hour) involves
// about a thousand KD1024xT16 partitions, which branch and bound stops
// summing once they cannot beat KD16xT256; a q3 instance (tiny in every
// dimension) involves a handful per replica. Arg: shape index into
// bench::WildlyVariedWorkload (1 = q2, 2 = q3).
const BlotStore& PaperMixStore() {
  static const BlotStore store = [] {
    TaxiFleetConfig config;
    config.seed = 1;
    config.num_taxis = 400;
    config.samples_per_taxi = 500;
    BlotStore built(GenerateTaxiFleet(config), config.Universe());
    ThreadPool pool(4, "build");
    for (const auto& [spatial, temporal, encoding] :
         {std::tuple{16, 256, "ROW-SNAPPY"}, std::tuple{1024, 16, "COL-GZIP"},
          std::tuple{64, 64, "COL-LZMA"}})
      built.AddReplica({{.spatial_partitions = std::size_t(spatial),
                         .temporal_partitions = std::size_t(temporal)},
                        EncodingScheme::FromName(encoding)},
                       &pool);
    return built;
  }();
  return store;
}

void BM_RouteQuery(benchmark::State& state) {
  const BlotStore& store = PaperMixStore();
  const CostModel model{EnvironmentModel::LocalHadoop()};
  const GroupedQuery& shape = bench::WildlyVariedWorkload(store.universe())
                                  .queries()[std::size_t(state.range(0))]
                                  .query;
  Rng rng(3);
  std::vector<STRange> queries;
  for (int i = 0; i < 64; ++i)
    queries.push_back(SampleQueryInstance(shape, store.universe(), rng));
  std::size_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        store.RouteQueryDetailed(queries[next], model));
    next = (next + 1) % queries.size();
  }
}
BENCHMARK(BM_RouteQuery)->Arg(1)->Arg(2);

void BM_TrajectoryIndexBuild(benchmark::State& state) {
  ThreadPool pool(4);
  for (auto _ : state) {
    TrajectoryIndex index(SharedReplica(), &pool);
    benchmark::DoNotOptimize(index);
  }
}
BENCHMARK(BM_TrajectoryIndexBuild);

void BM_TrajectoryQuery(benchmark::State& state) {
  const TrajectoryIndex index(SharedReplica());
  const std::int64_t t0 =
      static_cast<std::int64_t>(bench::PaperUniverse().t_min());
  std::size_t scanned = 0;
  for (auto _ : state) {
    const auto result =
        index.Query(SharedReplica(), 7, t0, t0 + 86400 * 7);
    scanned += result.partitions_scanned;
    benchmark::DoNotOptimize(result);
  }
  state.counters["scanned_per_query"] =
      static_cast<double>(scanned) / static_cast<double>(state.iterations());
}
BENCHMARK(BM_TrajectoryQuery);

// A `cells` x `cells` grid of whole-month cells over the universe: the
// paper's grid statistics (Section III-C1).
std::vector<STRange> WholeMonthGrid(int cells) {
  const STRange universe = bench::PaperUniverse();
  std::vector<STRange> queries;
  for (int gx = 0; gx < cells; ++gx)
    for (int gy = 0; gy < cells; ++gy)
      queries.push_back(STRange::FromBounds(
          universe.x_min() + universe.Width() * gx / cells,
          universe.x_min() + universe.Width() * (gx + 1) / cells,
          universe.y_min() + universe.Height() * gy / cells,
          universe.y_min() + universe.Height() * (gy + 1) / cells,
          universe.t_min(), universe.t_max()));
  return queries;
}

void BM_BatchVsSequentialGrid(benchmark::State& state) {
  const std::vector<STRange> queries =
      WholeMonthGrid(static_cast<int>(state.range(0)));
  double sharing = 0;
  for (auto _ : state) {
    const BatchResult batch = ExecuteBatch(SharedReplica(), queries);
    sharing = static_cast<double>(batch.naive_partition_scans) /
              static_cast<double>(batch.stats.partitions_scanned);
    benchmark::DoNotOptimize(batch);
  }
  state.counters["sharing_factor"] = sharing;
}
BENCHMARK(BM_BatchVsSequentialGrid)->Arg(4)->Arg(8);

// The baseline the shared scan must beat: Execute once per grid cell.
void BM_SequentialGrid(benchmark::State& state) {
  const std::vector<STRange> queries =
      WholeMonthGrid(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    for (const STRange& query : queries) {
      const QueryResult result = SharedReplica().Execute(query);
      benchmark::DoNotOptimize(result);
    }
  }
}
BENCHMARK(BM_SequentialGrid)->Arg(8);

void BM_SegmentStoreSave(benchmark::State& state) {
  const auto dir =
      std::filesystem::temp_directory_path() / "blot_bench_segment_store";
  for (auto _ : state) {
    SegmentStore::Save(SharedReplica(), dir);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(
      state.iterations() * SharedReplica().StorageBytes()));
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_SegmentStoreSave);

void BM_SegmentStoreLoad(benchmark::State& state) {
  const auto dir =
      std::filesystem::temp_directory_path() / "blot_bench_segment_store2";
  SegmentStore::Save(SharedReplica(), dir);
  for (auto _ : state) {
    Replica replica = SegmentStore::Load(dir);
    benchmark::DoNotOptimize(replica);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(
      state.iterations() * SharedReplica().StorageBytes()));
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_SegmentStoreLoad);

// --- Fused decode-filter vs naive decode-then-filter -------------------
//
// One encoded partition, queries of varying selectivity. The naive path
// materializes every record (the same block decoders, run with no range)
// and filters afterwards; the fused path
// filters during deserialization — for columns it decodes the x/y/t
// coordinate columns first and touches attribute columns only for
// matches, for rows it skips the attribute bytes of non-matching rows.

const std::vector<Record>& PartitionRecords() {
  static const std::vector<Record> records = [] {
    // One KD64xT32 partition's worth of spatially-local records.
    return Fleet().FilterByRange(
        STRange::FromBounds(120.8, 121.2, 30.8, 31.2,
                            bench::PaperUniverse().t_min(),
                            bench::PaperUniverse().t_max()));
  }();
  return records;
}

// A query matching roughly `pct`% of the partition's records (by time
// prefix, so both layouts keep their sequential access pattern).
STRange SelectQuery(int pct) {
  const STRange u = bench::PaperUniverse();
  return STRange::FromBounds(
      u.x_min(), u.x_max(), u.y_min(), u.y_max(), u.t_min(),
      u.t_min() + u.Duration() * static_cast<double>(pct) / 100.0);
}

void BM_ScanNaiveDecodeThenFilter(benchmark::State& state) {
  const EncodingScheme scheme = AllEncodingSchemes()[state.range(0)];
  const Bytes data = EncodePartition(PartitionRecords(), scheme);
  const STRange query = SelectQuery(static_cast<int>(state.range(1)));
  for (auto _ : state) {
    const std::vector<Record> all = DecodePartition(data, scheme);
    std::vector<Record> matches;
    for (const Record& r : all)
      if (query.Contains(r.Position())) matches.push_back(r);
    benchmark::DoNotOptimize(matches);
  }
  state.SetLabel(scheme.Name());
  state.counters["records"] = static_cast<double>(PartitionRecords().size());
}

void BM_ScanFusedDecodeFilter(benchmark::State& state) {
  const EncodingScheme scheme = AllEncodingSchemes()[state.range(0)];
  const Bytes data = EncodePartition(PartitionRecords(), scheme);
  const STRange query = SelectQuery(static_cast<int>(state.range(1)));
  for (auto _ : state) {
    std::vector<Record> matches = DecodePartitionInRange(data, scheme, query);
    benchmark::DoNotOptimize(matches);
  }
  state.SetLabel(scheme.Name());
  state.counters["records"] = static_cast<double>(PartitionRecords().size());
}

// Scheme index: 0 = ROW-PLAIN, 4 = COL-SNAPPY (AllEncodingSchemes order);
// selectivity 1%, 10%, 100% of the partition.
#define FUSED_ARGS                                         \
  ->Args({0, 1})->Args({0, 10})->Args({0, 100})            \
  ->Args({4, 1})->Args({4, 10})->Args({4, 100})
BENCHMARK(BM_ScanNaiveDecodeThenFilter) FUSED_ARGS;
BENCHMARK(BM_ScanFusedDecodeFilter) FUSED_ARGS;
#undef FUSED_ARGS

// --- Zone-map block pruning ---------------------------------------------
//
// Blocked scan with the zone map on/off over time-sorted, uncompressed
// partitions and a 10% time window: sorted data gives blocks tight
// disjoint time zones, and no codec keeps decode (the work pruning
// saves) dominant. Args: {prune, selectivity pct}.
const std::vector<Record>& SortedPartitionRecords() {
  static const std::vector<Record> records = [] {
    std::vector<Record> sorted = PartitionRecords();
    std::sort(sorted.begin(), sorted.end(),
              [](const Record& a, const Record& b) { return a.time < b.time; });
    return sorted;
  }();
  return records;
}

void BM_ScanBlockedZoneMap(benchmark::State& state) {
  const bool prune = state.range(0) != 0;
  const EncodingScheme scheme{Layout::kRow, CodecKind::kNone};
  const Bytes data = EncodePartition(SortedPartitionRecords(), scheme);
  const STRange query = SelectQuery(static_cast<int>(state.range(1)));
  ScanCounters counters;
  for (auto _ : state) {
    std::vector<Record> matches =
        DecodePartitionInRange(data, scheme, query, nullptr, prune, &counters);
    benchmark::DoNotOptimize(matches);
  }
  state.SetLabel(prune ? "pruned" : "unpruned");
  state.counters["blocks_pruned_pct"] =
      counters.blocks_total == 0
          ? 0.0
          : 100.0 * static_cast<double>(counters.blocks_pruned) /
                static_cast<double>(counters.blocks_total);
}
BENCHMARK(BM_ScanBlockedZoneMap)->Args({0, 10})->Args({1, 10});

// End-to-end query path with the cache disabled: Replica::Execute runs
// the fused kernel per involved partition.
void BM_ExecuteFusedSelective(benchmark::State& state) {
  const STRange universe = bench::PaperUniverse();
  Rng rng(7);
  const STRange query = SampleQueryInstance(
      {{universe.Width() * 0.05, universe.Height() * 0.05,
        universe.Duration() * 0.05}},
      universe, rng);
  for (auto _ : state) {
    const QueryResult result = SharedReplica().Execute(query);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_ExecuteFusedSelective);

}  // namespace

namespace bench {
namespace {

// Tracked metrics for the CI perf tripwire: ratios between runs of this
// same binary, so they hold across machines. The fused-kernel speedups
// are the ones this bench exists to defend.
void DeriveTracked(const CaptureReporter& reporter, BenchReport& report) {
  const auto ratio = [&](const char* name, const std::string& numerator,
                         const std::string& denominator) {
    const double num = reporter.RealNs(numerator);
    const double den = reporter.RealNs(denominator);
    if (num > 0 && den > 0) report.Metric(name, num / den, /*tracked=*/true);
  };
  ratio("fused_speedup_row_1pct", "BM_ScanNaiveDecodeThenFilter/0/1",
        "BM_ScanFusedDecodeFilter/0/1");
  ratio("fused_speedup_col_1pct", "BM_ScanNaiveDecodeThenFilter/4/1",
        "BM_ScanFusedDecodeFilter/4/1");
  ratio("index_lookup_speedup_vs_linear", "BM_IndexLookupLinear/1",
        "BM_IndexLookupTimeSelective/1");
  ratio("batch_vs_sequential_speedup", "BM_SequentialGrid/8",
        "BM_BatchVsSequentialGrid/8");
  // Routing a q2 over routing a q3: lower is better. With branch and
  // bound it is about 8; walking every involved partition of losing
  // candidates again puts it back at about 70.
  ratio("route_q2_over_q3", "BM_RouteQuery/1", "BM_RouteQuery/2");
  // Unpruned over pruned, runs of this same binary on the same data.
  ratio("zonemap_prune_speedup_row_10pct", "BM_ScanBlockedZoneMap/0/10",
        "BM_ScanBlockedZoneMap/1/10");
}

}  // namespace
}  // namespace bench
}  // namespace blot

int main(int argc, char** argv) {
  return blot::bench::RunAndReport(argc, argv, "micro_access_paths",
                                   "BENCH_access_paths.json",
                                   blot::bench::DeriveTracked);
}
