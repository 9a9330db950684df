// Microbenchmarks for the storage layer: k-d partitioning, replica
// builds, involved-partition lookup, query execution, and analytic
// cost-model evaluation — the per-query hot paths of a BLOT system.
#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "gbench_capture.h"
#include "core/cost_model.h"
#include "core/workload.h"

namespace blot {
namespace {

const Dataset& Fleet() {
  static const Dataset dataset = bench::MakeSample(100000);
  return dataset;
}

void BM_PartitionDataset(benchmark::State& state) {
  const PartitioningSpec spec{
      .spatial_partitions = static_cast<std::size_t>(state.range(0)),
      .temporal_partitions = 16};
  const STRange universe = bench::PaperUniverse();
  for (auto _ : state) {
    PartitionedData pd = PartitionDataset(Fleet(), spec, universe);
    benchmark::DoNotOptimize(pd);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * Fleet().size()));
}
BENCHMARK(BM_PartitionDataset)->Arg(16)->Arg(64)->Arg(256)->Arg(1024);

void BM_ReplicaBuild(benchmark::State& state, const char* scheme_name) {
  const ReplicaConfig config{
      {.spatial_partitions = 64, .temporal_partitions = 16},
      EncodingScheme::FromName(scheme_name)};
  const STRange universe = bench::PaperUniverse();
  ThreadPool pool(4);
  for (auto _ : state) {
    Replica replica = Replica::Build(Fleet(), config, universe, &pool);
    benchmark::DoNotOptimize(replica);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * Fleet().size()));
}
BENCHMARK_CAPTURE(BM_ReplicaBuild, row_snappy, "ROW-SNAPPY");
BENCHMARK_CAPTURE(BM_ReplicaBuild, col_lzma, "COL-LZMA");

const Replica& SharedReplica() {
  static const Replica replica = Replica::Build(
      Fleet(),
      {{.spatial_partitions = 64, .temporal_partitions = 16},
       EncodingScheme::FromName("COL-GZIP")},
      bench::PaperUniverse());
  return replica;
}

void BM_InvolvedPartitions(benchmark::State& state) {
  const STRange universe = bench::PaperUniverse();
  Rng rng(1);
  const double frac = static_cast<double>(state.range(0)) / 100.0;
  const STRange query = SampleQueryInstance(
      {{universe.Width() * frac, universe.Height() * frac,
        universe.Duration() * frac}},
      universe, rng);
  for (auto _ : state) {
    auto involved = SharedReplica().index().InvolvedPartitions(query);
    benchmark::DoNotOptimize(involved);
  }
}
BENCHMARK(BM_InvolvedPartitions)->Arg(5)->Arg(25)->Arg(100);

void BM_QueryExecute(benchmark::State& state) {
  const STRange universe = bench::PaperUniverse();
  Rng rng(2);
  const double frac = static_cast<double>(state.range(0)) / 100.0;
  const STRange query = SampleQueryInstance(
      {{universe.Width() * frac, universe.Height() * frac,
        universe.Duration() * frac}},
      universe, rng);
  std::uint64_t records = 0;
  for (auto _ : state) {
    QueryResult result = SharedReplica().Execute(query);
    records += result.stats.records_scanned;
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(records));
}
BENCHMARK(BM_QueryExecute)->Arg(5)->Arg(25);

void BM_CostModelGroupedQuery(benchmark::State& state) {
  const ReplicaSketch& sketch = SharedReplica().sketch();
  const CostModel model{EnvironmentModel::AmazonS3Emr()};
  const STRange universe = bench::PaperUniverse();
  const GroupedQuery query{
      {universe.Width() * 0.1, universe.Height() * 0.1,
       universe.Duration() * 0.1}};
  for (auto _ : state) {
    const double cost = model.QueryCostMs(sketch, query);
    benchmark::DoNotOptimize(cost);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(
      state.iterations() * sketch.index.NumPartitions()));
}
BENCHMARK(BM_CostModelGroupedQuery);

}  // namespace
}  // namespace blot

int main(int argc, char** argv) {
  return blot::bench::RunAndReport(argc, argv, "micro_storage",
                                   "BENCH_storage.json");
}
