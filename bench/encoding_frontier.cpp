// The encoding trade-off frontier, and how access-aware per-partition
// encoding compares with uniform choices on real bytes.
//
// Two findings framed against the paper:
//   1. In the paper's 2013 IO-bound environments (Table II), stronger
//      compression is a pure win — LZMA2 is both the smallest and the
//      fastest to scan — so uniform COL-LZMA dominates. On a CPU-bound
//      NVMe-class environment the classic ratio/speed trade-off
//      re-emerges, and *no* uniform encoding dominates.
//   2. Choosing codecs per partition by workload access frequency
//      (core/access_aware.h), planned under the CPU-bound model, is equal
//      to each uniform replica at that replica's own size (the plan is
//      then that codec everywhere) and faster than the best uniform
//      replica that fits between two uniform sizes: hot partitions decode
//      fast, cold ones stay small.
//
// Every replica and plan is also timed on real bytes: Replica::Execute,
// partition cache off, serial, best of 3 runs per query, each grouped
// query's instances averaged and weighted like CostModel::WorkloadCostMs.
// The times print beside the model's estimate.
//
// Writes BENCH_encoding_frontier.json (or argv[1]) with one tracked
// ratio, access_aware_vs_uniform_at_half_budget: the measured time of the
// fastest uniform replica that fits in floor+50% storage over the
// measured time of the plan at that budget.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>
#ifdef __GLIBC__
#include <malloc.h>
#endif

#include "bench_common.h"
#include "core/access_aware.h"
#include "core/partition_cache.h"

using namespace blot;

namespace {

constexpr std::size_t kInstancesPerQuery = 8;
constexpr int kRuns = 3;

// Measured workload time (ms) of each of `replicas` over fixed query
// instances (instances[i] belongs to workload query i). The replicas take
// turns on every query and run, so a slow spell on a shared host slows
// them alike instead of skewing their ratio.
std::vector<double> MeasuredWorkloadMs(
    const std::vector<const Replica*>& replicas, const Workload& workload,
    const std::vector<std::vector<STRange>>& instances) {
  // One untimed pass: the first read of a partition verifies its checksum.
  for (const Replica* replica : replicas)
    for (const auto& group : instances)
      for (const STRange& query : group) replica->Execute(query);
  std::vector<double> total(replicas.size(), 0.0);
  for (std::size_t i = 0; i < workload.size(); ++i) {
    std::vector<double> sum(replicas.size(), 0.0);
    for (const STRange& query : instances[i]) {
      std::vector<double> best(replicas.size(),
                               std::numeric_limits<double>::infinity());
      for (int run = 0; run < kRuns; ++run) {
        for (std::size_t r = 0; r < replicas.size(); ++r) {
          const auto start = std::chrono::steady_clock::now();
          replicas[r]->Execute(query);
          best[r] = std::min(best[r],
                             std::chrono::duration<double, std::milli>(
                                 std::chrono::steady_clock::now() - start)
                                 .count());
        }
      }
      for (std::size_t r = 0; r < replicas.size(); ++r) sum[r] += best[r];
    }
    for (std::size_t r = 0; r < replicas.size(); ++r)
      total[r] += workload.queries()[i].weight * sum[r] /
                  static_cast<double>(instances[i].size());
  }
  return total;
}

struct Uniform {
  std::string name;
  Replica replica;
  double measured_ms = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path =
      bench::OutputPath(argc, argv, "BENCH_encoding_frontier.json");
  PartitionCache::Global().Configure(0);
#ifdef __GLIBC__
  // glibc raises its mmap and trim thresholds only after large frees, so
  // the replicas timed first would pay page faults on full-scan results
  // that later ones do not (ROW-PLAIN read 1.5x slower first than last).
  // Fixed thresholds time every replica alike.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 64 << 20);
#endif
  Dataset dataset = bench::MakeSample(60000);
  const STRange universe = bench::PaperUniverse();
  const PartitioningSpec spec{.spatial_partitions = 16,
                              .temporal_partitions = 8};

  // Hotspot-heavy workload: frequent small queries + rare full scans.
  Workload workload;
  workload.Add({{universe.Width() * 0.05, universe.Height() * 0.05,
                 universe.Duration() * 0.05}},
               20.0);
  workload.Add({{universe.Width() * 0.3, universe.Height() * 0.3,
                 universe.Duration() * 0.2}},
               2.0);
  workload.Add({universe.Size()}, 0.2);
  Rng rng(7);
  std::vector<std::vector<STRange>> instances(workload.size());
  for (std::size_t i = 0; i < workload.size(); ++i) {
    std::vector<STRange>& group = instances[i];
    for (std::size_t k = 0; k < kInstancesPerQuery; ++k)
      group.push_back(
          SampleQueryInstance(workload.queries()[i].query, universe, rng));
    // A query as large as the universe has one instance.
    if (std::all_of(group.begin(), group.end(),
                    [&](const STRange& q) { return q == group.front(); }))
      group.resize(1);
  }

  bench::BenchReport report("encoding_frontier");
  report.Info("dataset_records", dataset.size());
  report.Info("partitioning", spec.Name());
  report.Info("timing", "Replica::Execute, cache off, serial, best of 3");

  std::printf("1. Uniform encodings under two environments "
              "(expected workload scan cost) and measured here\n");
  std::printf("   %-12s %10s | %14s %14s | %12s\n", "encoding", "size(MiB)",
              "S3+EMR cost(s)", "cpu-bound(ms)", "measured(ms)");
  const CostModel io_model{EnvironmentModel::AmazonS3Emr()};
  const CostModel cpu_model{EnvironmentModel::CpuBoundLocal()};
  double best_io = 1e300, best_cpu = 1e300;
  std::string best_io_name, best_cpu_name;
  std::vector<Uniform> uniforms;
  std::vector<const Replica*> timed;
  for (const char* name :
       {"ROW-PLAIN", "ROW-SNAPPY", "ROW-GZIP", "ROW-LZMA"}) {
    uniforms.push_back({name, Replica::Build(
                                  dataset,
                                  {spec, EncodingScheme::FromName(name)},
                                  universe)});
  }
  for (const Uniform& u : uniforms) timed.push_back(&u.replica);
  const std::vector<double> measured =
      MeasuredWorkloadMs(timed, workload, instances);
  for (std::size_t k = 0; k < uniforms.size(); ++k) {
    Uniform& u = uniforms[k];
    u.measured_ms = measured[k];
    const double io = io_model.WorkloadCostMs({u.replica.sketch()}, workload);
    const double cpu =
        cpu_model.WorkloadCostMs({u.replica.sketch()}, workload);
    const double mib = double(u.replica.StorageBytes()) / (1 << 20);
    std::printf("   %-12s %10.2f | %14.1f %14.3f | %12.3f\n", u.name.c_str(),
                mib, io / 1000.0, cpu, u.measured_ms);
    const std::string key = "uniform." + u.name;
    report.Metric(key + ":bytes", double(u.replica.StorageBytes()));
    report.Metric(key + ":model_ms", cpu);
    report.Metric(key + ":measured_ms", u.measured_ms);
    if (io < best_io) {
      best_io = io;
      best_io_name = u.name;
    }
    if (cpu < best_cpu) {
      best_cpu = cpu;
      best_cpu_name = u.name;
    }
  }
  std::printf("   cheapest in S3+EMR: %s (compression is a pure win when "
              "IO-bound);\n   cheapest cpu-bound: %s (speed wins when "
              "storage is free)\n\n",
              best_io_name.c_str(), best_cpu_name.c_str());

  // Budgets: every uniform replica's own size, and three points between
  // the smallest (floor) and the largest (ceiling).
  std::uint64_t floor_bytes = uniforms.front().replica.StorageBytes();
  std::uint64_t ceil_bytes = 0;
  std::vector<std::pair<std::uint64_t, std::string>> budgets;
  for (const Uniform& u : uniforms) {
    floor_bytes = std::min(floor_bytes, u.replica.StorageBytes());
    ceil_bytes = std::max(ceil_bytes, u.replica.StorageBytes());
    budgets.push_back({u.replica.StorageBytes(), u.name});
  }
  for (const int pct : {10, 25, 50})
    budgets.push_back(
        {floor_bytes + (ceil_bytes - floor_bytes) * pct / 100,
         "floor+" + std::to_string(pct) + "%"});
  std::sort(budgets.begin(), budgets.end());

  std::printf("2. Access-aware per-partition encoding planned under the "
              "cpu-bound model\n");
  std::printf("   %-12s %10s | %14s %12s | %-12s %12s %7s\n", "budget",
              "size(MiB)", "model(ms)", "measured(ms)", "best fitting",
              "measured(ms)", "ratio");
  double half_budget_ratio = 0.0;
  for (const auto& [budget, label] : budgets) {
    const AccessAwareBuildResult result =
        BuildAccessAwareReplica(dataset, spec, Layout::kRow, universe,
                                workload, cpu_model, budget);
    // The fastest uniform replica no larger than the plan; the smallest
    // uniform replica is the planner's floor, so one always fits. It is
    // timed again, taking turns with the plan.
    const Uniform* fit = nullptr;
    for (const Uniform& u : uniforms)
      if (u.replica.StorageBytes() <= result.replica.StorageBytes() &&
          (fit == nullptr || u.measured_ms < fit->measured_ms))
        fit = &u;
    const std::vector<double> measured = MeasuredWorkloadMs(
        {&result.replica, &fit->replica}, workload, instances);
    const double ratio = measured[1] / measured[0];
    // plan.expected_cost_ms is the per-partition-codec equivalent of
    // WorkloadCostMs (the single-scheme cost model cannot price a hybrid
    // replica).
    std::printf("   %-12s %10.2f | %14.3f %12.3f | %-12s %12.3f %7.2f\n",
                label.c_str(),
                double(result.replica.StorageBytes()) / (1 << 20),
                result.plan.expected_cost_ms, measured[0], fit->name.c_str(),
                measured[1], ratio);
    const std::string key = "plan." + label;
    report.Metric(key + ":bytes", double(result.replica.StorageBytes()));
    report.Metric(key + ":model_ms", result.plan.expected_cost_ms);
    report.Metric(key + ":measured_ms", measured[0]);
    report.Metric(key + ":best_fitting_uniform_ms", measured[1]);
    if (label == "floor+50%") half_budget_ratio = ratio;
  }
  report.Metric("access_aware_vs_uniform_at_half_budget", half_budget_ratio,
                /*tracked=*/true);
  std::printf("\nAt a uniform replica's own size the plan is that codec "
              "everywhere, so the two tie;\nbetween uniform sizes the plan "
              "spends the spare bytes on hot partitions and beats\nthe best "
              "uniform replica that fits (ratio > 1). At floor+50%%: "
              "%.2fx.\n",
              half_budget_ratio);
  if (!report.Write(json_path)) return 1;
  std::printf("wrote %s\n", json_path.c_str());
  return 0;
}
