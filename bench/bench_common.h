// Shared fixtures for the paper-reproduction benches: the sampled taxi
// dataset, the paper's candidate space (Section V-A), the synthetic
// evaluation workload of Section V-C ("8 grouped queries with wildly
// varied range size") — and the BENCH_<name>.json result writer every
// micro bench emits for the CI perf tripwire.
#ifndef BLOT_BENCH_BENCH_COMMON_H_
#define BLOT_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "core/candidates.h"
#include "core/workload.h"
#include "gen/taxi_generator.h"

namespace blot::bench {

// ---------------------------------------------------------------------
// BENCH_<name>.json writer (schema blot.bench.v1)
//
// Every micro bench reports through this so results share one shape the
// tripwire (scripts/bench_tripwire.py) can diff against committed
// baselines:
//
//   {"schema": "blot.bench.v1", "bench": "micro_x",
//    "metrics": [{"name": "...", "value": 1.23, "tracked": true}, ...],
//    "info": {"replica": "KD64xT32/COL-GZIP"},
//    "extra": {"sweep": [...]}}
//
// `tracked: true` marks the metrics the tripwire enforces; keep those
// machine-independent (ratios, percentages, speedups) so a faster or
// slower CI runner doesn't move them. Raw timings go in untracked
// metrics, free-form detail in `extra` (pre-rendered JSON).
class BenchReport {
 public:
  explicit BenchReport(std::string bench) : bench_(std::move(bench)) {}

  void Metric(const std::string& name, double value, bool tracked = false) {
    metrics_.push_back({name, value, tracked});
  }
  void Info(const std::string& key, const std::string& value) {
    info_.emplace_back(key, value);
  }
  void Info(const std::string& key, std::uint64_t value) {
    info_.emplace_back(key, std::to_string(value));
  }
  // `raw_json` must be a complete, pre-rendered JSON value.
  void Extra(const std::string& key, std::string raw_json) {
    extra_.emplace_back(key, std::move(raw_json));
  }

  bool Write(const std::string& path) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return false;
    }
    std::fprintf(out,
                 "{\n  \"schema\": \"blot.bench.v1\",\n  \"bench\": \"%s\","
                 "\n  \"metrics\": [\n",
                 Escaped(bench_).c_str());
    for (std::size_t i = 0; i < metrics_.size(); ++i)
      std::fprintf(out, "    {\"name\": \"%s\", \"value\": %.17g, "
                        "\"tracked\": %s}%s\n",
                   Escaped(metrics_[i].name).c_str(), metrics_[i].value,
                   metrics_[i].tracked ? "true" : "false",
                   i + 1 < metrics_.size() ? "," : "");
    std::fprintf(out, "  ]");
    if (!info_.empty()) {
      std::fprintf(out, ",\n  \"info\": {\n");
      for (std::size_t i = 0; i < info_.size(); ++i)
        std::fprintf(out, "    \"%s\": \"%s\"%s\n",
                     Escaped(info_[i].first).c_str(),
                     Escaped(info_[i].second).c_str(),
                     i + 1 < info_.size() ? "," : "");
      std::fprintf(out, "  }");
    }
    if (!extra_.empty()) {
      std::fprintf(out, ",\n  \"extra\": {\n");
      for (std::size_t i = 0; i < extra_.size(); ++i)
        std::fprintf(out, "    \"%s\": %s%s\n",
                     Escaped(extra_[i].first).c_str(),
                     extra_[i].second.c_str(),
                     i + 1 < extra_.size() ? "," : "");
      std::fprintf(out, "  }");
    }
    std::fprintf(out, "\n}\n");
    std::fclose(out);
    return true;
  }

 private:
  struct MetricEntry {
    std::string name;
    double value = 0;
    bool tracked = false;
  };

  // Names and labels are bench-controlled; only the JSON specials need
  // escaping.
  static std::string Escaped(const std::string& s) {
    std::string out;
    for (const char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    return out;
  }

  std::string bench_;
  std::vector<MetricEntry> metrics_;
  std::vector<std::pair<std::string, std::string>> info_;
  std::vector<std::pair<std::string, std::string>> extra_;
};

// Output path convention shared by the handwritten benches: a leading
// positional argument overrides the default BENCH_<name>.json.
inline std::string OutputPath(int argc, char** argv, const char* fallback) {
  return argc > 1 && argv[1][0] != '-' ? argv[1] : fallback;
}

// The paper's dataset: ~65M records = 3.7 GB of CSV. We sample it with
// the generator and scale record counts in the sketches.
inline constexpr std::uint64_t kPaperRecords = 65'000'000;

inline Dataset MakeSample(std::size_t records = 20000,
                          std::uint64_t seed = 20071101) {
  TaxiFleetConfig config;
  config.seed = seed;
  config.num_taxis = 50;
  config.samples_per_taxi = (records + config.num_taxis - 1) /
                            config.num_taxis;
  return GenerateTaxiFleet(config);
}

inline STRange PaperUniverse() {
  return TaxiFleetConfig{}.Universe();
}

// Section V-A: spatial counts 4^2..4^6, temporal counts 2^4..2^8 — 25
// k-d-tree partitioning schemes.
inline std::vector<PartitioningSpec> PaperPartitionings() {
  std::vector<PartitioningSpec> specs;
  for (const std::size_t spatial : {16u, 64u, 256u, 1024u, 4096u})
    for (const std::size_t temporal : {16u, 32u, 64u, 128u, 256u})
      specs.push_back({.spatial_partitions = spatial,
                       .temporal_partitions = temporal});
  return specs;
}

// A trimmed sub-space for benches that sweep many configurations.
inline std::vector<PartitioningSpec> TrimmedPartitionings() {
  std::vector<PartitioningSpec> specs;
  for (const std::size_t spatial : {16u, 64u, 256u, 1024u})
    for (const std::size_t temporal : {16u, 64u, 256u})
      specs.push_back({.spatial_partitions = spatial,
                       .temporal_partitions = temporal});
  return specs;
}

// Section V-C: "a synthetic workload containing 8 grouped queries with
// wildly varied range size" — the (W, H, T) sizes vary independently
// across 2.5 orders of magnitude, so different queries genuinely prefer
// different spatial/temporal partition granularities (a block's
// month-long history wants fine space + coarse time; a city-wide
// snapshot wants the reverse; the full scan wants both coarse).
inline Workload WildlyVariedWorkload(const STRange& universe) {
  Workload workload;
  const double fractions[8][3] = {
      {0.005, 0.005, 0.8},   // q1: city block, almost the whole month
      {0.9, 0.9, 0.002},     // q2: city-wide snapshot, ~1 hour
      {0.01, 0.01, 0.01},    // q3: tiny in every dimension
      {0.05, 0.05, 0.2},     // q4: neighborhood, ~6 days
      {0.3, 0.3, 0.005},     // q5: district snapshot
      {0.1, 0.1, 0.05},      // q6: mid-size
      {0.5, 0.5, 0.3},       // q7: large
      {1.0, 1.0, 1.0},       // q8: full scan
  };
  for (const auto& f : fractions)
    workload.Add({{universe.Width() * f[0], universe.Height() * f[1],
                   universe.Duration() * f[2]}},
                 1.0);
  return workload;
}

// Reweights queries so each contributes equally to the ideal workload
// cost: w_i = 1 / min_j cost[i][j]. The paper leaves the weights of its
// 8-query workload unspecified ("importance (frequency, priority, etc.)",
// Definition 6); with raw equal weights the largest query dominates the
// sum and configuration diversity cannot show. Equal contribution is the
// neutral choice that exposes the per-query trade-offs of Figure 6.
inline void EqualizeQueryContributions(SelectionInput& input) {
  for (std::size_t i = 0; i < input.NumQueries(); ++i) {
    double ideal = input.cost[i][0];
    for (double c : input.cost[i]) ideal = std::min(ideal, c);
    input.weights[i] = ideal > 0 ? 1.0 / ideal : 1.0;
  }
}

// Figure 4's selection instance (bench/fig4_budget_sweep): the trimmed
// candidate grid over a 15k-record sample standing for 10x the paper's
// records (a 37 GB-scale dataset, where partition granularity matters
// against S3's task-startup costs), S3/EMR costs and equal-contribution
// weights. `base_budget` is 3 exact copies of the best single replica;
// the sweep runs at kFig4RelativeBudgets times it.
struct Fig4Instance {
  SelectionInput input;
  double base_budget = 0.0;
};

inline constexpr double kFig4RelativeBudgets[] = {
    0.5, 0.625, 0.75, 0.875, 1.0, 1.25, 1.5, 1.75, 2.0};

inline Fig4Instance MakeFig4Instance() {
  const Dataset sample = MakeSample(15000);
  const STRange universe = PaperUniverse();
  const CostModel model{EnvironmentModel::AmazonS3Emr()};
  const auto ratios =
      MeasureCompressionRatios(sample, AllEncodingSchemes(), 15000);
  CandidateMatrixResult matrix = BuildSelectionInputGrouped(
      sample, universe, TrimmedPartitionings(), AllEncodingSchemes(), ratios,
      10 * kPaperRecords, WildlyVariedWorkload(universe), model,
      /*budget*/ 1.0);
  EqualizeQueryContributions(matrix.input);
  SelectionInput unconstrained = matrix.input;
  unconstrained.budget_bytes = 1e18;
  const double base_budget =
      3.0 * SelectBestSingle(unconstrained).storage_used;
  return {std::move(matrix.input), base_budget};
}

inline void PrintRule(char c = '-', int width = 78) {
  for (int i = 0; i < width; ++i) std::putchar(c);
  std::putchar('\n');
}

}  // namespace blot::bench

#endif  // BLOT_BENCH_BENCH_COMMON_H_
