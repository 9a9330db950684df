#include "core/access_aware.h"

#include <algorithm>
#include <limits>
#include <optional>
#include <queue>

#include "util/error.h"

namespace blot {

std::vector<double> PartitionAccessFrequencies(const PartitionIndex& index,
                                               const STRange& universe,
                                               const Workload& workload) {
  std::vector<double> access(index.NumPartitions(), 0.0);
  for (const WeightedQuery& wq : workload.queries()) {
    for (std::size_t p = 0; p < index.NumPartitions(); ++p)
      access[p] += wq.weight * IntersectionProbability(
                                   index.Range(p), wq.query.size, universe);
  }
  return access;
}

namespace {

// Expected scan cost of one partition under one codec.
double PartitionCost(const AccessAwareInputs& inputs, std::size_t codec,
                     std::size_t partition) {
  const ScanCostParams& p = inputs.params[codec];
  return inputs.access[partition] *
         (static_cast<double>(inputs.counts[partition]) / 1000.0 *
              p.scan_ms_per_krecord +
          p.extra_ms);
}

}  // namespace

AccessAwarePlan PlanAccessAwareEncoding(const AccessAwareInputs& inputs,
                                        std::uint64_t budget_bytes) {
  const std::size_t num_codecs = inputs.codec_choices.size();
  require(num_codecs >= 1, "PlanAccessAwareEncoding: no codecs");
  require(inputs.sizes.size() == num_codecs &&
              inputs.params.size() == num_codecs,
          "PlanAccessAwareEncoding: per-codec input mismatch");
  const std::size_t num_partitions = inputs.access.size();
  require(inputs.counts.size() == num_partitions,
          "PlanAccessAwareEncoding: counts/access mismatch");
  for (const auto& sizes : inputs.sizes)
    require(sizes.size() == num_partitions,
            "PlanAccessAwareEncoding: sizes row mismatch");

  AccessAwarePlan plan;
  std::vector<std::size_t> chosen(num_partitions);

  // Start from the cheapest-in-cost codec among those with minimal size
  // (dominating choices are free), tracking the byte floor.
  for (std::size_t p = 0; p < num_partitions; ++p) {
    std::size_t best = 0;
    for (std::size_t c = 1; c < num_codecs; ++c) {
      const bool smaller = inputs.sizes[c][p] < inputs.sizes[best][p];
      const bool same_size = inputs.sizes[c][p] == inputs.sizes[best][p];
      if (smaller || (same_size && PartitionCost(inputs, c, p) <
                                       PartitionCost(inputs, best, p)))
        best = c;
    }
    chosen[p] = best;
    plan.total_bytes += inputs.sizes[best][p];
  }
  require(plan.total_bytes <= budget_bytes,
          "PlanAccessAwareEncoding: budget below the smallest encoding");

  // Candidate upgrades: (gain per byte, partition, target codec). Lazy
  // re-evaluation: entries are validated against the current assignment
  // when popped.
  struct Upgrade {
    double efficiency;
    std::size_t partition;
    std::size_t codec;
    std::size_t from;  // assignment when the entry was pushed
  };
  const auto cmp = [](const Upgrade& a, const Upgrade& b) {
    return a.efficiency < b.efficiency;
  };
  std::priority_queue<Upgrade, std::vector<Upgrade>, decltype(cmp)> heap(cmp);

  const auto push_upgrades = [&](std::size_t p) {
    const std::size_t from = chosen[p];
    const double base_cost = PartitionCost(inputs, from, p);
    for (std::size_t c = 0; c < num_codecs; ++c) {
      if (c == from) continue;
      const double gain = base_cost - PartitionCost(inputs, c, p);
      if (gain <= 0) continue;
      const std::int64_t extra =
          static_cast<std::int64_t>(inputs.sizes[c][p]) -
          static_cast<std::int64_t>(inputs.sizes[from][p]);
      // Dominating upgrades were handled in initialization; remaining
      // useful upgrades cost bytes.
      if (extra <= 0) {
        heap.push({std::numeric_limits<double>::infinity(), p, c, from});
      } else {
        heap.push({gain / static_cast<double>(extra), p, c, from});
      }
    }
  };
  for (std::size_t p = 0; p < num_partitions; ++p) push_upgrades(p);

  while (!heap.empty()) {
    const Upgrade upgrade = heap.top();
    heap.pop();
    if (chosen[upgrade.partition] != upgrade.from) continue;  // stale
    const std::int64_t extra =
        static_cast<std::int64_t>(
            inputs.sizes[upgrade.codec][upgrade.partition]) -
        static_cast<std::int64_t>(
            inputs.sizes[upgrade.from][upgrade.partition]);
    if (extra > 0 &&
        plan.total_bytes + static_cast<std::uint64_t>(extra) > budget_bytes)
      continue;  // does not fit; cheaper upgrades may still fit
    chosen[upgrade.partition] = upgrade.codec;
    plan.total_bytes = static_cast<std::uint64_t>(
        static_cast<std::int64_t>(plan.total_bytes) + extra);
    push_upgrades(upgrade.partition);
  }

  plan.codecs.resize(num_partitions);
  plan.expected_cost_ms = 0;
  for (std::size_t p = 0; p < num_partitions; ++p) {
    plan.codecs[p] = inputs.codec_choices[chosen[p]];
    plan.expected_cost_ms += PartitionCost(inputs, chosen[p], p);
  }
  return plan;
}

AccessAwareBuildResult BuildAccessAwareReplica(
    const Dataset& dataset, const PartitioningSpec& partitioning,
    Layout layout, const STRange& universe, const Workload& workload,
    const CostModel& model, std::uint64_t budget_bytes, ThreadPool* pool) {
  PartitionedData partitioned =
      PartitionDataset(dataset, partitioning, universe);
  const std::size_t num_partitions = partitioned.NumPartitions();

  AccessAwareInputs inputs;
  // Candidate codecs: those the cost model has parameters for under this
  // layout (COL-PLAIN is excluded by the paper's candidate set).
  inputs.counts.resize(num_partitions);
  for (const CodecKind kind : AllCodecKinds()) {
    const EncodingScheme scheme{layout, kind};
    try {
      inputs.params.push_back(model.Params(scheme));
    } catch (const InvalidArgument&) {
      continue;  // unsupported combination in this environment
    }
    inputs.codec_choices.push_back(kind);
  }
  require(!inputs.codec_choices.empty(),
          "BuildAccessAwareReplica: no supported codecs for layout");
  inputs.sizes.assign(inputs.codec_choices.size(),
                      std::vector<std::uint64_t>(num_partitions, 0));

  // Serialize each partition once and trial every codec.
  std::vector<std::vector<Bytes>> encoded(
      inputs.codec_choices.size(), std::vector<Bytes>(num_partitions));
  std::vector<std::optional<STRange>> zones(num_partitions);
  const auto encode_one = [&](std::size_t p) {
    std::vector<Record> records;
    records.reserve(partitioned.members[p].size());
    for (std::uint32_t index : partitioned.members[p])
      records.push_back(dataset.records()[index]);
    inputs.counts[p] = records.size();
    zones[p] = ComputePartitionZone(records);
    const Bytes serialized = SerializeRecords(records, layout);
    for (std::size_t c = 0; c < inputs.codec_choices.size(); ++c) {
      encoded[c][p] = GetCodec(inputs.codec_choices[c]).Compress(serialized);
      inputs.sizes[c][p] = encoded[c][p].size();
    }
  };
  if (pool != nullptr) {
    pool->ParallelFor(num_partitions, encode_one);
  } else {
    for (std::size_t p = 0; p < num_partitions; ++p) encode_one(p);
  }

  const PartitionIndex index(partitioned.ranges);
  inputs.access = PartitionAccessFrequencies(index, universe, workload);

  AccessAwarePlan plan = PlanAccessAwareEncoding(inputs, budget_bytes);

  std::vector<StoredPartition> partitions(num_partitions);
  for (std::size_t p = 0; p < num_partitions; ++p) {
    std::size_t c = 0;
    while (inputs.codec_choices[c] != plan.codecs[p]) ++c;
    partitions[p].num_records = inputs.counts[p];
    partitions[p].data = std::move(encoded[c][p]);
    partitions[p].codec = plan.codecs[p];
    partitions[p].checksum = Fnv1a64(partitions[p].data);
    if (zones[p]) {
      partitions[p].has_zone = true;
      partitions[p].zone = *zones[p];
    }
  }
  const ReplicaConfig config{partitioning,
                             {layout, CodecKind::kNone},
                             EncodingPolicy::kBestCodecPerPartition};
  Replica replica = Replica::FromParts(config, universe,
                                       std::move(partitioned.ranges),
                                       std::move(partitions));
  return {std::move(replica), std::move(plan)};
}

}  // namespace blot
