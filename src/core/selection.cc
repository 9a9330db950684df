#include "core/selection.h"

#include <algorithm>
#include <chrono>
#include <limits>

#include "obs/metrics.h"
#include "util/error.h"

namespace blot {
namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double SubsetStorage(const SelectionInput& input,
                     std::span<const std::size_t> chosen) {
  double storage = 0;
  for (std::size_t j : chosen) storage += input.storage_bytes[j];
  return storage;
}

// Greedy picks range from fractions of a millisecond to minutes of gain
// per megabyte depending on workload scale, hence decade buckets.
obs::Histogram& GainPerMbHistogram() {
  static obs::Histogram& histogram =
      obs::MetricsRegistry::global().GetHistogram(
          "select.greedy.gain_ms_per_mb", {},
          {1e-3, 1e-2, 1e-1, 1, 10, 100, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8,
           1e9});
  return histogram;
}

}  // namespace

void SelectionInput::Check() const {
  require(weights.size() == cost.size(),
          "SelectionInput: weights/cost row mismatch");
  for (const auto& row : cost)
    require(row.size() == storage_bytes.size(),
            "SelectionInput: cost row width != replica count");
  for (double w : weights)
    require(w >= 0, "SelectionInput: negative weight");
  for (double s : storage_bytes)
    require(s > 0, "SelectionInput: non-positive storage size");
  require(budget_bytes >= 0, "SelectionInput: negative budget");
  for (const auto& row : cost)
    for (double c : row)
      require(c >= 0, "SelectionInput: negative cost");
}

SelectionInput BuildSelectionInput(const std::vector<ReplicaSketch>& candidates,
                                   const Workload& workload,
                                   const CostModel& model,
                                   double budget_bytes) {
  SelectionInput input;
  input.budget_bytes = budget_bytes;
  for (const ReplicaSketch& sketch : candidates)
    input.storage_bytes.push_back(static_cast<double>(sketch.storage_bytes));
  for (const WeightedQuery& wq : workload.queries()) {
    input.weights.push_back(wq.weight);
    std::vector<double> row;
    row.reserve(candidates.size());
    for (const ReplicaSketch& sketch : candidates)
      row.push_back(model.QueryCostMs(sketch, wq.query));
    input.cost.push_back(std::move(row));
  }
  input.Check();
  return input;
}

double SubsetWorkloadCost(const SelectionInput& input,
                          std::span<const std::size_t> chosen) {
  if (chosen.empty())
    return input.NumQueries() == 0
               ? 0.0
               : std::numeric_limits<double>::infinity();
  double total = 0;
  for (std::size_t i = 0; i < input.NumQueries(); ++i) {
    double best = std::numeric_limits<double>::infinity();
    for (std::size_t j : chosen) best = std::min(best, input.cost[i][j]);
    total += input.weights[i] * best;
  }
  return total;
}

SelectionResult SelectGreedy(const SelectionInput& input) {
  input.Check();
  const auto start = Clock::now();
  SelectionResult result;
  const std::size_t m = input.NumReplicas();
  const std::size_t n = input.NumQueries();

  // best_cost[i]: current min_{r in R} Cost(q_i, r). The paper leaves
  // Cost(W, ∅) undefined; we initialize each query at its worst candidate
  // cost so the first pick is ranked by covered cost per byte and all
  // gains stay finite.
  std::vector<double> best_cost(n, 0.0);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < m; ++j)
      best_cost[i] = std::max(best_cost[i], input.cost[i][j]);

  std::vector<bool> taken(m, false);
  double storage_used = 0;
  bool first_pick = true;

  for (;;) {
    std::size_t best_replica = m;
    double best_score = 0;
    for (std::size_t j = 0; j < m; ++j) {
      if (taken[j]) continue;
      if (storage_used + input.storage_bytes[j] > input.budget_bytes)
        continue;
      double gain = 0;
      for (std::size_t i = 0; i < n; ++i) {
        const double improvement = best_cost[i] - input.cost[i][j];
        if (improvement > 0) gain += input.weights[i] * improvement;
      }
      const double score = gain / input.storage_bytes[j];
      // `score > 0` implements Algorithm 1's stop condition "the overall
      // workload cost cannot be further decreased"; the first pick is
      // exempt so a workload-neutral but budget-feasible replica still
      // yields a usable replica set.
      if (score > best_score || (first_pick && best_replica == m)) {
        best_score = score;
        best_replica = j;
      }
    }
    if (best_replica == m) break;
    first_pick = false;
    taken[best_replica] = true;
    storage_used += input.storage_bytes[best_replica];
    for (std::size_t i = 0; i < n; ++i)
      best_cost[i] = std::min(best_cost[i], input.cost[i][best_replica]);
    result.chosen.push_back(best_replica);
    // The gain-per-byte trajectory: one observation per round, in
    // descending order by construction — the histogram shows how fast
    // marginal utility decays.
    if (obs::MetricsRegistry::global().enabled())
      GainPerMbHistogram().Observe(best_score * double(1 << 20));
  }

  std::sort(result.chosen.begin(), result.chosen.end());
  result.workload_cost = SubsetWorkloadCost(input, result.chosen);
  result.storage_used = storage_used;
  // Budgeted greedy by gain per byte can fill the budget with small
  // replicas before the best single one fits; the standard guard keeps
  // the better of the greedy set and the best single replica.
  const SelectionResult single = SelectBestSingle(input);
  if (single.workload_cost < result.workload_cost) {
    result.chosen = single.chosen;
    result.workload_cost = single.workload_cost;
    result.storage_used = single.storage_used;
  }
  result.solve_seconds = Seconds(start);
  auto& registry = obs::MetricsRegistry::global();
  if (registry.enabled()) {
    registry.GetCounter("select.greedy.runs_total").Increment();
    registry.GetCounter("select.greedy.rounds_total")
        .Increment(result.chosen.size());
    registry.GetHistogram("select.greedy.solve_ms")
        .Observe(result.solve_seconds * 1000.0);
  }
  return result;
}

SelectionResult SelectExhaustive(const SelectionInput& input) {
  input.Check();
  const auto start = Clock::now();
  const std::size_t m = input.NumReplicas();
  require(m <= 24, "SelectExhaustive: too many candidates");

  SelectionResult result;
  double best_cost = std::numeric_limits<double>::infinity();
  std::vector<std::size_t> best_subset;
  for (std::uint64_t mask = 0; mask < (std::uint64_t{1} << m); ++mask) {
    std::vector<std::size_t> subset;
    double storage = 0;
    for (std::size_t j = 0; j < m; ++j) {
      if (mask & (std::uint64_t{1} << j)) {
        subset.push_back(j);
        storage += input.storage_bytes[j];
      }
    }
    if (storage > input.budget_bytes) continue;
    const double cost = SubsetWorkloadCost(input, subset);
    if (cost < best_cost) {
      best_cost = cost;
      best_subset = std::move(subset);
    }
  }
  result.chosen = std::move(best_subset);
  result.workload_cost = best_cost;
  result.storage_used = SubsetStorage(input, result.chosen);
  result.optimal = true;
  result.solve_seconds = Seconds(start);
  return result;
}

SelectionResult SelectBestSingle(const SelectionInput& input) {
  input.Check();
  const auto start = Clock::now();
  SelectionResult result;
  double best_cost = std::numeric_limits<double>::infinity();
  for (std::size_t j = 0; j < input.NumReplicas(); ++j) {
    if (input.storage_bytes[j] > input.budget_bytes) continue;
    const std::size_t subset[] = {j};
    const double cost = SubsetWorkloadCost(input, subset);
    if (cost < best_cost) {
      best_cost = cost;
      result.chosen = {j};
    }
  }
  result.workload_cost = best_cost;
  result.storage_used = SubsetStorage(input, result.chosen);
  result.solve_seconds = Seconds(start);
  return result;
}

SelectionResult SelectIdeal(const SelectionInput& input) {
  input.Check();
  SelectionResult result;
  for (std::size_t j = 0; j < input.NumReplicas(); ++j)
    result.chosen.push_back(j);
  result.workload_cost = SubsetWorkloadCost(input, result.chosen);
  result.storage_used = SubsetStorage(input, result.chosen);
  return result;
}

std::vector<std::size_t> PruneDominated(const SelectionInput& input,
                                        bool check_pairs) {
  input.Check();
  const std::size_t m = input.NumReplicas();
  const std::size_t n = input.NumQueries();
  std::vector<bool> removed(m, false);

  // r is dominated by replica set R (r not in R) when Storage(R) <=
  // Storage(r) and min over R of cost <= cost on r for every query.
  const auto dominates = [&](std::span<const std::size_t> set,
                             std::size_t r) {
    double set_storage = 0;
    for (std::size_t j : set) set_storage += input.storage_bytes[j];
    if (set_storage > input.storage_bytes[r]) return false;
    for (std::size_t i = 0; i < n; ++i) {
      double best = std::numeric_limits<double>::infinity();
      for (std::size_t j : set) best = std::min(best, input.cost[i][j]);
      if (best > input.cost[i][r]) return false;
    }
    return true;
  };

  for (std::size_t r = 0; r < m; ++r) {
    for (std::size_t a = 0; a < m && !removed[r]; ++a) {
      if (a == r || removed[a]) continue;
      const std::size_t single[] = {a};
      if (dominates(single, r)) {
        // Tie-break identical replicas by index so exactly one survives.
        if (input.storage_bytes[a] < input.storage_bytes[r] || a < r)
          removed[r] = true;
      }
    }
    if (removed[r] || !check_pairs) continue;
    for (std::size_t a = 0; a < m && !removed[r]; ++a) {
      if (a == r || removed[a]) continue;
      for (std::size_t b = a + 1; b < m && !removed[r]; ++b) {
        if (b == r || removed[b]) continue;
        const std::size_t pair[] = {a, b};
        if (dominates(pair, r)) removed[r] = true;
      }
    }
  }

  std::vector<std::size_t> kept;
  for (std::size_t j = 0; j < m; ++j)
    if (!removed[j]) kept.push_back(j);
  auto& registry = obs::MetricsRegistry::global();
  if (registry.enabled()) {
    registry.GetCounter("select.prune_runs_total").Increment();
    registry.GetCounter("select.candidates_pruned_total")
        .Increment(m - kept.size());
    registry.GetCounter("select.candidates_kept_total")
        .Increment(kept.size());
  }
  return kept;
}

SelectionInput RestrictCandidates(const SelectionInput& input,
                                  std::span<const std::size_t> keep) {
  SelectionInput restricted;
  restricted.budget_bytes = input.budget_bytes;
  restricted.weights = input.weights;
  for (std::size_t j : keep) {
    require(j < input.NumReplicas(), "RestrictCandidates: bad index");
    restricted.storage_bytes.push_back(input.storage_bytes[j]);
  }
  for (const auto& row : input.cost) {
    std::vector<double> new_row;
    new_row.reserve(keep.size());
    for (std::size_t j : keep) new_row.push_back(row[j]);
    restricted.cost.push_back(std::move(new_row));
  }
  return restricted;
}

}  // namespace blot
