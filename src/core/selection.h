// The replica selection problem (Section III) and its solvers.
//
// Given a workload W, candidate replicas R_C with storage sizes, a cost
// matrix c_ij = Cost(q_i, r_j) and a storage budget b, find R* ⊆ R_C with
// Storage(R*) <= b minimizing Cost(W, R*) = Σ_i w_i min_{r in R*}
// Cost(q_i, r). The problem is at least NP-complete (Theorem 1, reduction
// from set cover — exercised in tests/core/setcover_reduction_test).
//
// Solvers:
//   SelectGreedy     — Algorithm 1: repeatedly add the replica maximizing
//                      cost gain per storage byte; returns that set or
//                      the best single replica, whichever costs less.
//   SelectMip        — the exact 0-1 MIP of Eq. 1-5 via branch and bound
//                      (see mip_selection.h).
//   SelectExhaustive — enumerate all subsets; ground truth for small m.
//   SelectBestSingle — the best single replica within budget: what a
//                      conventional BLOT system without diverse replicas
//                      achieves ("Single" in Figures 4 and 6).
//   SelectIdeal      — every query on its best candidate, budget ignored
//                      ("Ideal": the unreachable lower bound).
//
// Candidate pruning (Section III-C2): PruneDominated removes replicas
// dominated by another replica or by a small replica set, which never
// changes the optimal workload cost.
#ifndef BLOT_CORE_SELECTION_H_
#define BLOT_CORE_SELECTION_H_

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "blot/replica.h"
#include "core/cost_model.h"
#include "core/workload.h"

namespace blot {

// The abstract selection instance: everything the solvers need, decoupled
// from how costs were obtained (cost model, simulation, or synthetic).
struct SelectionInput {
  // cost[i][j] = Cost(q_i, r_j), in ms. Rows: queries; columns: replicas.
  std::vector<std::vector<double>> cost;
  std::vector<double> weights;        // per query, non-negative
  std::vector<double> storage_bytes;  // per replica, positive
  double budget_bytes = 0;

  std::size_t NumQueries() const { return cost.size(); }
  std::size_t NumReplicas() const {
    return cost.empty() ? storage_bytes.size() : cost[0].size();
  }

  // Validates shape invariants; throws InvalidArgument on violation.
  void Check() const;
};

// Builds a SelectionInput from sketches via the cost model.
SelectionInput BuildSelectionInput(const std::vector<ReplicaSketch>& candidates,
                                   const Workload& workload,
                                   const CostModel& model,
                                   double budget_bytes);

struct SelectionResult {
  std::vector<std::size_t> chosen;  // candidate indices, ascending
  double workload_cost = 0.0;       // Cost(W, R) of the chosen set
  double storage_used = 0.0;
  // Solver diagnostics.
  std::size_t nodes_explored = 0;  // MIP only
  bool optimal = false;            // proven optimal (MIP / exhaustive)
  double solve_seconds = 0.0;
};

// Cost(W, R) for an explicit subset; +infinity if `chosen` is empty and
// the workload is not.
double SubsetWorkloadCost(const SelectionInput& input,
                          std::span<const std::size_t> chosen);

// Algorithm 1 (greedy by cost gain per storage byte), guarded by the
// best single replica: never costs more than SelectBestSingle.
SelectionResult SelectGreedy(const SelectionInput& input);

// Brute force over all 2^m subsets; requires m <= 24.
SelectionResult SelectExhaustive(const SelectionInput& input);

// Best single replica within budget.
SelectionResult SelectBestSingle(const SelectionInput& input);

// All candidates, budget ignored (lower bound on any feasible cost).
SelectionResult SelectIdeal(const SelectionInput& input);

// Indices of candidates that survive dominance pruning (Section III-C2):
// removes r if some other replica, or some pair of replicas, has no more
// storage and no worse cost on every query. Safe: never removes all
// copies of a best-choice column.
std::vector<std::size_t> PruneDominated(const SelectionInput& input,
                                        bool check_pairs = true);

// Restricts an instance to a candidate subset (e.g. PruneDominated's
// output). Chosen indices in results refer to the restricted instance.
SelectionInput RestrictCandidates(const SelectionInput& input,
                                  std::span<const std::size_t> keep);

}  // namespace blot

#endif  // BLOT_CORE_SELECTION_H_
