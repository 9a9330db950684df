// Discrete execution simulator for BLOT query processing.
//
// Executes the paper's query-processing procedure (Section II-D) against a
// replica sketch and charges simulated wall time from the environment
// model, with multiplicative measurement noise: the same role the
// MapReduce jobs play in the paper's evaluation, but machine-independent
// and scalable to arbitrary dataset sizes.
//
// Two aggregate times are reported:
//   total_cost_ms — the sum over involved partitions (Eq. 7), the paper's
//                   query-cost metric;
//   makespan_ms   — the parallel completion time with a bounded mapper
//                   pool (each mapper scans one partition, as in §V-A).
#ifndef BLOT_SIMENV_SIMULATOR_H_
#define BLOT_SIMENV_SIMULATOR_H_

#include <cstdint>

#include "blot/replica.h"
#include "simenv/environment.h"
#include "util/rng.h"

namespace blot {

struct SimQueryResult {
  double total_cost_ms = 0.0;
  double makespan_ms = 0.0;
  std::size_t partitions_scanned = 0;
  std::uint64_t records_scanned = 0;
};

struct SimulatorOptions {
  // Multiplicative noise applied per partition scan; 0 disables noise.
  double noise_fraction = 0.03;
  // Concurrent map slots for the makespan metric.
  std::size_t num_mappers = 20;
  std::uint64_t seed = 7;
};

class Simulator {
 public:
  explicit Simulator(EnvironmentModel environment,
                     const SimulatorOptions& options = {});

  const EnvironmentModel& environment() const { return environment_; }

  // Simulated time to scan one partition of `records` records (Eq. 6 plus
  // noise). This is the quantity the measurement procedure of Section V-B
  // observes.
  double PartitionScanMs(const EncodingScheme& scheme, std::uint64_t records);

  // Runs one range query against the sketch.
  SimQueryResult ExecuteQuery(const ReplicaSketch& replica,
                              const STRange& query);

 private:
  double Noise();

  EnvironmentModel environment_;
  SimulatorOptions options_;
  Rng rng_;
};

}  // namespace blot

#endif  // BLOT_SIMENV_SIMULATOR_H_
