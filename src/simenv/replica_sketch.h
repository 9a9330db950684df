// Hypothetical replica sketches: a candidate replica's cost-model inputs
// (ReplicaSketch, blot/replica.h) without materializing it.
//
// The paper stresses that "though the full dataset in our working system
// is more than 100 GB, we only need a small portion of the data to build
// the cost model and select diverse replicas for the whole dataset"
// (Section V-A). A sampled sketch captures exactly that portion: the
// partition ranges and (scaled) per-partition record counts produced by
// partitioning a sample, plus the storage estimate from the measured
// compression ratio. Sketches are how the evaluation scales to the
// paper's 370 GB and 3,700 GB configurations (Figure 6) without
// materializing the data. A materialized replica carries its own exact
// sketch (Replica::sketch).
#ifndef BLOT_SIMENV_REPLICA_SKETCH_H_
#define BLOT_SIMENV_REPLICA_SKETCH_H_

#include <cstdint>

#include "blot/replica.h"

namespace blot {

// Sketch of a hypothetical replica of `total_records` records whose
// distribution matches `sample`: partition boundaries come from
// partitioning the sample, per-partition counts are scaled
// proportionally, and storage is total_records * row bytes *
// `compression_ratio`.
ReplicaSketch SketchFromSample(const Dataset& sample,
                               const ReplicaConfig& config,
                               const STRange& universe,
                               std::uint64_t total_records,
                               double compression_ratio);

}  // namespace blot

#endif  // BLOT_SIMENV_REPLICA_SKETCH_H_
