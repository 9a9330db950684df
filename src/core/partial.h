// Hot-region heuristic for partial replication — the paper's future-work
// extension (Section VII): "The use of partial replication, where only
// frequently accessed data ranges are replicated, is one of our future
// work."
//
// A partial replica materializes only a sub-range (the hot region) of the
// universe; BlotStore::AddPartialReplica serves a query from it only when
// the query lies entirely inside that coverage. This header picks the
// coverage from a sample of the data.
#ifndef BLOT_CORE_PARTIAL_H_
#define BLOT_CORE_PARTIAL_H_

#include "blot/dataset.h"
#include "util/range.h"

namespace blot {

// The smallest axis-aligned spatial box (full time extent) centered on
// the data's spatial median that contains at least `record_fraction` of
// `sample`'s records. This is the "frequently accessed range" heuristic:
// hotspot-clustered data concentrates most records in a small box.
STRange DensestSpatialBox(const Dataset& sample, const STRange& universe,
                          double record_fraction);

}  // namespace blot

#endif  // BLOT_CORE_PARTIAL_H_
