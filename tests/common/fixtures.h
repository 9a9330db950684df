// Shared fixtures for the gtest suites: the canonical record order, the
// small deterministic taxi-fleet dataset, the standard diverse-replica
// store, honest corruption helpers and scoped guards for process-global
// state. Test binaries link blot_test_fixtures and include this via
//   #include "common/fixtures.h"
// (the tests/ directory is on every test target's include path).
#ifndef BLOT_TESTS_COMMON_FIXTURES_H_
#define BLOT_TESTS_COMMON_FIXTURES_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "blot/dataset.h"
#include "blot/record.h"
#include "core/store.h"
#include "util/range.h"

namespace blot::test {

// Sorted copy under the canonical total order over every record field
// (delegates to the testing oracle's order), so equal multisets compare
// equal regardless of the order partitions returned them in.
std::vector<Record> Sorted(std::vector<Record> records);

// The small deterministic taxi fleet most suites build by hand: 10
// taxis x 300 samples unless overridden. Same seed, same dataset.
struct TaxiFixture {
  Dataset dataset;
  STRange universe;

  explicit TaxiFixture(std::size_t taxis = 10, std::size_t samples = 300);
};

// A query covering `fraction` of each dimension, centered on the
// universe centroid.
STRange CentroidQuery(const STRange& universe, double fraction);

// The standard diverse-replica store used by the failover and routing
// suites: up to three replicas with distinct partitionings and
// encodings (ROW-SNAPPY / COL-GZIP / ROW-GZIP).
BlotStore MakeStandardStore(const Dataset& dataset, const STRange& universe,
                            std::size_t replicas = 2);

// Corrupts every non-empty partition of `replica` the query needs,
// through the honest path (MutablePartition re-arms checksum
// verification and invalidates cached decodes). Returns the partitions
// actually corrupted.
std::vector<std::size_t> CorruptInvolved(BlotStore& store,
                                         std::size_t replica,
                                         const STRange& query);

// The store's full candidate ranking for `query`, computed the long way:
// every covering replica with no quarantined involved partition, scored
// by its Eq. 7 estimate times its brownout penalty, least score first,
// ties to the lower index. Routing picks its front; failover and hedging
// walk it in order.
std::vector<std::size_t> FullRanking(const BlotStore& store,
                                     const CostModel& model,
                                     const STRange& query);

// A query sampled over the store's universe (fixed seed) whose full
// ranking has three candidates with the runners-up ranked against index
// order, so the order failover and hedging follow is observable; empty
// `ranking` when none of 200 samples qualifies.
struct RankedQuery {
  STRange query;
  std::vector<std::size_t> ranking;
};
RankedQuery RunnersUpAgainstIndexOrder(const BlotStore& store,
                                       const CostModel& model);

// Scopes a configuration of the process-wide decoded-partition cache;
// restores the disabled default (budget 0, stats reset) on destruction
// so no other test in the binary observes it.
struct GlobalCacheGuard {
  explicit GlobalCacheGuard(std::uint64_t budget);
  ~GlobalCacheGuard();

  GlobalCacheGuard(const GlobalCacheGuard&) = delete;
  GlobalCacheGuard& operator=(const GlobalCacheGuard&) = delete;
};

}  // namespace blot::test

#endif  // BLOT_TESTS_COMMON_FIXTURES_H_
