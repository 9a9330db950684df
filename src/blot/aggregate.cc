#include "blot/aggregate.h"

#include <algorithm>
#include <set>

namespace blot {

RangeStatistics AggregateRange(const Replica& replica, const STRange& query,
                               ThreadPool* pool) {
  const QueryResult result = replica.Execute(query, pool);
  RangeStatistics s;
  s.stats = result.stats;
  std::set<std::uint32_t> objects;
  for (const Record& r : result.records) {
    ++s.count;
    if (r.status == 1) {
      ++s.occupied;
      s.fare_cents_sum += r.fare_cents;
    }
    s.speed_sum += r.speed;
    s.first_time = std::min(s.first_time, r.time);
    s.last_time = std::max(s.last_time, r.time);
    objects.insert(r.oid);
  }
  s.distinct_objects = objects.size();
  return s;
}

}  // namespace blot
