#include "blot/partition_index.h"

namespace blot {

PartitionIndex::PartitionIndex(std::vector<STRange> ranges)
    : ranges_(std::move(ranges)) {
  if (ranges_.empty()) return;
  leaves_ = std::bit_ceil((ranges_.size() + kLeafSize - 1) / kLeafSize);
  boxes_.resize(2 * leaves_);
  for (std::size_t p = 0; p < ranges_.size(); ++p) {
    STRange& leaf = boxes_[leaves_ + p / kLeafSize];
    leaf = STRange::Union(leaf, ranges_[p]);
  }
  for (std::size_t node = leaves_ - 1; node >= 1; --node)
    boxes_[node] = STRange::Union(boxes_[2 * node], boxes_[2 * node + 1]);
}

std::vector<std::size_t> PartitionIndex::InvolvedPartitions(
    const STRange& query) const {
  std::vector<std::size_t> involved;
  ForEachInvolved(query, [&involved](std::size_t p) { involved.push_back(p); });
  return involved;
}

std::size_t PartitionIndex::CountInvolved(const STRange& query) const {
  std::size_t count = 0;
  ForEachInvolved(query, [&count](std::size_t) { ++count; });
  return count;
}

STRange PartitionIndex::Cover() const {
  return boxes_.empty() ? STRange() : boxes_[1];
}

}  // namespace blot
