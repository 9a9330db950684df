// The partitioning index: the "small global data structure to index the
// spatio-temporal ranges of all data partitions" (Section II-B).
//
// Supports the one operation query processing needs — find every partition
// whose range intersects a query range — plus exact involved-partition
// counting for the cost model (Np(q, r) for concrete queries).
//
// The index is an implicit bounding-box tree: a complete binary tree over
// the partitions in index order, each leaf holding a run of consecutive
// partitions and each node the union of its children's ranges. The
// partitioner emits partitions in k-d leaf order with each cell's time
// slices consecutive, so neighbouring partitions are neighbours in space
// and time and the node boxes are tight; a lookup descends only into
// boxes the query intersects. Any range set is correct (overlapping,
// gappy or empty ranges included); tightness only decides how much of
// the tree a lookup visits.
#ifndef BLOT_BLOT_PARTITION_INDEX_H_
#define BLOT_BLOT_PARTITION_INDEX_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <type_traits>
#include <vector>

#include "util/range.h"

namespace blot {

class PartitionIndex {
 public:
  PartitionIndex() = default;
  explicit PartitionIndex(std::vector<STRange> ranges);

  std::size_t NumPartitions() const { return ranges_.size(); }
  const STRange& Range(std::size_t partition) const {
    return ranges_[partition];
  }
  const std::vector<STRange>& ranges() const { return ranges_; }

  // Calls fn(partition) for every partition intersecting `query`, in
  // ascending order, each exactly once. `fn` may return bool: false ends
  // the walk. Allocates nothing.
  template <typename Fn>
  void ForEachInvolved(const STRange& query, Fn&& fn) const;

  // Indices of all partitions intersecting `query`, ascending.
  std::vector<std::size_t> InvolvedPartitions(const STRange& query) const;

  // |InvolvedPartitions(query)| without materializing the list.
  std::size_t CountInvolved(const STRange& query) const;

  // The union of all partition ranges (the universe for tiling schemes).
  STRange Cover() const;

 private:
  // Partitions per leaf. A leaf's ranges are tested in one linear pass,
  // which is cheaper than descending the tree's last three levels.
  static constexpr std::size_t kLeafSize = 8;

  // Heap layout: node 1 is the root and node v has children 2v and 2v+1.
  // The leaves are nodes leaves_ .. 2*leaves_-1, with leaves_ the
  // smallest power of two covering NumPartitions() / kLeafSize; leaf node
  // leaves_+b holds partitions [b*kLeafSize, (b+1)*kLeafSize), and leaves
  // past the last partition are empty padding. boxes_[v] is the
  // STRange::Union of node v's partitions; boxes_[0] is unused.
  std::vector<STRange> ranges_;
  std::vector<STRange> boxes_;
  std::size_t leaves_ = 0;
};

template <typename Fn>
void PartitionIndex::ForEachInvolved(const STRange& query, Fn&& fn) const {
  constexpr bool kStoppable =
      std::is_same_v<std::invoke_result_t<Fn&, std::size_t>, bool>;
  if (boxes_.empty() || !boxes_[1].Intersects(query)) return;
  const std::size_t n = ranges_.size();
  const int height = std::countr_zero(leaves_);
  // Depth-first over nodes whose box intersects the query, left child on
  // top of the stack, so partitions come out in ascending order. Each pop
  // pushes at most two nodes one level down, so the stack never holds
  // more than height + 1 nodes.
  std::size_t stack[8 * sizeof(std::size_t) + 1];
  std::size_t top = 0;
  stack[top++] = 1;
  while (top > 0) {
    const std::size_t node = stack[--top];
    const bool contained = query.Contains(boxes_[node]);
    if (contained || node >= leaves_) {
      // The node's partitions, tested one by one; under a box inside the
      // query every non-empty partition intersects.
      const int below = height - (std::bit_width(node) - 1);
      const std::size_t first = ((node << below) - leaves_) * kLeafSize;
      const std::size_t last = std::min(n, first + (kLeafSize << below));
      for (std::size_t p = first; p < last; ++p) {
        if (contained ? ranges_[p].empty() : !ranges_[p].Intersects(query))
          continue;
        if constexpr (kStoppable) {
          if (!fn(p)) return;
        } else {
          fn(p);
        }
      }
      continue;
    }
    if (boxes_[2 * node + 1].Intersects(query)) stack[top++] = 2 * node + 1;
    if (boxes_[2 * node].Intersects(query)) stack[top++] = 2 * node;
  }
}

}  // namespace blot

#endif  // BLOT_BLOT_PARTITION_INDEX_H_
