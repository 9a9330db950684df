// Shared LZ77 match finding.
//
// Both dictionary codecs (Gzip-class and LZMA-class) locate back-references
// with a hash-chain matcher: a hash table over 4-byte prefixes whose
// buckets chain all previous occurrences within the window. The codecs
// differ in window size, chain depth (search effort), and in how tokens
// are entropy-coded.
#ifndef BLOT_CODEC_LZ_COMMON_H_
#define BLOT_CODEC_LZ_COMMON_H_

#include <cstdint>
#include <vector>

#include "util/bytes.h"

namespace blot {

// A back-reference of `length` bytes starting `distance` bytes before the
// current position. length == 0 means "no match found".
struct LzMatch {
  std::uint32_t length = 0;
  std::uint32_t distance = 0;
};

// Incremental hash-chain match finder over a fixed input buffer.
//
// Usage: walk positions left to right; at each position call FindMatch()
// and then Insert() for every consumed byte (including those covered by an
// emitted match) so later positions can reference them.
//
// The 64 Ki-bucket head table is borrowed from per-thread scratch rather
// than allocated and cleared per input, so a matcher costs O(input), not
// O(table): partitions here are often a few hundred bytes. Entries left by
// earlier inputs are told apart by a per-matcher position base (see
// lz_common.cc). A second matcher alive on the same thread gets a table of
// its own.
class HashChainMatcher {
 public:
  struct Options {
    std::uint32_t window_size = 32 * 1024;  // max match distance
    std::uint32_t min_match = 3;
    std::uint32_t max_match = 258;
    std::uint32_t max_chain = 32;  // probes per lookup (search effort)
  };

  HashChainMatcher(BytesView input, const Options& options);
  ~HashChainMatcher();

  HashChainMatcher(const HashChainMatcher&) = delete;
  HashChainMatcher& operator=(const HashChainMatcher&) = delete;

  // Finds the longest match ending before `pos` within the window. Only
  // returns matches of at least options.min_match bytes.
  LzMatch FindMatch(std::size_t pos) const;

  // Registers `pos` in the hash chains. Must be called for positions in
  // non-decreasing order.
  void Insert(std::size_t pos);

  const Options& options() const { return options_; }

 private:
  std::uint32_t HashAt(std::size_t pos) const;
  // Most recent position in `bucket` from this input, or -1.
  std::int64_t Head(std::uint32_t bucket) const;

  BytesView input_;
  Options options_;
  std::int64_t* head_ = nullptr;  // hash bucket -> base_ + latest position
  std::int64_t base_ = 0;
  bool borrowed_head_ = false;  // head_ is this thread's scratch table
  std::vector<std::int64_t> own_head_;  // used when the scratch is taken
  std::vector<std::int64_t> prev_;  // position -> previous with same hash
};

}  // namespace blot

#endif  // BLOT_CODEC_LZ_COMMON_H_
