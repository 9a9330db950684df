#include "codec/lz_common.h"

#include <algorithm>

#include "util/error.h"

namespace blot {
namespace {

constexpr std::size_t kHashBits = 16;
constexpr std::size_t kHashSize = std::size_t{1} << kHashBits;

// This thread's reusable head table. Buckets hold `base + position`, with
// a fresh base per matcher above every position stored before it, so an
// entry from an earlier input reads as empty and the table is never
// cleared.
struct HeadScratch {
  std::vector<std::int64_t> head = std::vector<std::int64_t>(kHashSize, -1);
  std::int64_t next_base = 0;
  bool lent = false;
};

HeadScratch& ThreadHeadScratch() {
  thread_local HeadScratch scratch;
  return scratch;
}

}  // namespace

HashChainMatcher::HashChainMatcher(BytesView input, const Options& options)
    : input_(input), options_(options), prev_(input.size(), -1) {
  require(options_.min_match >= 3, "HashChainMatcher: min_match must be >= 3");
  require(options_.max_match >= options_.min_match,
          "HashChainMatcher: max_match < min_match");
  require(options_.window_size > 0, "HashChainMatcher: empty window");
  HeadScratch& scratch = ThreadHeadScratch();
  if (!scratch.lent) {
    scratch.lent = true;
    borrowed_head_ = true;
    head_ = scratch.head.data();
    base_ = scratch.next_base;
  } else {
    own_head_.assign(kHashSize, -1);
    head_ = own_head_.data();
  }
}

HashChainMatcher::~HashChainMatcher() {
  if (!borrowed_head_) return;
  HeadScratch& scratch = ThreadHeadScratch();
  scratch.next_base = base_ + static_cast<std::int64_t>(input_.size());
  scratch.lent = false;
}

std::int64_t HashChainMatcher::Head(std::uint32_t bucket) const {
  const std::int64_t entry = head_[bucket];
  return entry >= base_ ? entry - base_ : -1;
}

std::uint32_t HashChainMatcher::HashAt(std::size_t pos) const {
  // Multiplicative hash of the next 4 bytes (padded reads are guarded by
  // callers: FindMatch/Insert skip positions within 4 bytes of the end).
  std::uint32_t v = static_cast<std::uint32_t>(input_[pos]) |
                    (static_cast<std::uint32_t>(input_[pos + 1]) << 8) |
                    (static_cast<std::uint32_t>(input_[pos + 2]) << 16) |
                    (static_cast<std::uint32_t>(input_[pos + 3]) << 24);
  return (v * 0x9E3779B1u) >> (32 - kHashBits);
}

LzMatch HashChainMatcher::FindMatch(std::size_t pos) const {
  LzMatch best;
  if (pos + 4 > input_.size()) return best;
  const std::size_t max_len = std::min<std::size_t>(
      options_.max_match, input_.size() - pos);
  if (max_len < options_.min_match) return best;

  std::int64_t candidate = Head(HashAt(pos));
  const std::int64_t window_start =
      static_cast<std::int64_t>(pos) -
      static_cast<std::int64_t>(options_.window_size);
  std::uint32_t probes = options_.max_chain;
  while (candidate >= 0 && candidate >= window_start && probes-- > 0) {
    const std::size_t c = static_cast<std::size_t>(candidate);
    // Cheap reject: compare the byte just past the current best length.
    if (best.length == 0 ||
        (best.length < max_len &&
         input_[c + best.length] == input_[pos + best.length])) {
      std::size_t len = 0;
      while (len < max_len && input_[c + len] == input_[pos + len]) ++len;
      if (len >= options_.min_match && len > best.length) {
        best.length = static_cast<std::uint32_t>(len);
        best.distance = static_cast<std::uint32_t>(pos - c);
        if (len == max_len) break;
      }
    }
    candidate = prev_[c];
  }
  return best;
}

void HashChainMatcher::Insert(std::size_t pos) {
  if (pos + 4 > input_.size()) return;
  const std::uint32_t h = HashAt(pos);
  prev_[pos] = Head(h);
  head_[h] = base_ + static_cast<std::int64_t>(pos);
}

}  // namespace blot
