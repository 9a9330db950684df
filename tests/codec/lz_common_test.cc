#include "codec/lz_common.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "util/rng.h"

namespace blot {
namespace {

using Trace = std::vector<std::pair<std::uint32_t, std::uint32_t>>;

const HashChainMatcher::Options kOptions = {
    .window_size = 32768, .min_match = 3, .max_match = 258, .max_chain = 16};

// Bytes over a small alphabet, so matches and hash collisions abound.
Bytes RepetitiveBytes(std::uint64_t seed, std::size_t size) {
  Rng rng(seed);
  Bytes bytes(size);
  for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.NextUint64(4));
  return bytes;
}

// Steps a matcher over its whole input: FindMatch then Insert at every
// position, as the codecs do. Returns the (length, distance) found at
// each step; `step` advances one position per call.
struct Walk {
  Walk(const Bytes& input) : input(input), matcher(input, kOptions) {}
  bool Step() {
    if (pos >= input.size()) return false;
    const LzMatch m = matcher.FindMatch(pos);
    trace.emplace_back(m.length, m.distance);
    matcher.Insert(pos++);
    return true;
  }
  Trace Run() {
    while (Step()) {
    }
    return trace;
  }

  const Bytes& input;
  HashChainMatcher matcher;
  std::size_t pos = 0;
  Trace trace;
};

// The matches a matcher finds on a thread that has never run one.
Trace FreshTrace(const Bytes& input) {
  Trace trace;
  std::thread([&] { trace = Walk(input).Run(); }).join();
  return trace;
}

TEST(HashChainMatcherTest, SequentialMatchersOnOneThreadMatchFreshOnes) {
  // Later inputs hash into buckets the earlier ones left behind.
  const std::vector<Bytes> inputs = {
      RepetitiveBytes(1, 5000), RepetitiveBytes(2, 300),
      RepetitiveBytes(1, 5000), RepetitiveBytes(3, 70000),
      RepetitiveBytes(4, 17), RepetitiveBytes(5, 2000)};
  for (std::size_t i = 0; i < inputs.size(); ++i)
    EXPECT_EQ(Walk(inputs[i]).Run(), FreshTrace(inputs[i])) << "input " << i;
}

TEST(HashChainMatcherTest, TwoLiveMatchersOnOneThreadMatchFreshOnes) {
  const Bytes a = RepetitiveBytes(6, 4000);
  const Bytes b = RepetitiveBytes(7, 3000);
  Walk warm(a);  // leaves stale entries in this thread's scratch
  warm.Run();
  {
    Walk first(a);
    Walk second(b);
    // Interleaved, so a shared table would cross-link the two inputs.
    while (first.Step() | second.Step()) {
    }
    EXPECT_EQ(first.trace, FreshTrace(a));
    EXPECT_EQ(second.trace, FreshTrace(b));
  }
  // Released in either order, the scratch still serves a new matcher.
  EXPECT_EQ(Walk(b).Run(), FreshTrace(b));
}

}  // namespace
}  // namespace blot
