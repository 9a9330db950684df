// Deterministic, seed-driven fault injection for the storage read path.
//
// The paper's fault-tolerance argument (Section II-E) is that diverse
// replicas subsume replication: any surviving replica can answer any
// query, so corruption in one physical organization must never lose a
// query. This module supplies the faults that claim is tested against.
// A process-wide FaultInjector is consulted at the partition read
// boundary (Replica::DecodePartitionRecords / ScanPartition); when
// armed it deterministically decides, per (replica, partition), whether
// that read suffers a bit flip, a truncation, a torn read, an outright
// read error, or a latency spike. Corruptions are applied to a copy of
// the encoded bytes and then run through the ordinary checksum
// verification, so injected faults exercise exactly the detection
// machinery real media errors would.
//
// Determinism: the decision for a read is a pure function of
// (plan seed, replica name, partition index), so a failing campaign seed
// reproduces exactly. Each matched target fires a bounded number of times
// (FaultPlan::max_fires_per_target, default 1), modeling a bad storage
// unit that is replaced by repair rather than an endlessly haunted one.
//
// Entry points: tests and benches Arm() the global injector directly;
// blotctl exposes the same plans through `--inject-faults=<spec>`
// (grammar in ParseFaultSpec and docs/robustness.md). Disarmed, the
// hot-path check is one relaxed atomic load.
#ifndef BLOT_CORE_FAULT_INJECTION_H_
#define BLOT_CORE_FAULT_INJECTION_H_

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <iterator>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "util/bytes.h"

namespace blot {

enum class FaultKind : std::uint8_t {
  kBitFlip,    // one bit of the encoded partition flips
  kTruncate,   // the tail of the encoded partition is cut off
  kTornRead,   // the tail reads back as zeros (interrupted write)
  kReadError,  // the read itself fails (ReadError is thrown)
  kLatency,    // the read succeeds after a delay
};

std::string_view FaultKindName(FaultKind kind);

// The corruption kinds a default FaultPlan injects.
inline constexpr FaultKind kCorruptionKinds[] = {
    FaultKind::kBitFlip, FaultKind::kTruncate, FaultKind::kTornRead};

// What the injector may do and to whom. Defaults target every partition
// of every replica with all three corruption kinds, once per target.
struct FaultPlan {
  std::uint64_t seed = 1;
  // Probability that a matched (replica, partition) target is faulty at
  // all; the draw is deterministic per target, not per read.
  double probability = 1.0;
  // Copied from a static array: a braced list here is a stack temporary
  // that g++ 12 -O2 flags as maybe-uninitialized once inlined.
  std::vector<FaultKind> kinds{std::begin(kCorruptionKinds),
                               std::end(kCorruptionKinds)};
  // Empty matches every replica; otherwise the replica config name
  // (e.g. "KD4xT4/ROW-SNAPPY") must match exactly.
  std::string replica;
  // Unset matches every partition.
  std::optional<std::size_t> partition;
  // How many reads of one target fire before it goes quiet; 0 means
  // every read (a fault that survives until the unit is rebuilt).
  std::size_t max_fires_per_target = 1;
  std::uint32_t latency_ms = 5;  // delay for kLatency faults (kFixed)

  // Shape of kLatency delays. The scalar `latency=MS` grammar keeps its
  // original fixed-delay meaning; the two distributions model real
  // brownouts better than a constant:
  //   kFixed  — every fire stalls latency_ms.
  //   kPareto — per-target heavy-tailed delay in [latency_min,
  //             latency_max] ms (alpha 1.5): most targets are mildly
  //             slow, a deterministic few are terrible — the long-tail
  //             shape hedged reads exist for.
  //   kSpike  — each *read* independently stalls latency_min ms with
  //             spike_probability (an intermittently wedged device);
  //             non-spiking reads do not consume the target's fire
  //             budget.
  enum class LatencyDist : std::uint8_t { kFixed, kPareto, kSpike };
  LatencyDist latency_dist = LatencyDist::kFixed;
  double latency_min = 0.0;        // pareto scale / spike stall ms
  double latency_max = 0.0;        // pareto clamp
  double spike_probability = 0.0;  // spike: per-read stall probability
};

// Parses the `--inject-faults` spec grammar: semicolon-separated
// key=value pairs, e.g.
//   "seed=42;p=0.5;kinds=bitflip,readerror;replica=KD4xT4/ROW-SNAPPY;
//    partition=3;fires=1;latency=5"
// Keys: seed, p (probability), kinds (comma list of bitflip, truncate,
// torn, readerror, latency), replica, partition, fires, latency.
// The latency value is either a scalar delay in ms (`latency=5`,
// unchanged) or a distribution spec: `latency=pareto:MIN:MAX` (heavy-
// tailed per-target delay in [MIN, MAX] ms) or `latency=spike:MS:PROB`
// (each read stalls MS ms with probability PROB). Unknown keys or
// malformed values throw InvalidArgument.
FaultPlan ParseFaultSpec(const std::string& spec);

// The outcome of consulting the injector for one read.
struct FaultDecision {
  bool fire = false;
  FaultKind kind = FaultKind::kBitFlip;
  // Kind-specific parameter: corruption position salt for the mutation
  // helpers, or the delay in ms for kLatency.
  std::uint64_t param = 0;
};

class FaultInjector {
 public:
  struct Stats {
    std::uint64_t fired_total = 0;
    std::uint64_t bit_flips = 0;
    std::uint64_t truncations = 0;
    std::uint64_t torn_reads = 0;
    std::uint64_t read_errors = 0;
    std::uint64_t latency_spikes = 0;
    // Distinct (replica, partition) targets that fired at least once.
    std::uint64_t targets_hit = 0;
  };

  // The process-wide injector consulted by the Replica read path.
  // Disarmed at startup.
  static FaultInjector& Global();

  FaultInjector() = default;
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  // Installs `plan` and resets per-target fire counts and stats.
  void Arm(const FaultPlan& plan);
  // Stops injecting; stats survive until the next Arm().
  void Disarm();
  bool enabled() const { return armed_.load(std::memory_order_relaxed); }

  // Scoped suspension: reads made while at least one Suspend is alive are
  // clean, and — unlike Disarm + re-Arm, which resets them — the plan,
  // per-target fire budgets and read sequence numbers are untouched.
  // Suspended reads are invisible to the spike distribution's per-read
  // draws, so a verifier can re-read data mid-campaign without perturbing
  // which later reads fault. Nestable; not a fairness point for
  // concurrent readers (they simply observe clean reads while any
  // suspension is alive).
  class Suspend {
   public:
    explicit Suspend(FaultInjector& injector) : injector_(injector) {
      injector_.suspended_.fetch_add(1, std::memory_order_relaxed);
    }
    ~Suspend() {
      injector_.suspended_.fetch_sub(1, std::memory_order_relaxed);
    }
    Suspend(const Suspend&) = delete;
    Suspend& operator=(const Suspend&) = delete;

   private:
    FaultInjector& injector_;
  };

  // Decides this read's fate. `data_size` bounds the mutation (empty
  // partitions cannot be corrupted, only read-errored or delayed).
  // Deterministic per (plan seed, replica, partition); counts fires
  // against the target's budget.
  FaultDecision OnPartitionRead(std::string_view replica,
                                std::size_t partition,
                                std::size_t data_size);

  Stats stats() const;

  // --- Deterministic mutation helpers (also used by corruption-fuzz
  // tests directly, without arming the injector). -----------------------

  // Flips bit `bit % (data.size() * 8)`; no-op on empty data.
  static void FlipBit(Bytes& data, std::uint64_t bit);
  // Cuts `data` to `data.size() % ...`-derived shorter length; always
  // removes at least one byte from non-empty data.
  static void Truncate(Bytes& data, std::uint64_t salt);
  // Zeroes the tail starting at a salt-derived offset (torn write).
  static void ZeroTail(Bytes& data, std::uint64_t salt);
  // Applies `kind` (a corruption kind) to `data` at a salt-derived
  // position. kReadError/kLatency are not mutations and are rejected.
  static void ApplyMutation(Bytes& data, FaultKind kind, std::uint64_t salt);
  // Loads `path`, applies the mutation, writes it back. For fuzzing
  // persisted stores (BlotStore::Load robustness tests).
  static void CorruptFile(const std::filesystem::path& path, FaultKind kind,
                          std::uint64_t salt);

 private:
  struct TargetKey {
    std::uint64_t domain_hash = 0;
    std::uint64_t partition = 0;
    friend bool operator==(const TargetKey&, const TargetKey&) = default;
  };
  struct TargetKeyHash {
    std::size_t operator()(const TargetKey& k) const;
  };

  std::atomic<bool> armed_{false};
  std::atomic<int> suspended_{0};
  mutable std::mutex mutex_;
  FaultPlan plan_;
  std::unordered_map<TargetKey, std::size_t, TargetKeyHash> fires_;
  // Per-target read sequence numbers: the spike distribution draws per
  // read, and determinism requires the draw to depend on the read's
  // position in the target's read history, not wall time.
  std::unordered_map<TargetKey, std::uint64_t, TargetKeyHash> reads_;
  Stats stats_;
};

}  // namespace blot

#endif  // BLOT_CORE_FAULT_INJECTION_H_
