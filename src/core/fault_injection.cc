#include "core/fault_injection.h"

#include <algorithm>
#include <cmath>
#include <fstream>

#include "util/error.h"

namespace blot {
namespace {

// SplitMix64: the mixing function behind all deterministic decisions
// here, chosen so a (seed, domain, partition) triple always lands on the
// same fault regardless of read order or thread interleaving.
std::uint64_t Mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

std::uint64_t HashString(std::string_view s) {
  std::uint64_t h = 0xCBF29CE484222325ull;  // FNV-1a
  for (const char c : s) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001B3ull;
  }
  return h;
}

}  // namespace

std::string_view FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kBitFlip:
      return "bitflip";
    case FaultKind::kTruncate:
      return "truncate";
    case FaultKind::kTornRead:
      return "torn";
    case FaultKind::kReadError:
      return "readerror";
    case FaultKind::kLatency:
      return "latency";
  }
  throw InvalidArgument("FaultKindName: unknown kind");
}

namespace {

FaultKind FaultKindFromName(const std::string& name) {
  for (const FaultKind kind :
       {FaultKind::kBitFlip, FaultKind::kTruncate, FaultKind::kTornRead,
        FaultKind::kReadError, FaultKind::kLatency}) {
    if (name == FaultKindName(kind)) return kind;
  }
  throw InvalidArgument("ParseFaultSpec: unknown fault kind: " + name);
}

// std::stoull/stod throw std:: exceptions on malformed input; the spec
// grammar promises InvalidArgument for every parse failure.
std::uint64_t ParseU64(const std::string& key, const std::string& value) {
  try {
    std::size_t consumed = 0;
    const std::uint64_t parsed = std::stoull(value, &consumed);
    require(consumed == value.size(),
            "ParseFaultSpec: trailing junk in " + key + ": " + value);
    return parsed;
  } catch (const Error&) {
    throw;
  } catch (const std::exception&) {
    throw InvalidArgument("ParseFaultSpec: bad number for " + key + ": " +
                          value);
  }
}

double ParseF64(const std::string& key, const std::string& value) {
  try {
    std::size_t consumed = 0;
    const double parsed = std::stod(value, &consumed);
    require(consumed == value.size(),
            "ParseFaultSpec: trailing junk in " + key + ": " + value);
    return parsed;
  } catch (const Error&) {
    throw;
  } catch (const std::exception&) {
    throw InvalidArgument("ParseFaultSpec: bad number for " + key + ": " +
                          value);
  }
}

std::vector<std::string> SplitOn(const std::string& s, char sep) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  while (start <= s.size()) {
    const std::size_t end = s.find(sep, start);
    parts.push_back(s.substr(
        start, end == std::string::npos ? std::string::npos : end - start));
    if (end == std::string::npos) break;
    start = end + 1;
  }
  return parts;
}

}  // namespace

FaultPlan ParseFaultSpec(const std::string& spec) {
  FaultPlan plan;
  for (const std::string& pair : SplitOn(spec, ';')) {
    if (pair.empty()) continue;
    const std::size_t eq = pair.find('=');
    require(eq != std::string::npos,
            "ParseFaultSpec: expected key=value, got: " + pair);
    const std::string key = pair.substr(0, eq);
    const std::string value = pair.substr(eq + 1);
    require(!value.empty(), "ParseFaultSpec: empty value for " + key);
    if (key == "seed") {
      plan.seed = ParseU64(key, value);
    } else if (key == "p") {
      plan.probability = ParseF64(key, value);
      require(plan.probability >= 0.0 && plan.probability <= 1.0,
              "ParseFaultSpec: p must be in [0, 1]");
    } else if (key == "kinds") {
      plan.kinds.clear();
      for (const std::string& name : SplitOn(value, ','))
        plan.kinds.push_back(FaultKindFromName(name));
      require(!plan.kinds.empty(), "ParseFaultSpec: empty kinds list");
    } else if (key == "replica") {
      plan.replica = value;
    } else if (key == "partition") {
      plan.partition = static_cast<std::size_t>(ParseU64(key, value));
    } else if (key == "fires") {
      plan.max_fires_per_target =
          static_cast<std::size_t>(ParseU64(key, value));
    } else if (key == "latency") {
      const std::vector<std::string> parts = SplitOn(value, ':');
      if (parts.size() == 1) {
        // Scalar grammar, unchanged: fixed delay in ms.
        plan.latency_dist = FaultPlan::LatencyDist::kFixed;
        plan.latency_ms = static_cast<std::uint32_t>(ParseU64(key, value));
      } else if (parts[0] == "pareto") {
        require(parts.size() == 3,
                "ParseFaultSpec: latency=pareto wants pareto:MIN:MAX, got: " +
                    value);
        plan.latency_dist = FaultPlan::LatencyDist::kPareto;
        plan.latency_min = ParseF64("latency min", parts[1]);
        plan.latency_max = ParseF64("latency max", parts[2]);
        require(plan.latency_min > 0.0 &&
                    plan.latency_min <= plan.latency_max,
                "ParseFaultSpec: latency=pareto wants 0 < MIN <= MAX");
      } else if (parts[0] == "spike") {
        require(parts.size() == 3,
                "ParseFaultSpec: latency=spike wants spike:MS:PROB, got: " +
                    value);
        plan.latency_dist = FaultPlan::LatencyDist::kSpike;
        plan.latency_min = ParseF64("latency ms", parts[1]);
        plan.spike_probability = ParseF64("spike probability", parts[2]);
        require(plan.latency_min > 0.0,
                "ParseFaultSpec: latency=spike wants MS > 0");
        require(plan.spike_probability >= 0.0 &&
                    plan.spike_probability <= 1.0,
                "ParseFaultSpec: spike probability must be in [0, 1]");
      } else {
        throw InvalidArgument(
            "ParseFaultSpec: unknown latency distribution: " + parts[0]);
      }
    } else {
      throw InvalidArgument("ParseFaultSpec: unknown key: " + key);
    }
  }
  return plan;
}

FaultInjector& FaultInjector::Global() {
  static FaultInjector* injector = new FaultInjector();
  return *injector;
}

std::size_t FaultInjector::TargetKeyHash::operator()(
    const TargetKey& k) const {
  return static_cast<std::size_t>(Mix64(k.domain_hash ^ Mix64(k.partition)));
}

void FaultInjector::Arm(const FaultPlan& plan) {
  require(!plan.kinds.empty(), "FaultInjector::Arm: empty kinds list");
  std::lock_guard lock(mutex_);
  plan_ = plan;
  fires_.clear();
  reads_.clear();
  stats_ = Stats{};
  armed_.store(true, std::memory_order_release);
}

void FaultInjector::Disarm() {
  armed_.store(false, std::memory_order_release);
}

FaultDecision FaultInjector::OnPartitionRead(std::string_view replica,
                                             std::size_t partition,
                                             std::size_t data_size) {
  FaultDecision decision;
  if (!enabled()) return decision;
  if (suspended_.load(std::memory_order_relaxed) > 0) return decision;
  std::lock_guard lock(mutex_);
  if (!armed_.load(std::memory_order_relaxed)) return decision;
  if (!plan_.replica.empty() && plan_.replica != replica) return decision;
  if (plan_.partition.has_value() && *plan_.partition != partition)
    return decision;

  const std::uint64_t domain_hash = HashString(replica);
  const std::uint64_t target =
      Mix64(plan_.seed ^ Mix64(domain_hash) ^ Mix64(partition));
  // Per-target arming draw: the same target is faulty (or not) for the
  // plan's whole lifetime.
  const double draw =
      static_cast<double>(target >> 11) * 0x1.0p-53;  // uniform [0, 1)
  if (draw >= plan_.probability) return decision;

  decision.kind = plan_.kinds[Mix64(target) % plan_.kinds.size()];
  const bool is_corruption = decision.kind == FaultKind::kBitFlip ||
                             decision.kind == FaultKind::kTruncate ||
                             decision.kind == FaultKind::kTornRead;
  // Nothing to corrupt in an empty storage unit.
  if (is_corruption && data_size == 0) return decision;

  const TargetKey key{domain_hash, partition};
  std::uint64_t latency_param = plan_.latency_ms;
  if (decision.kind == FaultKind::kLatency) {
    switch (plan_.latency_dist) {
      case FaultPlan::LatencyDist::kFixed:
        break;
      case FaultPlan::LatencyDist::kPareto: {
        // Deterministic per-target bounded Pareto draw (alpha 1.5):
        // most targets sit near latency_min, a reproducible few near
        // latency_max.
        constexpr double kAlpha = 1.5;
        const double u =
            static_cast<double>(Mix64(target ^ 0x70617265746Full) >> 11) *
            0x1.0p-53;
        double ms = plan_.latency_min / std::pow(1.0 - u, 1.0 / kAlpha);
        ms = std::min(ms, plan_.latency_max);
        latency_param = static_cast<std::uint64_t>(
            std::max(1.0, std::llround(ms) * 1.0));
        break;
      }
      case FaultPlan::LatencyDist::kSpike: {
        // Per-read draw, BEFORE the fires budget: a non-spiking read is
        // not a fault and must not consume the target's budget. The
        // sequence number makes the draw deterministic in read order.
        const std::uint64_t seq = reads_[key]++;
        const double read_draw =
            static_cast<double>(Mix64(target ^ Mix64(seq) ^
                                      0x7370696B65ull) >>
                                11) *
            0x1.0p-53;
        if (read_draw >= plan_.spike_probability) return decision;
        latency_param = static_cast<std::uint64_t>(
            std::max(1.0, std::llround(plan_.latency_min) * 1.0));
        break;
      }
    }
  }
  std::size_t& fired = fires_[key];
  if (plan_.max_fires_per_target != 0 &&
      fired >= plan_.max_fires_per_target)
    return decision;
  ++fired;

  decision.fire = true;
  decision.param = decision.kind == FaultKind::kLatency
                       ? latency_param
                       : Mix64(target ^ 0xA5A5A5A5A5A5A5A5ull);
  ++stats_.fired_total;
  if (fired == 1) ++stats_.targets_hit;
  switch (decision.kind) {
    case FaultKind::kBitFlip:
      ++stats_.bit_flips;
      break;
    case FaultKind::kTruncate:
      ++stats_.truncations;
      break;
    case FaultKind::kTornRead:
      ++stats_.torn_reads;
      break;
    case FaultKind::kReadError:
      ++stats_.read_errors;
      break;
    case FaultKind::kLatency:
      ++stats_.latency_spikes;
      break;
  }
  return decision;
}

FaultInjector::Stats FaultInjector::stats() const {
  std::lock_guard lock(mutex_);
  return stats_;
}

void FaultInjector::FlipBit(Bytes& data, std::uint64_t bit) {
  if (data.empty()) return;
  const std::uint64_t index = bit % (data.size() * 8);
  data[index / 8] ^= static_cast<std::uint8_t>(1u << (index % 8));
}

void FaultInjector::Truncate(Bytes& data, std::uint64_t salt) {
  if (data.empty()) return;
  // Keep a salt-derived prefix, always dropping at least one byte.
  data.resize(salt % data.size());
}

void FaultInjector::ZeroTail(Bytes& data, std::uint64_t salt) {
  if (data.empty()) return;
  const std::size_t from = salt % data.size();
  std::fill(data.begin() + static_cast<std::ptrdiff_t>(from), data.end(),
            std::uint8_t{0});
}

void FaultInjector::ApplyMutation(Bytes& data, FaultKind kind,
                                  std::uint64_t salt) {
  switch (kind) {
    case FaultKind::kBitFlip:
      FlipBit(data, salt);
      return;
    case FaultKind::kTruncate:
      Truncate(data, salt);
      return;
    case FaultKind::kTornRead:
      ZeroTail(data, salt);
      return;
    case FaultKind::kReadError:
    case FaultKind::kLatency:
      break;
  }
  throw InvalidArgument("FaultInjector::ApplyMutation: not a corruption kind");
}

void FaultInjector::CorruptFile(const std::filesystem::path& path,
                                FaultKind kind, std::uint64_t salt) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) throw ReadError("CorruptFile: cannot open " + path.string());
  Bytes data((std::istreambuf_iterator<char>(in)),
             std::istreambuf_iterator<char>());
  in.close();
  ApplyMutation(data, kind, salt);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  require(out.good(), "CorruptFile: cannot write " + path.string());
  out.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(data.size()));
}

}  // namespace blot
