#include "core/health.h"

#include <algorithm>

#include "util/error.h"

namespace blot {

void HealthMap::AddReplica(std::size_t num_partitions) {
  std::lock_guard lock(mutex_);
  states_.emplace_back(num_partitions, PartitionHealth::kOk);
  unhealthy_.push_back(std::make_unique<std::atomic<std::size_t>>(0));
}

void HealthMap::ResetReplica(std::size_t replica,
                             std::size_t num_partitions) {
  std::lock_guard lock(mutex_);
  require(replica < states_.size(), "HealthMap::ResetReplica: bad replica");
  quarantined_.fetch_sub(
      static_cast<std::size_t>(std::count(states_[replica].begin(),
                                          states_[replica].end(),
                                          PartitionHealth::kQuarantined)),
      std::memory_order_relaxed);
  states_[replica].assign(num_partitions, PartitionHealth::kOk);
  unhealthy_[replica]->store(0, std::memory_order_relaxed);
}

std::size_t HealthMap::NumReplicas() const {
  std::lock_guard lock(mutex_);
  return states_.size();
}

PartitionHealth HealthMap::Get(std::size_t replica,
                               std::size_t partition) const {
  std::lock_guard lock(mutex_);
  require(replica < states_.size() && partition < states_[replica].size(),
          "HealthMap::Get: bad target");
  return states_[replica][partition];
}

bool HealthMap::Quarantine(std::size_t replica, std::size_t partition) {
  std::lock_guard lock(mutex_);
  require(replica < states_.size() && partition < states_[replica].size(),
          "HealthMap::Quarantine: bad target");
  PartitionHealth& state = states_[replica][partition];
  if (state == PartitionHealth::kQuarantined) return false;
  unhealthy_[replica]->fetch_add(1, std::memory_order_relaxed);
  quarantined_.fetch_add(1, std::memory_order_relaxed);
  state = PartitionHealth::kQuarantined;
  return true;
}

void HealthMap::MarkOk(std::size_t replica, std::size_t partition) {
  std::lock_guard lock(mutex_);
  require(replica < states_.size() && partition < states_[replica].size(),
          "HealthMap::MarkOk: bad target");
  PartitionHealth& state = states_[replica][partition];
  if (state == PartitionHealth::kQuarantined) {
    unhealthy_[replica]->fetch_sub(1, std::memory_order_relaxed);
    quarantined_.fetch_sub(1, std::memory_order_relaxed);
  }
  state = PartitionHealth::kOk;
}

bool HealthMap::AllOk(std::size_t replica) const {
  return unhealthy_[replica]->load(std::memory_order_relaxed) == 0;
}

bool HealthMap::AnyQuarantined(
    std::size_t replica, const std::vector<std::size_t>& partitions) const {
  std::lock_guard lock(mutex_);
  require(replica < states_.size(), "HealthMap::AnyQuarantined: bad replica");
  const std::vector<PartitionHealth>& states = states_[replica];
  return std::any_of(partitions.begin(), partitions.end(),
                     [&states](std::size_t p) {
                       return states[p] == PartitionHealth::kQuarantined;
                     });
}

std::vector<HealthMap::Target> HealthMap::Quarantined() const {
  std::lock_guard lock(mutex_);
  std::vector<Target> out;
  for (std::size_t r = 0; r < states_.size(); ++r)
    for (std::size_t p = 0; p < states_[r].size(); ++p)
      if (states_[r][p] == PartitionHealth::kQuarantined)
        out.push_back({r, p});
  return out;
}

std::size_t HealthMap::QuarantinedCount() const {
  return quarantined_.load(std::memory_order_relaxed);
}

HealthMap::Counts HealthMap::CountsFor(std::size_t replica) const {
  std::lock_guard lock(mutex_);
  require(replica < states_.size(), "HealthMap::CountsFor: bad replica");
  Counts counts;
  for (const PartitionHealth state : states_[replica])
    ++(state == PartitionHealth::kOk ? counts.ok : counts.quarantined);
  return counts;
}

}  // namespace blot
