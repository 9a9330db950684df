#include "core/store.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <exception>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>

#include "blot/batch.h"
#include "blot/partitioner.h"
#include "blot/segment_store.h"
#include "core/partition_cache.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "util/bytes.h"
#include "util/error.h"

namespace blot {
namespace {

// Estimate-vs-actual cost error is unbounded above (the estimate models a
// cluster environment, the measurement is this process; relative to the
// measurement it reaches 1e7 % and more), so the error histogram gets
// wide percentage buckets instead of latency buckets.
obs::Histogram& CostErrorHistogram() {
  static obs::Histogram& histogram =
      obs::MetricsRegistry::global().GetHistogram(
          "query.cost_error_pct", {},
          {1, 2, 5, 10, 25, 50, 75, 90, 100, 250, 500, 1000, 10000,
           100000, 1000000, 10000000, 100000000});
  return histogram;
}

// Adds `n` to the registry counter `name` (callers check enabled()).
void Count(std::string_view name, std::uint64_t n = 1) {
  obs::MetricsRegistry::global().GetCounter(name).Increment(n);
}

// Background tasks (kBackground repair sweeps, hedge attempts) in flight
// across all stores; back to 0 once every task has been reaped.
obs::Gauge& BackgroundInflight() {
  static obs::Gauge& gauge =
      obs::MetricsRegistry::global().GetGauge("store.background_inflight");
  return gauge;
}

// Renders a partition list as "3,17,42" for event fields. A mass
// quarantine can name hundreds of partitions; the field keeps the first
// few for orientation and summarizes the rest, so one incident never
// bloats the log.
std::string PartitionList(const std::vector<std::size_t>& partitions) {
  constexpr std::size_t kMaxListed = 16;
  std::string out;
  for (std::size_t i = 0; i < partitions.size() && i < kMaxListed; ++i) {
    if (!out.empty()) out += ",";
    out += std::to_string(partitions[i]);
  }
  if (partitions.size() > kMaxListed)
    out += ",+" + std::to_string(partitions.size() - kMaxListed) + " more";
  return out;
}

// Records quarantine transitions into the quarantine.* metrics and
// emits a typed `quarantine` event naming the affected partitions.
void RecordQuarantine(std::string_view replica_name,
                      const std::vector<std::size_t>& partitions,
                      std::size_t newly_quarantined, std::size_t active) {
  auto& registry = obs::MetricsRegistry::global();
  if (registry.enabled()) {
    Count("quarantine.partitions_total", newly_quarantined);
    registry.GetGauge("quarantine.active").Set(static_cast<double>(active));
  }
  obs::EventLog& log = obs::EventLog::Global();
  if (log.enabled() && newly_quarantined > 0) {
    log.Warn("quarantine", "partitions quarantined",
             {obs::Field("replica", std::string(replica_name)),
              obs::Field("partitions", PartitionList(partitions)),
              obs::Field("newly_quarantined", newly_quarantined),
              obs::Field("active_quarantined", active)});
  }
}

// Quarantines exactly the storage units a read fault names (replica
// `index` of the store) and drops their cached decodes.
void QuarantineFault(HealthMap& health, std::size_t index,
                     const Replica& replica, const PartitionFaultError& e) {
  std::size_t newly_quarantined = 0;
  for (const std::size_t p : e.partitions()) {
    if (health.Quarantine(index, p)) ++newly_quarantined;
    PartitionCache::Global().Invalidate(replica.cache_id(), p);
  }
  RecordQuarantine(replica.config().Name(), e.partitions(), newly_quarantined,
                   health.QuarantinedCount());
}

// Total order over records so multiset containment can be checked by a
// sorted two-pointer sweep.
bool RecordLess(const Record& a, const Record& b) {
  return std::tie(a.time, a.x, a.y, a.oid, a.speed, a.heading, a.status,
                  a.passengers, a.fare_cents) <
         std::tie(b.time, b.x, b.y, b.oid, b.speed, b.heading, b.status,
                  b.passengers, b.fare_cents);
}

// True iff every record of `expected` occurs in `fetched` (multiset
// semantics: duplicates must be present at least as many times).
bool MultisetContains(std::vector<Record> fetched,
                      std::vector<Record> expected) {
  std::sort(fetched.begin(), fetched.end(), RecordLess);
  std::sort(expected.begin(), expected.end(), RecordLess);
  return std::includes(fetched.begin(), fetched.end(), expected.begin(),
                       expected.end(), RecordLess);
}

}  // namespace

BlotStore::BlotStore(Dataset dataset, std::optional<STRange> universe)
    : dataset_(std::move(dataset)) {
  require(!dataset_.empty(), "BlotStore: empty dataset");
  universe_ = universe.value_or(dataset_.BoundingBox());
  for (const Record& r : dataset_.records())
    require(universe_.Contains(r.Position()),
            "BlotStore: record outside universe");
}

BlotStore::~BlotStore() {
  if (sync_ != nullptr) WaitForRepairs();
}

BlotStore::BlotStore(BlotStore&& other) noexcept {
  *this = std::move(other);
}

BlotStore& BlotStore::operator=(BlotStore&& other) noexcept {
  if (this == &other) return *this;
  // Both sides drain: `other`'s tasks hold its address (about to be
  // gutted), and this store's tasks hold ours (whose state is about to
  // be replaced).
  if (sync_ != nullptr) WaitForRepairs();
  if (other.sync_ != nullptr) other.WaitForRepairs();
  dataset_ = std::move(other.dataset_);
  universe_ = other.universe_;
  replicas_ = std::move(other.replicas_);
  sketches_ = std::move(other.sketches_);
  policy_ = other.policy_;
  health_ = std::move(other.health_);
  latency_ = std::move(other.latency_);
  sync_ = std::move(other.sync_);
  return *this;
}

FailoverPolicy BlotStore::failover_policy() const {
  std::shared_lock lock(sync_->state_mutex);
  return policy_;
}

void BlotStore::SetFailoverPolicy(const FailoverPolicy& policy) {
  std::unique_lock lock(sync_->state_mutex);
  policy_ = policy;
}

void BlotStore::SyncState::BeginBackground() {
  BackgroundInflight().Add(1.0);
  std::lock_guard lock(inflight_mutex);
  ++inflight;
}

void BlotStore::SyncState::EndBackground() {
  BackgroundInflight().Add(-1.0);
  // Notify under the lock: once it is released the waiter may destroy
  // this state, so nothing here may touch it afterwards.
  std::lock_guard lock(inflight_mutex);
  if (--inflight == 0) inflight_cv.notify_all();
}

void BlotStore::WaitForRepairs() {
  std::unique_lock lock(sync_->inflight_mutex);
  sync_->inflight_cv.wait(lock, [this] { return sync_->inflight == 0; });
}

ThreadPool& BlotStore::AttemptExecutor() {
  std::call_once(sync_->executor_once, [this] {
    sync_->executor = std::make_unique<ThreadPool>(kAttemptThreads, "attempt");
  });
  return *sync_->executor;
}

std::size_t BlotStore::AddReplica(const ReplicaConfig& config,
                                  ThreadPool* pool) {
  std::unique_lock lock(sync_->state_mutex);
  for (const Replica& existing : replicas_)
    require(!(existing.config() == config &&
              existing.universe() == universe_),
            "BlotStore::AddReplica: duplicate replica " + config.Name());
  return AdoptReplica(Replica::Build(dataset_, config, universe_, pool));
}

std::size_t BlotStore::AddPartialReplica(const ReplicaConfig& config,
                                         const STRange& coverage,
                                         ThreadPool* pool) {
  std::unique_lock lock(sync_->state_mutex);
  require(universe_.Contains(coverage),
          "BlotStore::AddPartialReplica: coverage outside universe");
  require(!(coverage == universe_),
          "BlotStore::AddPartialReplica: coverage is the whole universe; "
          "use AddReplica");
  const Dataset covered(dataset_.FilterByRange(coverage));
  return AdoptReplica(Replica::Build(covered, config, coverage, pool));
}

std::size_t BlotStore::AdoptReplica(Replica replica) {
  replicas_.push_back(std::move(replica));
  sketches_.push_back(ReplicaSketch::FromReplica(replicas_.back()));
  health_->AddReplica(replicas_.back().NumPartitions());
  latency_->AddReplica();
  return replicas_.size() - 1;
}

bool BlotStore::IsFullReplica(std::size_t i) const {
  require(i < replicas_.size(), "BlotStore::IsFullReplica: bad index");
  return replicas_[i].universe() == universe_;
}

const Replica& BlotStore::replica(std::size_t i) const {
  require(i < replicas_.size(), "BlotStore::replica: bad index");
  return replicas_[i];
}

Replica& BlotStore::mutable_replica(std::size_t i) {
  require(i < replicas_.size(), "BlotStore::mutable_replica: bad index");
  return replicas_[i];
}

std::uint64_t BlotStore::TotalStorageBytes() const {
  std::uint64_t total = 0;
  for (const Replica& r : replicas_) total += r.StorageBytes();
  return total;
}

BlotStore::Ranking BlotStore::RankCandidates(const STRange& query,
                                             const CostModel& model,
                                             bool bounded) const {
  Ranking out;
  // (adjusted cost, decision with the raw estimate): brownout penalties
  // steer the ordering but must not distort the reported estimate.
  std::vector<std::pair<double, RoutingDecision>> scored;
  double best = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < sketches_.size(); ++i) {
    // Full replicas can serve anything; partial replicas only queries
    // entirely inside their coverage.
    if (!IsFullReplica(i) && !replicas_[i].universe().Contains(query))
      continue;
    ++out.covering;
    // Brownout: a replica whose observed reads run far slower than its
    // peers' is deprioritized (not quarantined — slow is not corrupt).
    const double penalty = latency_->BrownoutPenalty(i);
    std::size_t np = 0;  // the estimate's own walk counts Np
    const double cost = model.QueryCostMs(
        sketches_[i], query, &np,
        bounded ? best : std::numeric_limits<double>::infinity(), penalty);
    const RoutingDecision decision{i, cost, np};
    std::vector<std::size_t> lost;
    if (!health_->AllOk(i)) {
      for (const std::size_t p : sketches_[i].index.InvolvedPartitions(query))
        if (health_->Get(i, p) == PartitionHealth::kQuarantined)
          lost.push_back(p);
    }
    if (!bounded &&
        (!out.fallback || lost.size() < out.lost.size() ||
         (lost.size() == out.lost.size() &&
          cost < out.fallback->estimated_cost_ms))) {
      out.fallback = decision;
      out.lost = lost;
    }
    if (!lost.empty()) continue;
    ++out.healthy;
    const double score = cost * penalty;
    if (bounded && score > best) continue;  // pruned, or complete and worse
    best = std::min(best, score);
    scored.push_back({score, decision});
  }
  std::sort(scored.begin(), scored.end(),
            [](const auto& a, const auto& b) {
              if (a.first != b.first) return a.first < b.first;
              return a.second.replica_index < b.second.replica_index;
            });
  // Bounded, only the front is sure to be exact and in place.
  if (bounded && scored.size() > 1) scored.resize(1);
  out.ranked.reserve(scored.size());
  for (auto& [adjusted, decision] : scored) out.ranked.push_back(decision);
  return out;
}

QueryFailedError BlotStore::UnservableError(const STRange& query) const {
  std::vector<QueryFailedError::Lost> lost;
  std::string what =
      "BlotStore: query unservable — every covering replica's copy of a "
      "needed partition is quarantined:";
  for (std::size_t i = 0; i < replicas_.size(); ++i) {
    if (!IsFullReplica(i) && !replicas_[i].universe().Contains(query))
      continue;
    for (std::size_t p : sketches_[i].index.InvolvedPartitions(query)) {
      if (health_->Get(i, p) != PartitionHealth::kQuarantined) continue;
      lost.push_back({i, p});
      what += " [" + replicas_[i].config().Name() + " partition " +
              std::to_string(p) + "]";
    }
  }
  if (lost.empty())
    what = "BlotStore: query unservable — all covering replicas failed";
  return QueryFailedError(what, std::move(lost));
}

BlotStore::RoutingDecision BlotStore::BestCandidate(
    const STRange& query, const CostModel& model) const {
  const Ranking ranking = RankCandidates(query, model, /*bounded=*/true);
  require(ranking.covering > 0,
          "BlotStore::RouteQuery: no replica can serve the query (add a "
          "full replica)");
  if (ranking.ranked.empty()) throw UnservableError(query);
  return ranking.ranked.front();
}

BlotStore::RoutingDecision BlotStore::RouteQueryDetailed(
    const STRange& query, const CostModel& model) const {
  require(!replicas_.empty(), "BlotStore::RouteQuery: no replicas");
  std::shared_lock lock(sync_->state_mutex);
  return BestCandidate(query, model);
}

std::size_t BlotStore::RouteQuery(const STRange& query,
                                  const CostModel& model) const {
  return RouteQueryDetailed(query, model).replica_index;
}

// The outcome of one execution attempt.
struct BlotStore::Attempt {
  enum class Status { kOk, kTruncated, kFault };
  Status status = Status::kFault;
  QueryResult result;
  double ms = 0.0;            // wall time of the attempt
  std::string error;          // fault text, or why the scan stopped short
  obs::QueryProfile profile;  // this attempt's scan sub-stages
  std::exception_ptr exception;  // anything but a read fault; rethrown
};

void BlotStore::RunAttempt(const STRange& query,
                           const RoutingDecision& decision,
                           const ScanOptions& scan, Attempt& out) {
  const std::size_t replica = decision.replica_index;
  const std::uint64_t start_ns = obs::MonotonicNanos();
  std::shared_lock lock(sync_->state_mutex);
  const Replica& rep = replicas_[replica];
  try {
    out.result = rep.Execute(query, scan);
    out.status = out.result.truncated ? Attempt::Status::kTruncated
                                      : Attempt::Status::kOk;
  } catch (const PartitionFaultError& e) {
    QuarantineFault(*health_, replica, rep, e);
    out.status = Attempt::Status::kFault;
    out.error = e.what();
  }
  out.ms = double(obs::MonotonicNanos() - start_ns) * 1e-6;
  // Only complete scans teach the latency map and the model residual: a
  // cancelled scan's wall time reflects the budget or the race, not the
  // replica's speed.
  if (out.status == Attempt::Status::kOk)
    latency_->Observe(replica, out.result.stats.partitions_scanned, out.ms,
                      decision.estimated_cost_ms);
  else if (out.status == Attempt::Status::kTruncated)
    out.error = "cancelled mid-scan";
}

BlotStore::RoutedResult BlotStore::Coordinate(const STRange& query,
                                              const CostModel& model,
                                              ThreadPool* pool,
                                              QueryContext& ctx) {
  using Clock = std::chrono::steady_clock;
  obs::EventLog& log = obs::EventLog::Global();

  // Route by branch and bound, under the same lock as the per-query
  // policy snapshot (retunes never tear a query) and the replica names
  // (naming an attempt never needs the store after the attempt was
  // abandoned).
  FailoverPolicy policy;
  Ranking ranking;
  std::vector<std::string> names;  // by replica index
  const std::uint64_t route_start = obs::MonotonicNanos();
  {
    std::shared_lock lock(sync_->state_mutex);
    policy = policy_;
    ranking = RankCandidates(query, model, /*bounded=*/true);
    for (const Replica& rep : replicas_) names.push_back(rep.config().Name());
  }
  const std::size_t max_attempts =
      std::max<std::size_t>(std::size_t{1}, policy.max_attempts);
  const double route_ms = double(obs::MonotonicNanos() - route_start) * 1e-6;
  if (ctx.profiling) ctx.profile.AddStage(obs::Stage::kRoute, route_ms);
  require(ranking.covering > 0,
          "BlotStore::RouteQuery: no replica can serve the query (add a "
          "full replica)");
  // The plan starts as the winner alone; the rest is ranked in full only
  // when the first failover or hedge needs the next candidate.
  std::vector<RoutingDecision> ranked = std::move(ranking.ranked);
  const RoutingDecision first =
      ranked.empty() ? RoutingDecision{} : ranked.front();
  bool ranked_in_full = ranked.size() == ranking.healthy;
  // Attempts on healthy candidates the budget allows.
  const std::size_t budget = std::min(max_attempts, ranking.healthy);

  // One slot per launched attempt. The board is shared with the attempts
  // (a cancelled loser may still be writing its slot after the query
  // returned): `attempt` and `done` are guarded by `mutex`, the other
  // fields belong to this thread.
  struct Slot {
    Attempt attempt;
    bool done = false;
    bool collected = false;  // `done` observed; `attempt` is ours to read
    RoutingDecision decision;
    CancelToken token;
    Clock::time_point hedge_at;  // when running alone fires the hedge
  };
  struct Board {
    std::mutex mutex;
    std::condition_variable cv;
    std::vector<Slot> slots;
  };
  auto board = std::make_shared<Board>();
  // Every candidate the budget allows, plus the degraded scan.
  board->slots.resize(budget + 1);
  std::size_t launched = 0;
  std::vector<std::size_t> running;  // launched, not yet collected
  // A hedge needs a second candidate and a budget to race it with.
  const bool hedging =
      ctx.hedge_ms > 0.0 && ranking.healthy >= 2 && max_attempts >= 2;
  ScanOptions scan;
  scan.pool = pool;

  // Runs inline when no hedge can fire. Otherwise the attempt is a task
  // on the store's executor under a child token, which observes the
  // query's deadline but cancels alone (stopping a loser never touches
  // the winner). The degraded scan always runs inline: its
  // `exclude_partitions` points into this frame.
  auto launch = [&](const RoutingDecision& decision, ScanOptions options) {
    const std::size_t index = launched++;
    Slot& slot = board->slots[index];
    slot.decision = decision;
    running.push_back(index);
    const bool inline_run = !hedging || options.exclude_partitions != nullptr;
    slot.token = inline_run ? ctx.cancel : ctx.cancel.Child();
    if (!inline_run) {
      const std::chrono::duration<double, std::milli> hedge_after(std::max(
          ctx.hedge_ms, 2.0 * latency_->ExpectedMs(
                                  decision.replica_index,
                                  decision.predicted_partitions)));
      slot.hedge_at = Clock::now() +
                      std::chrono::duration_cast<Clock::duration>(hedge_after);
    }
    auto run = [this, board, query, options, index, token = slot.token,
                decision, profiling = ctx.profiling]() mutable {
      Attempt out;
      options.cancel = token.valid() ? &token : nullptr;
      options.profile = profiling ? &out.profile : nullptr;
      try {
        RunAttempt(query, decision, options, out);
      } catch (...) {
        out.exception = std::current_exception();
      }
      {
        std::lock_guard lock(board->mutex);
        board->slots[index].attempt = std::move(out);
        board->slots[index].done = true;
      }
      board->cv.notify_all();
    };
    if (inline_run) return run();
    sync_->BeginBackground();
    AttemptExecutor().Submit([this, run]() mutable {
      run();
      sync_->EndBackground();
    });
  };

  // The next candidate worth an attempt: within the budget, before the
  // deadline, not launched yet, and not quarantined since the ranking (an
  // earlier attempt's fault may have hit a copy this candidate needs).
  std::size_t cursor = 0;
  auto next_candidate = [&]() -> const RoutingDecision* {
    while (launched < budget && !ctx.cancel.ShouldStop()) {
      if (cursor == ranked.size()) {
        if (ranked_in_full) return nullptr;
        ranked_in_full = true;
        Ranking full;
        {
          std::shared_lock lock(sync_->state_mutex);
          full = RankCandidates(query, model, /*bounded=*/false);
        }
        ranked.clear();
        cursor = 0;
        for (const RoutingDecision& decision : full.ranked) {
          const auto slots = board->slots.begin();
          if (std::none_of(slots, slots + launched, [&](const Slot& slot) {
                return slot.decision.replica_index == decision.replica_index;
              }))
            ranked.push_back(decision);
        }
        continue;
      }
      const RoutingDecision& decision = ranked[cursor++];
      const std::size_t idx = decision.replica_index;
      if (!health_->AllOk(idx)) {
        std::shared_lock lock(sync_->state_mutex);
        if (health_->AnyQuarantined(
                idx, sketches_[idx].index.InvolvedPartitions(query)))
          continue;
      }
      return &decision;
    }
    return nullptr;
  };

  // Walk the plan: fail over on faults, hedge once when a lone attempt
  // outlives its threshold, and once no healthy candidate is left scan
  // around the quarantined partitions (allow_partial).
  std::optional<std::size_t> winner;    // the complete (or degraded) answer
  std::optional<std::size_t> furthest;  // the deadline-truncated attempt
  std::optional<std::size_t> hedge;     // the attempt the hedge launched
  bool hedge_fired = false;
  bool exhausted = false;
  std::vector<std::size_t> excluded;
  while (!winner) {
    if (running.empty()) {
      if (const RoutingDecision* next = next_candidate()) {
        launch(*next, scan);
      } else if (exhausted || ctx.cancel.ShouldStop()) {
        break;
      } else {
        exhausted = true;
        if (ctx.profiling) Count("failover.exhausted_total");
        if (log.enabled()) {
          log.Emit(obs::EventSeverity::kError, "failover.exhausted",
                   "no healthy replica could serve the query",
                   {obs::Field("attempts", launched),
                    obs::Field("covering_replicas", ranking.covering)});
        }
        if (!ctx.allow_partial) break;
        // The degraded scan, around the quarantined partitions of the
        // replica that now loses the fewest (Ranking::fallback).
        Ranking now;
        {
          std::shared_lock lock(sync_->state_mutex);
          now = RankCandidates(query, model, /*bounded=*/false);
        }
        if (!now.fallback) break;
        excluded = std::move(now.lost);
        std::sort(excluded.begin(), excluded.end());
        ScanOptions options = scan;
        options.exclude_partitions = excluded.empty() ? nullptr : &excluded;
        launch(*now.fallback, options);
      }
    }

    // Wait for an attempt to finish, or for a lone attempt to outlive its
    // hedge threshold.
    std::optional<std::size_t> finished;
    {
      std::unique_lock lock(board->mutex);
      const auto any_done = [&] {
        return std::any_of(running.begin(), running.end(),
                           [&](std::size_t s) { return board->slots[s].done; });
      };
      if (hedging && !hedge_fired && !exhausted && running.size() == 1)
        board->cv.wait_until(lock, board->slots[running.front()].hedge_at,
                             any_done);
      else
        board->cv.wait(lock, any_done);
      for (auto it = running.begin(); it != running.end(); ++it) {
        if (!board->slots[*it].done) continue;
        finished = *it;
        board->slots[*it].collected = true;
        running.erase(it);
        break;
      }
    }
    if (!finished) {  // the hedge timer fired
      hedge_fired = true;
      if (const RoutingDecision* backup = next_candidate()) {
        hedge = launched;
        launch(*backup, scan);
      }
      continue;
    }
    const Attempt& done = board->slots[*finished].attempt;
    if (done.exception) {
      for (const std::size_t s : running)
        board->slots[s].token.Cancel(CancelReason::kAbandoned);
      std::rethrow_exception(done.exception);
    }
    if (done.status == Attempt::Status::kOk ||
        (exhausted && done.status == Attempt::Status::kTruncated)) {
      winner = finished;  // the degraded scan is truncated by design
    } else if (done.status == Attempt::Status::kTruncated) {
      // Stopped by the deadline; the furthest one reports coverage.
      if (!furthest || done.result.served_partitions.size() >
                           board->slots[*furthest]
                               .attempt.result.served_partitions.size())
        furthest = finished;
    } else if (log.enabled()) {
      const std::size_t idx = board->slots[*finished].decision.replica_index;
      log.Warn("failover", "read fault; failing over to next-cheapest replica",
               {obs::Field("replica", names[idx]),
                obs::Field("attempt", *finished + 1),
                obs::Field("error", done.error)});
    }
  }
  // The first complete answer wins: any loser is told to stop. It halts
  // within one block and is reaped when it finishes.
  for (const std::size_t s : running)
    board->slots[s].token.Cancel(CancelReason::kHedgeLost);
  if (ctx.profiling) Count("failover.attempts_total", launched);

  // Finalize: the served answer, or exactly one of the two errors.
  Attempt nothing;  // the deadline answer when no attempt got anywhere
  Attempt* served = nullptr;
  RoutingDecision decision;
  bool degraded = false;
  if (winner || furthest) {  // only the deadline truncates an attempt
    const std::size_t s = winner ? *winner : *furthest;
    served = &board->slots[s].attempt;
    decision = board->slots[s].decision;
    degraded = s != 0 || exhausted;
  } else if (ctx.cancel.DeadlineExpired() && ranking.healthy > 0) {
    // A scan under the expired token reports every involved partition of
    // the best candidate missed.
    decision = first;
    ScanOptions expired = scan;
    expired.cancel = &ctx.cancel;
    RunAttempt(query, decision, expired, nothing);
    served = &nothing;
    degraded = launched > 0;
  } else {
    std::shared_lock lock(sync_->state_mutex);
    throw UnservableError(query);
  }
  if (!winner) {
    if (ctx.profiling) Count("query.deadline_exceeded_total");
    const std::size_t scanned = served->result.served_partitions.size();
    const std::size_t missed = served->result.missed_partitions.size();
    if (!ctx.allow_partial) {
      throw DeadlineExceededError(
          "BlotStore: deadline of " + std::to_string(ctx.deadline_ms) +
              "ms exceeded after " + std::to_string(launched) +
              " attempt(s); scanned " + std::to_string(scanned) + " of " +
              std::to_string(scanned + missed) + " involved partitions",
          ctx.deadline_ms, launched, scanned, missed);
    }
  }

  RoutedResult routed;
  routed.result = std::move(served->result);
  routed.replica_index = decision.replica_index;
  routed.estimated_cost_ms = decision.estimated_cost_ms;
  routed.predicted_partitions = decision.predicted_partitions;
  routed.measured_cost_ms = served->ms;
  routed.served_by = names[decision.replica_index];
  routed.partial = routed.result.truncated;
  routed.attempts = launched;
  routed.degraded = degraded;
  routed.hedged = hedge.has_value();
  routed.hedge_backup_won = hedge && winner == hedge;

  // The attempt log and stage times, in launch order. A hedge loser's
  // time overlapped the answer's: hedge time, not failover.
  for (std::size_t i = 0; i < launched; ++i) {
    const Slot& slot = board->slots[i];
    const std::size_t idx = slot.decision.replica_index;
    const bool serving = &slot.attempt == served;
    const bool faulted =
        slot.collected && slot.attempt.status != Attempt::Status::kOk;
    const double ms = slot.collected ? slot.attempt.ms : 0.0;
    const std::string fault =
        serving ? "" : faulted ? slot.attempt.error : "hedge lost (cancelled)";
    ctx.attempts.push_back({idx, names[idx], ms, serving, fault});
    if (ctx.profiling && slot.collected) {
      ctx.profile.MergeScanFrom(slot.attempt.profile);
      ctx.profile.AddStage(serving   ? obs::Stage::kExecute
                           : faulted ? obs::Stage::kFailover
                                     : obs::Stage::kHedge,
                           ms);
    }
  }
  if (log.enabled() && exhausted && routed.partial) {
    log.Warn("query.partial", "serving partial result around lost partitions",
             {obs::Field("replica", routed.served_by),
              obs::Field("served", routed.result.served_partitions.size()),
              obs::Field("missed",
                         PartitionList(routed.result.missed_partitions))});
  }

  // Synchronous repair runs on this thread; background repair
  // contributes only the submit.
  const std::uint64_t repair_start = obs::MonotonicNanos();
  MaybeScheduleRepairs(pool, policy);
  if (ctx.profiling)
    ctx.profile.AddStage(obs::Stage::kRepair,
                         double(obs::MonotonicNanos() - repair_start) * 1e-6);
  return routed;
}

BlotStore::RoutedResult BlotStore::Execute(const STRange& query,
                                           const CostModel& model,
                                           ThreadPool* pool) {
  ExecOptions options;
  options.pool = pool;
  return Execute(query, model, options);
}

BlotStore::RoutedResult BlotStore::Execute(const STRange& query,
                                           const CostModel& model,
                                           const ExecOptions& options) {
  require(!replicas_.empty(), "BlotStore::RouteQuery: no replicas");
  require(options.deadline_ms >= 0.0 && options.hedge_ms >= 0.0,
          "BlotStore::Execute: negative deadline/hedge threshold");
  // All per-query state lives in the context; this function is
  // re-entrant under N concurrent callers (the serving layer's request
  // workers), who share only the internally synchronized structures.
  QueryContext ctx = QueryContext::ForQuery();
  ctx.deadline_ms = options.deadline_ms;
  ctx.allow_partial = options.allow_partial;
  ctx.hedge_ms = options.hedge_ms;
  if (options.deadline_ms > 0.0)
    ctx.cancel = CancelToken::WithDeadline(options.deadline_ms);
  const std::uint64_t start_ns = ctx.profiling ? obs::MonotonicNanos() : 0;
  RoutedResult routed = Coordinate(query, model, options.pool, ctx);
  if (ctx.profiling)
    ctx.profile.total_ms = double(obs::MonotonicNanos() - start_ns) * 1e-6;
  routed.query_id = ctx.query_id();
  routed.attempt_log = std::move(ctx.attempts);
  routed.profile = std::move(ctx.profile);
  if (ctx.profiling) RecordQuery(routed);
  return routed;
}

void BlotStore::RecordQuery(const RoutedResult& routed) {
  auto& registry = obs::MetricsRegistry::global();
  static obs::Counter& routed_total =
      registry.GetCounter("query.routed_total");
  static obs::Histogram& estimated_ms =
      registry.GetHistogram("query.estimated_cost_ms");
  static obs::Histogram& measured_ms =
      registry.GetHistogram("query.measured_ms");
  static obs::Counter& np_predicted =
      registry.GetCounter("query.partitions_predicted_total");
  static obs::Counter& partitions_scanned =
      registry.GetCounter("query.partitions_scanned_total");
  static obs::Counter& records_scanned =
      registry.GetCounter("query.records_scanned_total");
  static obs::Counter& records_returned =
      registry.GetCounter("query.records_returned_total");
  static obs::Counter& bytes_read =
      registry.GetCounter("query.bytes_read_total");

  routed_total.Increment();
  registry.GetCounter("query.routed_total", {{"replica", routed.served_by}})
      .Increment();
  estimated_ms.Observe(routed.estimated_cost_ms);
  measured_ms.Observe(routed.measured_cost_ms);
  // A partial answer's time measures its deadline, not the replica.
  if (!routed.partial && routed.measured_cost_ms > 0)
    CostErrorHistogram().Observe(std::abs(obs::SignedCostErrorPct(
        routed.estimated_cost_ms, routed.measured_cost_ms)));
  np_predicted.Increment(routed.predicted_partitions);
  partitions_scanned.Increment(routed.result.stats.partitions_scanned);
  records_scanned.Increment(routed.result.stats.records_scanned);
  records_returned.Increment(routed.result.records.size());
  bytes_read.Increment(routed.result.stats.bytes_read);
  if (routed.partial) Count("query.partial_total");
  if (routed.degraded) Count("failover.queries_rerouted_total");
  if (routed.hedged) Count("hedge.fired_total");
  if (routed.hedge_backup_won) Count("hedge.backup_wins_total");
  obs::RecordProfile(routed.profile);  // per-stage histograms
}

void BlotStore::MaybeScheduleRepairs(ThreadPool* pool,
                                     const FailoverPolicy& policy) {
  if (policy.repair == RepairMode::kNone) return;
  if (health_->QuarantinedCount() == 0) return;
  if (policy.repair == RepairMode::kSync || pool == nullptr) {
    RepairQuarantined(pool);
    return;
  }
  sync_->BeginBackground();
  pool->Submit([this] {
    // try_to_lock: a repair task blocking on a query that is itself
    // waiting for pool workers would deadlock the pool; if the store is
    // busy the partitions stay quarantined and the next query
    // reschedules the repair.
    {
      std::unique_lock lock(sync_->state_mutex, std::try_to_lock);
      if (lock.owns_lock()) {
        try {
          RepairQuarantinedLocked(nullptr);
        } catch (...) {
          // A background task must never take the store down; repair
          // failures are already counted in repair.failed_total.
        }
      }
    }
    sync_->EndBackground();
  });
}

std::size_t BlotStore::RepairQuarantined(ThreadPool* pool) {
  std::unique_lock lock(sync_->state_mutex);
  return RepairQuarantinedLocked(pool);
}

std::size_t BlotStore::RepairQuarantinedLocked(ThreadPool* pool) {
  auto& registry = obs::MetricsRegistry::global();
  const std::vector<HealthMap::Target> targets = health_->Quarantined();
  std::size_t repaired = 0;
  for (const HealthMap::Target& target : targets) {
    // A full rebuild triggered by an earlier target may have already
    // healed this one.
    if (health_->Get(target.replica, target.partition) !=
        PartitionHealth::kQuarantined)
      continue;
    try {
      RecoverPartitionLocked(target.replica, target.partition, std::nullopt,
                             pool);
      ++repaired;
    } catch (const Error& e) {
      // No healthy source: the partition stays quarantined; queries keep
      // routing around it and a later repair pass retries.
      if (registry.enabled()) Count("repair.failed_total");
      if (obs::EventLog::Global().enabled()) {
        obs::EventLog::Global().Warn(
            "repair.failed", "partition repair failed; stays quarantined",
            {obs::Field("replica",
                        replicas_[target.replica].config().Name()),
             obs::Field("partition", target.partition),
             obs::Field("error", std::string(e.what()))});
      }
    }
  }
  if (registry.enabled())
    registry.GetGauge("quarantine.active")
        .Set(static_cast<double>(health_->QuarantinedCount()));
  return repaired;
}

std::uint64_t BlotStore::RecoverPartition(std::size_t target,
                                          std::size_t partition,
                                          std::optional<std::size_t> source,
                                          ThreadPool* pool) {
  std::unique_lock lock(sync_->state_mutex);
  return RecoverPartitionLocked(target, partition, source, pool);
}

std::uint64_t BlotStore::RecoverPartitionLocked(
    std::size_t target, std::size_t partition,
    std::optional<std::size_t> source, ThreadPool* pool) {
  require(target < replicas_.size(),
          "BlotStore::RecoverPartition: bad replica index");
  require(!source.has_value() ||
              (*source < replicas_.size() && *source != target),
          "BlotStore::RecoverPartition: bad source index");
  Replica& rep = replicas_[target];
  require(partition < rep.NumPartitions(),
          "BlotStore::RecoverPartition: bad partition");
  auto& registry = obs::MetricsRegistry::global();
  const std::uint64_t start_ns = obs::MonotonicNanos();
  // Sources: the caller's choice, else every other replica covering
  // `range`.
  auto sources_for = [&](const STRange& range) {
    std::vector<std::size_t> sources;
    for (std::size_t r = 0; r < replicas_.size(); ++r)
      if (source ? r == *source
                 : r != target && replicas_[r].universe().Contains(range))
        sources.push_back(r);
    return sources;
  };

  // Membership oracle: which records belong in this partition is decided
  // by the partitioner (equal-count median splits with order-dependent
  // boundary ties), not by geometry alone — so re-run the deterministic
  // partitioning over the same logical input the replica was built from
  // and check it reproduces the replica's layout.
  const bool partial = !(rep.universe() == universe_);
  Dataset covered;
  const Dataset* logical = &dataset_;
  if (partial) {
    covered = Dataset(dataset_.FilterByRange(rep.universe()));
    logical = &covered;
  }
  const PartitionedData oracle =
      PartitionDataset(*logical, rep.config().partitioning, rep.universe());
  bool canonical = oracle.NumPartitions() == rep.NumPartitions() &&
                   logical->size() == rep.NumRecords();
  for (std::size_t p = 0; canonical && p < oracle.NumPartitions(); ++p)
    canonical = oracle.ranges[p] == rep.index().Range(p) &&
                oracle.members[p].size() == rep.partition(p).num_records;

  if (!canonical) {
    // The replica's layout is not re-derivable (e.g. it was previously
    // rebuilt from another replica's record order): rebuild it whole.
    if (registry.enabled()) Count("repair.full_rebuilds_total");
    if (obs::EventLog::Global().enabled()) {
      obs::EventLog::Global().Warn(
          "repair.full_rebuild",
          "partition layout not re-derivable; rebuilding whole replica",
          {obs::Field("replica", rep.config().Name()),
           obs::Field("partition", partition)});
    }
    const std::vector<std::size_t> sources = sources_for(rep.universe());
    require(!sources.empty(),
            "BlotStore::RecoverPartition: no replica covers the target");
    for (std::size_t r : sources) {
      try {
        return RecoverReplicaFromLocked(target, r, pool);
      } catch (const Error&) {
        continue;  // source itself unreadable; try the next one
      }
    }
    throw CorruptData(
        "BlotStore::RecoverPartition: full rebuild of replica " +
        rep.config().Name() + " failed from every source");
  }

  // Expected payload from the logical view; the bytes must still be
  // fetched (and verified) from a healthy replica — diverse replicas
  // recover each other (Section II-E).
  std::vector<Record> expected;
  expected.reserve(oracle.members[partition].size());
  for (const std::uint32_t idx : oracle.members[partition])
    expected.push_back(logical->records()[idx]);
  const STRange needed = rep.index().Range(partition);

  const std::vector<std::size_t> sources = sources_for(needed);
  require(!sources.empty(),
          "BlotStore::RecoverPartition: no replica covers partition " +
              std::to_string(partition));

  for (const std::size_t r : sources) {
    try {
      const QueryResult fetched = replicas_[r].Execute(needed, pool);
      // The source must hold every record of the lost partition (ranges
      // overlap on closed bounds, so it may return extra neighbors).
      if (!MultisetContains(fetched.records, expected)) continue;
    } catch (const PartitionFaultError& e) {
      // The source's own copies are bad: contain the damage and move on.
      QuarantineFault(*health_, r, replicas_[r], e);
      continue;
    }
    // The canonical check above pins the ranges and the record count;
    // only the partition's encoded size can change.
    rep.RestorePartition(partition, expected);
    sketches_[target].storage_bytes = rep.StorageBytes();
    health_->MarkOk(target, partition);
    const double repair_ms_elapsed =
        double(obs::MonotonicNanos() - start_ns) * 1e-6;
    if (registry.enabled()) {
      Count("repair.partitions_total");
      Count("repair.records_total", expected.size());
      registry.GetHistogram("repair.ms").Observe(repair_ms_elapsed);
    }
    if (obs::EventLog::Global().enabled()) {
      obs::EventLog::Global().Info(
          "repair", "partition repaired from healthy replica",
          {obs::Field("replica", rep.config().Name()),
           obs::Field("partition", partition),
           obs::Field("source", replicas_[r].config().Name()),
           obs::Field("records", expected.size()),
           obs::Field("ms", repair_ms_elapsed)});
    }
    return expected.size();
  }
  throw CorruptData(
      "BlotStore::RecoverPartition: no healthy source could supply "
      "partition " +
      std::to_string(partition) + " of " + rep.config().Name());
}

BlotStore::RoutedBatchResult BlotStore::ExecuteBatch(
    std::span<const STRange> queries, const CostModel& model,
    ThreadPool* pool) {
  const std::uint64_t start_ns = obs::MonotonicNanos();
  const bool profiling = obs::MetricsRegistry::global().enabled();
  RoutedBatchResult result;
  result.per_query.resize(queries.size());
  result.replica_of.resize(queries.size());

  // Queries whose group's shared scan failed; retried one-by-one through
  // the failover path after the shared lock is released.
  std::vector<std::size_t> fallback;
  auto add_stats = [&result](const QueryStats& stats) {
    result.stats.partitions_scanned += stats.partitions_scanned;
    result.stats.records_scanned += stats.records_scanned;
    result.stats.bytes_read += stats.bytes_read;
    result.stats.cache_hits += stats.cache_hits;
    result.stats.cache_misses += stats.cache_misses;
  };
  {
    std::shared_lock lock(sync_->state_mutex);
    // Group queries by routed replica, preserving original indices. The
    // replica count is small, so a flat vector indexed by replica id
    // replaces the ordered map (allocator churn on large batches).
    std::vector<std::vector<std::size_t>> groups(replicas_.size());
    for (std::size_t q = 0; q < queries.size(); ++q) {
      const std::size_t replica =
          BestCandidate(queries[q], model).replica_index;
      result.replica_of[q] = replica;
      groups[replica].push_back(q);
    }
    for (std::size_t replica = 0; replica < groups.size(); ++replica) {
      const std::vector<std::size_t>& query_ids = groups[replica];
      if (query_ids.empty()) continue;
      std::vector<STRange> group;
      group.reserve(query_ids.size());
      for (std::size_t q : query_ids) group.push_back(queries[q]);
      try {
        BatchResult batch =
            ::blot::ExecuteBatch(replicas_[replica], group, pool);
        for (std::size_t j = 0; j < query_ids.size(); ++j)
          result.per_query[query_ids[j]] = std::move(batch.per_query[j]);
        add_stats(batch.stats);
        result.naive_partition_scans += batch.naive_partition_scans;
        // Fallback queries are recorded by Execute(); count the
        // shared-scan ones here.
        if (profiling)
          obs::MetricsRegistry::global()
              .GetCounter("query.routed_total",
                          {{"replica", replicas_[replica].config().Name()}})
              .Increment(query_ids.size());
      } catch (const PartitionFaultError& e) {
        QuarantineFault(*health_, replica, replicas_[replica], e);
        fallback.insert(fallback.end(), query_ids.begin(), query_ids.end());
      }
    }
  }

  for (const std::size_t q : fallback) {
    RoutedResult routed = Execute(queries[q], model, pool);
    result.per_query[q] = std::move(routed.result.records);
    result.replica_of[q] = routed.replica_index;
    add_stats(routed.result.stats);
    result.naive_partition_scans += routed.result.stats.partitions_scanned;
  }
  result.measured_ms = double(obs::MonotonicNanos() - start_ns) * 1e-6;

  if (profiling) {
    Count("query.batches_total");
    Count("query.batch_queries_total", queries.size());
    Count("query.routed_total", queries.size() - fallback.size());
    Count("query.batch_partitions_scanned_total",
          result.stats.partitions_scanned);
    Count("query.batch_shared_scans_saved_total",
          result.naive_partition_scans - result.stats.partitions_scanned);
    obs::MetricsRegistry::global()
        .GetHistogram("query.batch_measured_ms")
        .Observe(result.measured_ms);
  }
  return result;
}

namespace {

constexpr std::uint64_t kStoreMagic = 0x325252544F4C42ull;  // "BLOTRR2"
const char* kStoreManifest = "store.blot";
const char* kStoreDataset = "dataset.bin";

std::string ReplicaDirName(std::size_t i) {
  char name[32];
  std::snprintf(name, sizeof(name), "replica_%03zu", i);
  return name;
}

}  // namespace

void BlotStore::Save(const std::filesystem::path& directory) const {
  std::filesystem::create_directories(directory);
  std::ostringstream dataset_buf;
  dataset_.WriteBinary(dataset_buf);
  const std::string dataset_bytes = dataset_buf.str();
  const std::uint64_t dataset_checksum = Fnv1a64(BytesView(
      reinterpret_cast<const std::uint8_t*>(dataset_bytes.data()),
      dataset_bytes.size()));
  {
    std::ofstream out(directory / kStoreDataset,
                      std::ios::binary | std::ios::trunc);
    require(out.good(), "BlotStore::Save: cannot write dataset");
    out.write(dataset_bytes.data(),
              static_cast<std::streamsize>(dataset_bytes.size()));
    require(out.good(), "BlotStore::Save: short write to dataset");
  }
  for (std::size_t i = 0; i < replicas_.size(); ++i)
    SegmentStore::Save(replicas_[i], directory / ReplicaDirName(i));

  ByteWriter manifest;
  manifest.PutU64(kStoreMagic);
  manifest.PutF64(universe_.x_min());
  manifest.PutF64(universe_.x_max());
  manifest.PutF64(universe_.y_min());
  manifest.PutF64(universe_.y_max());
  manifest.PutF64(universe_.t_min());
  manifest.PutF64(universe_.t_max());
  manifest.PutVarint(replicas_.size());
  manifest.PutU64(dataset_checksum);
  // Whole-manifest checksum excluding this trailing field, mirroring the
  // SegmentStore manifest format.
  manifest.PutU64(Fnv1a64(manifest.buffer()));
  const std::filesystem::path tmp =
      directory / (std::string(kStoreManifest) + ".tmp");
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    require(out.good(), "BlotStore::Save: cannot write manifest");
    out.write(reinterpret_cast<const char*>(manifest.buffer().data()),
              static_cast<std::streamsize>(manifest.size()));
  }
  std::filesystem::rename(tmp, directory / kStoreManifest);
}

BlotStore BlotStore::Load(const std::filesystem::path& directory) {
  require(std::filesystem::exists(directory / kStoreManifest),
          "BlotStore::Load: no store manifest in " + directory.string());
  std::ifstream manifest_in(directory / kStoreManifest, std::ios::binary);
  if (!manifest_in.good())
    throw ReadError("BlotStore::Load: cannot open store manifest in " +
                    directory.string());
  const Bytes manifest_bytes((std::istreambuf_iterator<char>(manifest_in)),
                             std::istreambuf_iterator<char>());
  validate(manifest_bytes.size() > 8,
           "BlotStore::Load: store manifest too small");
  const BytesView body(manifest_bytes.data(), manifest_bytes.size() - 8);
  ByteReader trailer(BytesView(manifest_bytes.data() + body.size(), 8));
  validate(trailer.GetU64() == Fnv1a64(body),
           "BlotStore::Load: store manifest checksum mismatch");

  ByteReader manifest(body);
  validate(manifest.GetU64() == kStoreMagic,
           "BlotStore::Load: bad store magic");
  const double x_min = manifest.GetF64();
  const double x_max = manifest.GetF64();
  const double y_min = manifest.GetF64();
  const double y_max = manifest.GetF64();
  const double t_min = manifest.GetF64();
  const double t_max = manifest.GetF64();
  validate(x_min <= x_max && y_min <= y_max && t_min <= t_max,
           "BlotStore::Load: malformed universe");
  const std::uint64_t num_replicas = manifest.GetVarint();
  const std::uint64_t dataset_checksum = manifest.GetU64();
  validate(manifest.AtEnd(), "BlotStore::Load: trailing manifest bytes");

  std::ifstream dataset_in(directory / kStoreDataset, std::ios::binary);
  require(dataset_in.good(), "BlotStore::Load: missing dataset file");
  const Bytes dataset_bytes((std::istreambuf_iterator<char>(dataset_in)),
                            std::istreambuf_iterator<char>());
  validate(Fnv1a64(dataset_bytes) == dataset_checksum,
           "BlotStore::Load: dataset checksum mismatch");
  std::istringstream dataset_stream(std::string(
      reinterpret_cast<const char*>(dataset_bytes.data()),
      dataset_bytes.size()));
  BlotStore store(Dataset::ReadBinary(dataset_stream),
                  STRange::FromBounds(x_min, x_max, y_min, y_max, t_min,
                                      t_max));
  for (std::uint64_t i = 0; i < num_replicas; ++i) {
    Replica replica = SegmentStore::Load(directory / ReplicaDirName(i));
    validate(store.universe_.Contains(replica.universe()),
             "BlotStore::Load: replica outside store universe");
    store.AdoptReplica(std::move(replica));
  }
  return store;
}

std::uint64_t BlotStore::RecoverReplicaFrom(std::size_t i, std::size_t source,
                                            ThreadPool* pool) {
  std::unique_lock lock(sync_->state_mutex);
  return RecoverReplicaFromLocked(i, source, pool);
}

std::uint64_t BlotStore::RecoverReplicaFromLocked(std::size_t i,
                                                  std::size_t source,
                                                  ThreadPool* pool) {
  require(i < replicas_.size() && source < replicas_.size(),
          "BlotStore::RecoverReplicaFrom: bad index");
  require(i != source, "BlotStore::RecoverReplicaFrom: source == target");
  // The source must cover everything the lost replica stored: any full
  // replica recovers anything; a partial replica can only recover
  // replicas whose universe lies within its coverage.
  const STRange target_universe = replicas_[i].universe();
  require(replicas_[source].universe().Contains(target_universe),
          "BlotStore::RecoverReplicaFrom: source does not cover target");
  const ReplicaConfig config = replicas_[i].config();
  const Dataset logical = replicas_[source].Reconstruct();
  const Dataset covered(logical.FilterByRange(target_universe));
  // The lost replica's storage is discarded; drop its cached decodes
  // eagerly rather than letting them age out of the LRU.
  const std::uint64_t old_cache_id = replicas_[i].cache_id();
  PartitionCache::Global().InvalidateReplica(old_cache_id,
                                             replicas_[i].NumPartitions());
  replicas_[i] = Replica::Build(covered, config, target_universe, pool);
  // A decode cached before recovery must never satisfy a query after it:
  // the rebuilt replica's cache identity is process-unique and fresh.
  ensure(replicas_[i].cache_id() != old_cache_id,
         "BlotStore::RecoverReplicaFrom: rebuilt replica kept its old "
         "cache identity");
  sketches_[i] = ReplicaSketch::FromReplica(replicas_[i]);
  health_->ResetReplica(i, replicas_[i].NumPartitions());
  if (obs::EventLog::Global().enabled()) {
    obs::EventLog::Global().Info(
        "repair.replica_rebuilt", "replica rebuilt from healthy source",
        {obs::Field("replica", config.Name()),
         obs::Field("source", replicas_[source].config().Name()),
         obs::Field("records", replicas_[i].NumRecords())});
  }
  return replicas_[i].NumRecords();
}

}  // namespace blot
