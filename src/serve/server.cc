#include "serve/server.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <sstream>
#include <thread>

#include "obs/event_log.h"
#include "util/range.h"

namespace blot::serve {
namespace {

// Smoothing factor of the service-latency EWMA behind retry-after
// hints; higher weighs recent queries more.
constexpr double kLatencyEwmaAlpha = 0.2;

struct ServeMetrics {
  obs::Counter& admitted;
  obs::Counter& shed;
  obs::Counter& completed;
  obs::Counter& failed;
  obs::Counter& deadline_exceeded;
  obs::Counter& partial;
  obs::Gauge& queue_depth;
  obs::Histogram& latency_ms;

  static ServeMetrics& Get() {
    auto& r = obs::MetricsRegistry::global();
    static ServeMetrics m{r.GetCounter("serve.admitted_total"),
                          r.GetCounter("serve.shed_total"),
                          r.GetCounter("serve.completed_total"),
                          r.GetCounter("serve.failed_total"),
                          r.GetCounter("serve.deadline_exceeded_total"),
                          r.GetCounter("serve.partial_total"),
                          r.GetGauge("serve.queue_depth"),
                          r.GetHistogram("serve.latency_ms")};
    return m;
  }
};

}  // namespace

QueryServer::QueryServer(BlotStore& store, CostModel model,
                         ServerOptions options)
    : store_(store),
      model_(std::move(model)),
      options_(options) {
  require(options_.worker_threads >= 1,
          "QueryServer: need at least one request worker");
  require(options_.max_inflight >= 1,
          "QueryServer: max_inflight must be at least 1");
  request_pool_ =
      std::make_unique<ThreadPool>(options_.worker_threads, "request");
}

QueryServer::~QueryServer() { Drain(); }

double QueryServer::RetryAfterMs(std::size_t inflight) const {
  // Time for the backlog (plus the rejected query itself) to clear at
  // the recently observed per-query service time across the workers.
  const double ewma = latency_ewma_ms_.load(std::memory_order_relaxed);
  const double per_query_ms =
      ewma > 0.0 ? ewma : std::max(options_.simulate_io_ms, 1.0);
  return per_query_ms * double(inflight + 1) /
         double(options_.worker_threads);
}

std::future<BlotStore::RoutedResult> QueryServer::Submit(
    const STRange& query, double deadline_ms) {
  require(deadline_ms >= 0.0, "QueryServer::Submit: negative deadline");
  submitted_.fetch_add(1, std::memory_order_relaxed);
  auto& metrics = ServeMetrics::Get();
  {
    std::unique_lock lock(admission_mutex_);
    if (draining_) {
      shed_.fetch_add(1, std::memory_order_relaxed);
      metrics.shed.Increment();
      throw OverloadedError("QueryServer: draining, not admitting queries",
                            /*retry_after_ms=*/0.0, inflight_,
                            /*shutting_down=*/true);
    }
    if (inflight_ >= options_.max_inflight) {
      const std::size_t depth = inflight_;
      const double retry_ms = RetryAfterMs(depth);
      shed_.fetch_add(1, std::memory_order_relaxed);
      metrics.shed.Increment();
      lock.unlock();
      auto& log = obs::EventLog::Global();
      if (log.enabled()) {
        log.Warn("serve", "query shed",
                 {obs::Field("queue_depth", depth),
                  obs::Field("retry_after_ms", retry_ms)});
      }
      std::ostringstream what;
      what << "QueryServer overloaded (inflight limit, depth " << depth
           << "); retry after " << retry_ms << " ms";
      throw OverloadedError(what.str(), retry_ms, depth);
    }
    ++inflight_;
    metrics.queue_depth.Set(double(inflight_));
  }
  admitted_.fetch_add(1, std::memory_order_relaxed);
  metrics.admitted.Increment();

  // The deadline clock starts at admission: time spent queued behind
  // other requests is part of the caller's wait and counts against the
  // budget.
  const double effective_deadline =
      deadline_ms > 0.0 ? deadline_ms : options_.default_deadline_ms;
  const std::uint64_t admit_ns = obs::MonotonicNanos();
  return request_pool_->Submit([this, query, effective_deadline, admit_ns] {
    const std::uint64_t start_ns = obs::MonotonicNanos();
    if (options_.simulate_io_ms > 0.0) {
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
          options_.simulate_io_ms));
    }
    auto& metrics = ServeMetrics::Get();
    try {
      BlotStore::ExecOptions exec;
      exec.allow_partial = options_.allow_partial;
      exec.hedge_ms = options_.hedge_ms;
      if (effective_deadline > 0.0) {
        // Abandon work whose deadline already passed in the queue (or
        // during the emulated storage round-trip): executing it would
        // only delay queries that can still make theirs.
        const double waited_ms =
            double(obs::MonotonicNanos() - admit_ns) * 1e-6;
        const double remaining = effective_deadline - waited_ms;
        if (remaining <= 0.0 && !options_.allow_partial) {
          // Accounting happens in the DeadlineExceededError catch below.
          throw DeadlineExceededError(
              "QueryServer: deadline of " +
                  std::to_string(effective_deadline) +
                  "ms expired in the admission queue (waited " +
                  std::to_string(waited_ms) + "ms); query abandoned",
              effective_deadline, 0, 0, 0);
        }
        // With allow_partial an expired query still gets its partial
        // answer: a budget that has already run out makes the store
        // report every involved partition missed without reading any.
        exec.deadline_ms =
            std::max(remaining, std::numeric_limits<double>::min());
      }
      BlotStore::RoutedResult result = store_.Execute(query, model_, exec);
      if (result.partial) {
        partial_.fetch_add(1, std::memory_order_relaxed);
        metrics.partial.Increment();
      }
      FinishQuery(double(obs::MonotonicNanos() - start_ns) * 1e-6,
                  /*failed=*/false);
      return result;
    } catch (const DeadlineExceededError&) {
      deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
      metrics.deadline_exceeded.Increment();
      FinishQuery(double(obs::MonotonicNanos() - start_ns) * 1e-6,
                  /*failed=*/true);
      throw;
    } catch (...) {
      FinishQuery(double(obs::MonotonicNanos() - start_ns) * 1e-6,
                  /*failed=*/true);
      throw;
    }
  });
}

BlotStore::RoutedResult QueryServer::Execute(const STRange& query,
                                             double deadline_ms) {
  return Submit(query, deadline_ms).get();
}

void QueryServer::FinishQuery(double latency_ms, bool failed) {
  auto& metrics = ServeMetrics::Get();
  if (failed) {
    failed_.fetch_add(1, std::memory_order_relaxed);
    metrics.failed.Increment();
  } else {
    completed_.fetch_add(1, std::memory_order_relaxed);
    metrics.completed.Increment();
  }
  metrics.latency_ms.Observe(latency_ms);
  bool notify = false;
  {
    std::lock_guard lock(admission_mutex_);
    --inflight_;
    metrics.queue_depth.Set(double(inflight_));
    // Single-writer-under-mutex EWMA: relaxed atomics are only for the
    // lock-free readers in RetryAfterMs and stats().
    const double prev = latency_ewma_ms_.load(std::memory_order_relaxed);
    const double next =
        prev == 0.0 ? latency_ms
                    : prev + kLatencyEwmaAlpha * (latency_ms - prev);
    latency_ewma_ms_.store(next, std::memory_order_relaxed);
    notify = draining_ && inflight_ == 0;
  }
  if (notify) drained_cv_.notify_all();
}

ServerStatsSnapshot QueryServer::stats() const {
  ServerStatsSnapshot snap;
  snap.submitted = submitted_.load(std::memory_order_relaxed);
  snap.admitted = admitted_.load(std::memory_order_relaxed);
  snap.shed = shed_.load(std::memory_order_relaxed);
  snap.completed = completed_.load(std::memory_order_relaxed);
  snap.failed = failed_.load(std::memory_order_relaxed);
  snap.deadline_exceeded =
      deadline_exceeded_.load(std::memory_order_relaxed);
  snap.partial = partial_.load(std::memory_order_relaxed);
  snap.latency_ewma_ms = latency_ewma_ms_.load(std::memory_order_relaxed);
  {
    std::lock_guard lock(admission_mutex_);
    snap.inflight = inflight_;
  }
  return snap;
}

void QueryServer::Drain() {
  std::unique_lock lock(admission_mutex_);
  const bool first = !draining_;
  draining_ = true;
  drained_cv_.wait(lock, [this] { return inflight_ == 0; });
  lock.unlock();
  if (first) {
    auto& log = obs::EventLog::Global();
    if (log.enabled()) {
      log.Info("serve", "drained",
               {obs::Field("completed",
                           completed_.load(std::memory_order_relaxed)),
                obs::Field("failed", failed_.load(std::memory_order_relaxed)),
                obs::Field("shed", shed_.load(std::memory_order_relaxed))});
    }
  }
}

}  // namespace blot::serve
