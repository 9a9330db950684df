// Concurrent serving layer: a query scheduler with admission control,
// backpressure and graceful drain over a BlotStore.
//
// The paper's cost model assumes queries are served *continuously*
// against the diverse replica set; QueryServer is the always-on front
// end that makes that true. It runs N whole queries at once, each as
// one BlotStore::Execute on a worker of its request pool; every query
// scans its involved partitions on that worker.
//
// Admission control bounds what the server accepts rather than letting
// the queue grow without limit: a query is admitted only while the
// in-flight count has room. Rejected queries get
// a structured OverloadedError carrying a retry-after hint derived from
// the current backlog and the recent service rate — the caller sheds
// load instead of timing out, and *admitted* queries keep their latency.
//
// Shutdown drains: Drain() (also run by the destructor) stops admitting
// and waits for every admitted query to finish, so no accepted work is
// ever dropped. docs/serving.md covers the policy knobs and the
// serve.* metrics/events this layer emits.
#ifndef BLOT_SERVE_SERVER_H_
#define BLOT_SERVE_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>

#include "core/cost_model.h"
#include "core/store.h"
#include "util/error.h"
#include "util/thread_pool.h"

namespace blot::serve {

// The server refused a query to protect the queries it already
// admitted. Structured: callers read the backlog and the retry-after
// hint instead of parsing the message. Also raised (with
// shutting_down() true and no useful retry hint) for submissions after
// Drain() began.
class OverloadedError : public Error {
 public:
  OverloadedError(const std::string& what, double retry_after_ms,
                  std::size_t queue_depth, bool shutting_down = false)
      : Error(what),
        retry_after_ms_(retry_after_ms),
        queue_depth_(queue_depth),
        shutting_down_(shutting_down) {}

  // Suggested client backoff: roughly the time for the current backlog
  // to clear at the recently observed service rate. Never negative.
  double retry_after_ms() const { return retry_after_ms_; }
  // Queries in flight (admitted, not yet finished) at rejection time.
  std::size_t queue_depth() const { return queue_depth_; }
  // True when the rejection is due to shutdown, not load: retrying the
  // same server is pointless.
  bool shutting_down() const { return shutting_down_; }

 private:
  double retry_after_ms_ = 0.0;
  std::size_t queue_depth_ = 0;
  bool shutting_down_ = false;
};

struct ServerOptions {
  // Request pool size: queries executing (or queued) concurrently.
  std::size_t worker_threads = 4;
  // Admission ceiling on in-flight queries (admitted, not finished).
  // Must be >= 1.
  std::size_t max_inflight = 64;
  // Emulated storage round-trip per query, slept on the request worker
  // before execution. Models the remote-storage environments of the
  // paper (S3/HDFS) whose latency the local benches don't have; also
  // what makes closed-loop throughput scaling with worker_threads
  // machine-independent (docs/serving.md). 0 disables.
  double simulate_io_ms = 0.0;
  // Default per-query deadline in ms, measured from *admission* (queue
  // wait counts against the budget — a query that waited out its whole
  // deadline in the queue fails fast without reading a partition). 0 =
  // none. A per-request deadline passed to Submit overrides it. Expiry
  // surfaces as DeadlineExceededError through the returned future, or as
  // a partial result when allow_partial is set, in the queue too
  // (docs/serving.md).
  double default_deadline_ms = 0.0;
  // Hedged reads for every served query (BlotStore::ExecOptions::
  // hedge_ms): 0 = off.
  double hedge_ms = 0.0;
  // Opt all served queries into graceful degradation: deadline expiry or
  // unrecoverable partition loss yields a partial RoutedResult with a
  // coverage report instead of an error.
  bool allow_partial = false;
};

// Monotone counters + point-in-time levels, readable while serving.
struct ServerStatsSnapshot {
  std::uint64_t submitted = 0;  // Submit calls, admitted or not
  std::uint64_t admitted = 0;
  std::uint64_t shed = 0;       // rejected with OverloadedError
  std::uint64_t completed = 0;  // admitted and returned a result
  std::uint64_t failed = 0;     // admitted and threw (QueryFailedError...)
  // Admitted queries whose deadline expired (threw DeadlineExceededError;
  // a subset of `failed`). Partial results do not count here.
  std::uint64_t deadline_exceeded = 0;
  // Completed queries that returned a partial result (subset of
  // `completed`; only possible with ServerOptions::allow_partial).
  std::uint64_t partial = 0;
  std::size_t inflight = 0;
  double latency_ewma_ms = 0.0;
};

class QueryServer {
 public:
  // The server borrows `store`; it must outlive the server. Queries are
  // routed with `model`.
  QueryServer(BlotStore& store, CostModel model, ServerOptions options = {});

  // Drains: admitted queries finish, new submissions are refused.
  ~QueryServer();

  QueryServer(const QueryServer&) = delete;
  QueryServer& operator=(const QueryServer&) = delete;

  const ServerOptions& options() const { return options_; }

  // Admission-controlled asynchronous execution. On admission, returns
  // the future of the query's RoutedResult (which may itself hold a
  // QueryFailedError etc. — admission is about capacity, not
  // correctness). Throws OverloadedError synchronously when the
  // in-flight limit is reached, or after Drain() began.
  //
  // `deadline_ms` overrides ServerOptions::default_deadline_ms for this
  // request (0 = use the default; the default itself may be 0 = none).
  // The deadline clock starts now — at admission — so queue wait counts;
  // a query still queued when its deadline passes is abandoned without
  // executing and its future carries DeadlineExceededError.
  std::future<BlotStore::RoutedResult> Submit(const STRange& query,
                                              double deadline_ms = 0.0);

  // Blocking convenience: Submit + get.
  BlotStore::RoutedResult Execute(const STRange& query,
                                  double deadline_ms = 0.0);

  ServerStatsSnapshot stats() const;

  // Stops admitting and blocks until every admitted query finished.
  // Idempotent; Submit after Drain throws OverloadedError with
  // shutting_down() set.
  void Drain();

 private:
  // Backlog / service-rate derived client backoff hint.
  double RetryAfterMs(std::size_t inflight) const;
  void FinishQuery(double latency_ms, bool failed);

  BlotStore& store_;
  const CostModel model_;
  const ServerOptions options_;
  std::unique_ptr<ThreadPool> request_pool_;

  mutable std::mutex admission_mutex_;
  std::condition_variable drained_cv_;
  std::size_t inflight_ = 0;  // guarded by admission_mutex_
  bool draining_ = false;     // guarded by admission_mutex_

  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> admitted_{0};
  std::atomic<std::uint64_t> shed_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> failed_{0};
  std::atomic<std::uint64_t> deadline_exceeded_{0};
  std::atomic<std::uint64_t> partial_{0};
  std::atomic<double> latency_ewma_ms_{0.0};
};

}  // namespace blot::serve

#endif  // BLOT_SERVE_SERVER_H_
