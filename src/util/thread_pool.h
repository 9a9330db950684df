// Fixed-size thread pool for parallel partition scans and request
// scheduling.
//
// BLOT query processing is embarrassingly parallel over involved
// partitions ("it is straightforward to conduct parallel query processing
// by scanning multiple partitions simultaneously", Section II-D). The
// executor uses this pool to decode and filter partitions concurrently;
// the serving layer (src/serve) uses one pool of the same type to run
// whole queries concurrently.
//
// ## The no-nested-blocking contract
//
// A task running on a pool worker MUST NOT submit work to the *same*
// pool and block on its completion: with all workers busy doing exactly
// that, nobody is left to drain the queue and the pool deadlocks. A task
// may block on ParallelFor of a *different* pool, never of its own; the
// serving layer's request workers submit nothing to their own pool and
// scan each query serially.
//
// The contract is enforced where the pool can see the blocking:
// ParallelFor asserts (debug builds) that the calling thread is not a
// worker of the pool it is about to wait on. Blocking on a future from
// Submit cannot be intercepted; use InWorkerThread() to assert at such
// call sites. Fire-and-forget Submit from a worker to its own pool is
// fine (no wait, no deadlock) — the background-repair scheduling path
// relies on that.
//
// Observability: each pool carries a name; `pool.queue_depth{pool=name}`
// and `pool.active_workers{pool=name}` gauges track its load whenever
// the global metrics registry is enabled (docs/observability.md).
#ifndef BLOT_UTIL_THREAD_POOL_H_
#define BLOT_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"

namespace blot {

class ThreadPool {
 public:
  // Creates a pool with `num_threads` workers (>= 1). `name` labels the
  // pool's gauges; pools sharing a name share gauge instances, so give
  // long-lived pools distinct names ("scan", "request", ...).
  explicit ThreadPool(std::size_t num_threads, std::string name = "scan");

  // Drains outstanding work and joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t num_threads() const { return workers_.size(); }
  const std::string& name() const { return name_; }

  // True when the calling thread is one of this pool's workers. The
  // building block for asserting the no-nested-blocking contract at
  // call sites that wait on futures from Submit.
  bool InWorkerThread() const;

  // Enqueues a task and returns a future for its result. A task may
  // submit further tasks to its own pool but must not block on them
  // (see the contract above); waiting on the returned future from a
  // worker of this same pool deadlocks when the pool is saturated.
  template <typename F>
  auto Submit(F&& f) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(f));
    std::future<R> future = task->get_future();
    // Stamp the enqueue time only when metrics are on; 0 marks "don't
    // measure this task" for the worker.
    const std::uint64_t enqueue_ns =
        obs::MetricsRegistry::global().enabled() ? obs::MonotonicNanos()
                                                 : 0;
    {
      std::lock_guard lock(mutex_);
      queue_.push(QueuedTask{[task] { (*task)(); }, enqueue_ns});
      if (enqueue_ns != 0) queue_depth_gauge_->Set(double(queue_.size()));
    }
    cv_.notify_one();
    return future;
  }

  // Runs fn(i) for i in [0, n) across the pool and waits for completion.
  // Exceptions from tasks are rethrown (the first one encountered).
  // Blocks, so it must not be called from a worker of this same pool
  // (asserted in debug builds — the no-nested-blocking contract).
  void ParallelFor(std::size_t n, const std::function<void(std::size_t)>& fn);

 private:
  struct QueuedTask {
    std::function<void()> fn;
    std::uint64_t enqueue_ns = 0;  // 0: metrics were off at enqueue time
  };

  void WorkerLoop();

  std::string name_;
  // Stable gauge handles (metric handles never move once created), so
  // the hot path skips the registry map lookup.
  obs::Gauge* queue_depth_gauge_ = nullptr;
  obs::Gauge* active_workers_gauge_ = nullptr;
  std::vector<std::thread> workers_;
  std::queue<QueuedTask> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool shutting_down_ = false;
};

}  // namespace blot

#endif  // BLOT_UTIL_THREAD_POOL_H_
