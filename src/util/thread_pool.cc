#include "util/thread_pool.h"

#include <atomic>
#include <cassert>
#include <exception>

#include "util/error.h"

namespace blot {
namespace {

// The pool whose WorkerLoop the current thread is running (null on
// non-worker threads). One level is enough: a worker thread belongs to
// exactly one pool for its whole life.
thread_local const ThreadPool* current_worker_pool = nullptr;

}  // namespace

ThreadPool::ThreadPool(std::size_t num_threads, std::string name)
    : name_(std::move(name)) {
  require(num_threads >= 1, "ThreadPool: need at least one thread");
  auto& registry = obs::MetricsRegistry::global();
  queue_depth_gauge_ =
      &registry.GetGauge("pool.queue_depth", {{"pool", name_}});
  active_workers_gauge_ =
      &registry.GetGauge("pool.active_workers", {{"pool", name_}});
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i)
    workers_.emplace_back([this] { WorkerLoop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    shutting_down_ = true;
  }
  cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

bool ThreadPool::InWorkerThread() const {
  return current_worker_pool == this;
}

void ThreadPool::WorkerLoop() {
  current_worker_pool = this;
  auto& registry = obs::MetricsRegistry::global();
  static obs::Counter& tasks_total =
      registry.GetCounter("threadpool.tasks_total");
  static obs::Histogram& queue_wait_ms =
      registry.GetHistogram("threadpool.queue_wait_ms");
  static obs::Histogram& task_ms =
      registry.GetHistogram("threadpool.task_ms");
  for (;;) {
    QueuedTask task;
    {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [this] { return shutting_down_ || !queue_.empty(); });
      if (queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop();
      if (task.enqueue_ns != 0)
        queue_depth_gauge_->Set(double(queue_.size()));
    }
    // Tasks enqueued with metrics off carry no timestamp and charge no
    // clock reads here either.
    if (task.enqueue_ns != 0) {
      tasks_total.Increment();
      queue_wait_ms.Observe(
          double(obs::MonotonicNanos() - task.enqueue_ns) * 1e-6);
      active_workers_gauge_->Add(1.0);
      obs::ScopedTimerMs timer(&task_ms);
      task.fn();
      active_workers_gauge_->Add(-1.0);
    } else {
      task.fn();
    }
  }
}

void ThreadPool::ParallelFor(std::size_t n,
                             const std::function<void(std::size_t)>& fn) {
  // The no-nested-blocking contract: waiting for this pool's workers
  // *from* one of this pool's workers deadlocks once every worker does
  // it. Only cross-pool waits are safe.
  assert(!InWorkerThread() &&
         "ThreadPool::ParallelFor called from a worker of the same pool "
         "(no-nested-blocking contract; use a separate pool)");
  if (n == 0) return;
  std::atomic<std::size_t> next{0};
  std::exception_ptr first_error;
  std::mutex error_mutex;
  const std::size_t num_tasks = std::min(n, num_threads());
  std::vector<std::future<void>> futures;
  futures.reserve(num_tasks);
  for (std::size_t t = 0; t < num_tasks; ++t) {
    futures.push_back(Submit([&] {
      for (;;) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= n) return;
        try {
          fn(i);
        } catch (...) {
          std::lock_guard lock(error_mutex);
          if (!first_error) first_error = std::current_exception();
        }
      }
    }));
  }
  for (auto& f : futures) f.get();
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace blot
