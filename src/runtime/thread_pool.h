// Fixed-size worker pool + FIFO work queue — the execution substrate of the
// concurrent query runtime.
//
// Deliberately minimal: queries are CPU-bound and uniform enough that a
// single mutex-guarded queue does not contend at the thread counts we target
// (the per-query work is milliseconds; the queue critical section is
// nanoseconds). Work stealing / sharded queues are a later scaling PR.
#ifndef TQCOVER_RUNTIME_THREAD_POOL_H_
#define TQCOVER_RUNTIME_THREAD_POOL_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

#include "runtime/metrics.h"

namespace tq::runtime {

/// Fixed pool of worker threads draining a FIFO task queue. Tasks submitted
/// before destruction are all executed; the destructor drains the queue and
/// joins every worker.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (clamped to >= 1). When `metrics` is
  /// non-null (and must outlive the pool), every task's queue wait —
  /// Post() to execution start — is recorded into its
  /// OpFamily::kQueueWait histogram.
  explicit ThreadPool(size_t num_threads,
                      MetricsRegistry* metrics = nullptr);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t size() const { return workers_.size(); }

  /// Enqueues a fire-and-forget task.
  void Post(std::function<void()> task);

  /// Enqueues a task and returns a future for its result.
  template <typename Fn>
  auto Submit(Fn fn) -> std::future<std::invoke_result_t<Fn>> {
    using R = std::invoke_result_t<Fn>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::move(fn));
    std::future<R> future = task->get_future();
    Post([task]() { (*task)(); });
    return future;
  }

  /// Blocks until every task submitted so far has finished executing.
  void Drain();

 private:
  void WorkerLoop();

  MetricsRegistry* metrics_ = nullptr;  // optional; not owned

  std::mutex mu_;
  std::condition_variable work_cv_;   // workers wait for tasks / stop
  std::condition_variable drain_cv_;  // Drain() waits for quiescence
  struct QueuedTask {
    std::function<void()> fn;
    uint64_t enqueue_ns = 0;  // 0 when this task is not sampled
  };
  std::deque<QueuedTask> queue_;
  size_t in_flight_ = 0;  // tasks popped but not yet finished
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace tq::runtime

#endif  // TQCOVER_RUNTIME_THREAD_POOL_H_
