#include "runtime/thread_pool.h"

#include <algorithm>
#include <utility>

namespace tq::runtime {

ThreadPool::ThreadPool(size_t num_threads, MetricsRegistry* metrics)
    : metrics_(metrics) {
  const size_t n = std::max<size_t>(1, num_threads);
  workers_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this]() { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::Post(std::function<void()> task) {
  // Stamp the enqueue time only for a 1-in-N sample of tasks (see
  // MetricsRegistry::SampleTask) — the unstamped tasks propagate the zero
  // sentinel and skip the dequeue-side clock read as well.
  const uint64_t enqueue_ns =
      (metrics_ != nullptr && MetricsRegistry::SampleTask()) ? NowNs() : 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(QueuedTask{std::move(task), enqueue_ns});
  }
  work_cv_.notify_one();
}

void ThreadPool::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  drain_cv_.wait(lock, [this]() { return queue_.empty() && in_flight_ == 0; });
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    QueuedTask task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this]() { return stop_ || !queue_.empty(); });
      // Drain the queue even when stopping so pending futures resolve.
      if (queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
      ++in_flight_;
    }
    if (task.enqueue_ns != 0 && metrics_ != nullptr) {
      const uint64_t now = NowNs();
      metrics_->RecordLatency(
          OpFamily::kQueueWait,
          now > task.enqueue_ns ? now - task.enqueue_ns : 0);
    }
    task.fn();
    {
      std::lock_guard<std::mutex> lock(mu_);
      --in_flight_;
      if (queue_.empty() && in_flight_ == 0) drain_cv_.notify_all();
    }
  }
}

}  // namespace tq::runtime
