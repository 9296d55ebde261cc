#include "qmap/service/thread_pool.h"

#include <algorithm>
#include <chrono>

#include "qmap/obs/metrics.h"

namespace qmap {

ThreadPool::ThreadPool(int num_threads) {
  int n = std::max(1, num_threads);
  workers_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

size_t ThreadPool::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

void ThreadPool::AttachMetrics(MetricsRegistry* registry) {
  if (registry == nullptr) {
    queue_wait_hist_ = run_hist_ = nullptr;
    return;
  }
  queue_wait_hist_ = &registry->histogram("qmap_pool_queue_wait_us");
  run_hist_ = &registry->histogram("qmap_pool_run_us");
}

void ThreadPool::Submit(std::function<void()> task) {
  Task entry{std::move(task), {}};
  if (queue_wait_hist_ != nullptr) {
    entry.submitted = std::chrono::steady_clock::now();
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(entry));
  }
  cv_.notify_one();
}

void ThreadPool::WorkerLoop() {
  const auto micros = [](std::chrono::steady_clock::duration d) {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(d).count());
  };
  while (true) {
    Task task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    if (queue_wait_hist_ == nullptr) {
      task.run();
      continue;
    }
    const auto started = std::chrono::steady_clock::now();
    queue_wait_hist_->Record(micros(started - task.submitted));
    task.run();
    run_hist_->Record(micros(std::chrono::steady_clock::now() - started));
  }
}

}  // namespace qmap
