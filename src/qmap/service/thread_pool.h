#ifndef QMAP_SERVICE_THREAD_POOL_H_
#define QMAP_SERVICE_THREAD_POOL_H_

#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace qmap {

class Histogram;
class MetricsRegistry;

/// A fixed-size worker pool with a single FIFO task queue. Tasks are opaque
/// thunks; completion signalling (latches, futures) is the caller's concern.
/// The destructor drains the queue: tasks already submitted run to
/// completion before the workers join, so a caller blocked on a latch never
/// deadlocks against pool teardown.
///
/// Cancellation contract: the pool has no preemption and no task removal —
/// every submitted task runs exactly once. Cancellation is therefore
/// *cooperative*: a caller that hands workers pointers into its own stack
/// frame (the fan-out pattern in FanOut::Run, qmap/service/fanout.h) must
/// wait for all of its tasks to finish before returning, even when the
/// request's deadline has already expired; tasks observe a CancelToken and
/// return early instead of being abandoned. Dropping the wait would leave
/// detached workers writing into a dead frame — see docs/ROBUSTNESS.md.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (clamped to at least 1).
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int size() const { return static_cast<int>(workers_.size()); }

  /// Tasks submitted but not yet picked up by a worker. A point-in-time
  /// reading (the queue moves concurrently); useful for load shedding and
  /// for asserting in tests that a drained pool holds no stragglers.
  size_t queue_depth() const;

  /// Records every task's queue-wait time (Submit → a worker picking it up)
  /// and run time into `registry` as the qmap_pool_queue_wait_us and
  /// qmap_pool_run_us histograms. The submit time waits in the queue beside
  /// the task, so timing adds no allocation per task. Setup-phase only: call
  /// before the first Submit; the registry must outlive the pool. Null
  /// detaches — the default, in which case the pool does no clock reads.
  void AttachMetrics(MetricsRegistry* registry);

  /// Enqueues `task` for execution on some worker. Safe to call from any
  /// thread, including from inside a task.
  void Submit(std::function<void()> task);

 private:
  struct Task {
    std::function<void()> run;
    // Set only while metrics are attached.
    std::chrono::steady_clock::time_point submitted;
  };

  void WorkerLoop();

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Task> queue_;  // guarded by mu_
  bool stopping_ = false;                    // guarded by mu_
  std::vector<std::thread> workers_;

  // Optional metric bridges (see AttachMetrics); null when detached.
  Histogram* queue_wait_hist_ = nullptr;
  Histogram* run_hist_ = nullptr;
};

}  // namespace qmap

#endif  // QMAP_SERVICE_THREAD_POOL_H_
