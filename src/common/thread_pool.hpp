// thread_pool.hpp — a small fixed-size worker pool for the sweep engine.
// Its only user is SweepRunner (sweeps, validation_report, and parallel
// admission in the ward benchmark); the serving path's parallelism is
// hospital shards, one thread each.
//
// Plain std::thread workers draining one mutex-guarded task queue. Nothing
// clever on purpose: SweepRunner, built on top, guarantees bit-identical
// results regardless of scheduling, so the pool only has to be correct —
// throughput is dominated by the trials themselves, not queue overhead.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "src/common/metrics.hpp"

namespace tono {

class ThreadPool {
 public:
  /// `thread_count` 0 → std::thread::hardware_concurrency() (at least 1).
  explicit ThreadPool(std::size_t thread_count = 0);

  /// Drains every queued task, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task. A throwing task no longer takes the process down:
  /// the pool captures the first uncaught exception and rethrows it on the
  /// next wait_idle() (SweepRunner, which needs per-task granularity, still
  /// catches inside the task; it never sees this path).
  void submit(std::function<void()> task);

  /// Blocks until the queue is empty and every worker is idle, then rethrows
  /// the first exception that escaped a task since the last wait_idle().
  void wait_idle();

  /// The first captured-and-not-yet-rethrown worker exception, or null.
  /// Non-destructive peek; wait_idle() clears it when it rethrows.
  [[nodiscard]] std::exception_ptr first_exception() const;

  [[nodiscard]] std::size_t thread_count() const noexcept { return workers_.size(); }

 private:
  void worker_loop_();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  mutable std::mutex mutex_;
  std::condition_variable work_available_;
  std::condition_variable idle_;
  std::size_t running_{0};  ///< tasks currently executing
  bool stop_{false};
  std::exception_ptr first_exception_;  ///< first uncaught task exception
  // Observability (resolved once here; updated lock-free or under the
  // queue lock already held — see docs/OBSERVABILITY.md).
  metrics::Counter* tasks_submitted_;
  metrics::Counter* tasks_executed_;
  metrics::Gauge* peak_queue_depth_;
  metrics::Gauge* queue_depth_;
};

}  // namespace tono
