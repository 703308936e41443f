// Copyright 2026 The vfps Authors.
// Minimal fixed-size thread pool. The paper's engine is single-threaded;
// the network server runs its match worker as a one-thread pool so every
// broker call executes off the event loop (see net/server.h).
//
// Locking: one Mutex (LockRank::kThreadPool) guards the queue and
// lifecycle flags; tasks always run with it released, so a task may take
// any higher-ranked lock (failpoints, telemetry) but never re-enter the
// pool it runs on.

#ifndef VFPS_UTIL_THREAD_POOL_H_
#define VFPS_UTIL_THREAD_POOL_H_

#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "src/util/macros.h"
#include "src/util/sync.h"

namespace vfps {

/// Fixed worker pool executing submitted closures FIFO. Tasks must not
/// throw (the library is exception-free). Destruction drains the queue:
/// every task accepted by Submit runs before the workers exit. Submit
/// calls that race with Shutdown/destruction are well-defined — they are
/// rejected (return false) instead of enqueued; callers that outlive the
/// pool must simply not call Submit after the destructor has returned.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (at least 1).
  explicit ThreadPool(size_t num_threads) {
    VFPS_CHECK(num_threads >= 1);
    workers_.reserve(num_threads);
    for (size_t i = 0; i < num_threads; ++i) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  }

  ~ThreadPool() { Shutdown(); }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Stops accepting work, runs every already-accepted task, and joins
  /// the workers. Idempotent; called by the destructor. Exposed so tests
  /// (and callers that share the pool across threads) can force the
  /// drain while other threads still hold a reference to call Submit on
  /// — after Shutdown returns their Submits fail cleanly.
  void Shutdown() VFPS_EXCLUDES(mu_) {
    {
      MutexLock lock(mu_);
      shutting_down_ = true;
    }
    wake_.NotifyAll();
    for (std::thread& worker : workers_) {
      if (worker.joinable()) worker.join();
    }
  }

  /// Enqueues a task. Returns true if the pool accepted it (it will run
  /// even if Shutdown begins immediately afterwards) and false if the
  /// pool is already shutting down (the task is destroyed, never run).
  [[nodiscard]] bool Submit(std::function<void()> task) VFPS_EXCLUDES(mu_) {
    {
      MutexLock lock(mu_);
      if (shutting_down_) return false;
      queue_.push_back(std::move(task));
      ++pending_;
    }
    wake_.NotifyOne();
    return true;
  }

  /// Blocks until every task submitted so far has finished.
  void Wait() VFPS_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    while (pending_ != 0) idle_.Wait(mu_);
  }

  /// Number of worker threads.
  size_t size() const { return workers_.size(); }

 private:
  void WorkerLoop() VFPS_EXCLUDES(mu_) {
    while (true) {
      std::function<void()> task;
      {
        MutexLock lock(mu_);
        while (!shutting_down_ && queue_.empty()) wake_.Wait(mu_);
        // Shutdown drains: exit only once the queue is empty.
        if (queue_.empty()) return;
        task = std::move(queue_.front());
        queue_.pop_front();
      }
      task();
      {
        MutexLock lock(mu_);
        if (--pending_ == 0) idle_.NotifyAll();
      }
    }
  }

  Mutex mu_{LockRank::kThreadPool, "thread_pool"};
  CondVar wake_;
  CondVar idle_;
  std::deque<std::function<void()>> queue_ VFPS_GUARDED_BY(mu_);
  /// Written once by the constructor before any concurrent access;
  /// read-only afterwards (join/size), so unguarded by design.
  std::vector<std::thread> workers_;
  size_t pending_ VFPS_GUARDED_BY(mu_) = 0;
  bool shutting_down_ VFPS_GUARDED_BY(mu_) = false;
};

}  // namespace vfps

#endif  // VFPS_UTIL_THREAD_POOL_H_
