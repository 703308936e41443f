// Copyright 2026 The vfps Authors.
// The network server's match worker: one thread that runs submitted jobs
// in FIFO order. The paper's engine is one matching process; vfps_server
// runs every broker call as a job here, off the event loop (see
// net/server.h).
//
// Locking: one Mutex (LockRank::kMatchWorker) guards the queue and the
// lifecycle flag; jobs always run with it released, so a job may take any
// higher-ranked lock (failpoints, telemetry) and may Submit follow-up jobs.

#ifndef VFPS_UTIL_MATCH_WORKER_H_
#define VFPS_UTIL_MATCH_WORKER_H_

#include <deque>
#include <functional>
#include <thread>

#include "src/util/sync.h"

namespace vfps {

/// One worker thread executing submitted closures FIFO. Jobs must not
/// throw (the library is exception-free). Destruction drains the queue:
/// every job accepted by Submit runs before the thread exits. Submit calls
/// that race with Shutdown/destruction are well-defined — they are
/// rejected (return false) instead of enqueued; callers that outlive the
/// worker must simply not call Submit after the destructor has returned.
class MatchWorker {
 public:
  MatchWorker() { thread_ = std::thread([this] { Loop(); }); }

  ~MatchWorker() { Shutdown(); }

  MatchWorker(const MatchWorker&) = delete;
  MatchWorker& operator=(const MatchWorker&) = delete;

  /// Stops accepting work, runs every already-accepted job, and joins the
  /// thread. Idempotent; called by the destructor. Exposed so an owner can
  /// drain the worker before tearing down what its jobs touch, while other
  /// threads may still call Submit — after Shutdown returns their Submits
  /// fail cleanly.
  void Shutdown() VFPS_EXCLUDES(mu_) {
    {
      MutexLock lock(mu_);
      shutting_down_ = true;
    }
    wake_.NotifyOne();
    if (thread_.joinable()) thread_.join();
  }

  /// Enqueues a job. Returns true if the worker accepted it (it will run
  /// even if Shutdown begins immediately afterwards) and false if the
  /// worker is already shutting down (the job is destroyed, never run).
  [[nodiscard]] bool Submit(std::function<void()> job) VFPS_EXCLUDES(mu_) {
    {
      MutexLock lock(mu_);
      if (shutting_down_) return false;
      queue_.push_back(std::move(job));
      ++pending_;
    }
    wake_.NotifyOne();
    return true;
  }

  /// Blocks until every job submitted so far has finished.
  void Wait() VFPS_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    while (pending_ != 0) idle_.Wait(mu_);
  }

 private:
  void Loop() VFPS_EXCLUDES(mu_) {
    while (true) {
      std::function<void()> job;
      {
        MutexLock lock(mu_);
        while (!shutting_down_ && queue_.empty()) wake_.Wait(mu_);
        // Shutdown drains: exit only once the queue is empty.
        if (queue_.empty()) return;
        job = std::move(queue_.front());
        queue_.pop_front();
      }
      job();
      {
        MutexLock lock(mu_);
        if (--pending_ == 0) idle_.NotifyAll();
      }
    }
  }

  Mutex mu_{LockRank::kMatchWorker, "match_worker"};
  CondVar wake_;
  CondVar idle_;
  std::deque<std::function<void()>> queue_ VFPS_GUARDED_BY(mu_);
  size_t pending_ VFPS_GUARDED_BY(mu_) = 0;
  bool shutting_down_ VFPS_GUARDED_BY(mu_) = false;
  /// Started by the constructor after every member above is initialized;
  /// joined by Shutdown.
  std::thread thread_;
};

}  // namespace vfps

#endif  // VFPS_UTIL_MATCH_WORKER_H_
