// Copyright 2026 The vfps Authors.
// MatchWorker tests, including the shutdown-semantics regressions: the
// documented contract is that destruction drains the queue (every accepted
// job runs) and that Submit racing with Shutdown/destruction is rejected
// cleanly instead of aborting. The concurrent cases are tagged with the
// `concurrency` ctest label so the TSan CI job can select them.

#include "src/util/match_worker.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

namespace vfps {
namespace {

TEST(MatchWorkerTest, RunsAllJobs) {
  MatchWorker worker;
  std::atomic<int> counter{0};
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(worker.Submit([&counter] { counter.fetch_add(1); }));
  }
  worker.Wait();
  EXPECT_EQ(counter.load(), 1000);
}

// One thread runs the jobs, so they run in submission order (the server
// relies on this for per-connection request order).
TEST(MatchWorkerTest, RunsJobsInSubmissionOrder) {
  MatchWorker worker;
  std::vector<int> order;
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(worker.Submit([&order, i] { order.push_back(i); }));
  }
  worker.Wait();
  ASSERT_EQ(order.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(order[i], i);
}

TEST(MatchWorkerTest, WaitWithNoJobsReturnsImmediately) {
  MatchWorker worker;
  worker.Wait();
  SUCCEED();
}

TEST(MatchWorkerTest, ReusableAcrossWaves) {
  MatchWorker worker;
  std::atomic<int> counter{0};
  for (int wave = 0; wave < 10; ++wave) {
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE(worker.Submit([&counter] { counter.fetch_add(1); }));
    }
    worker.Wait();
    EXPECT_EQ(counter.load(), (wave + 1) * 50);
  }
}

TEST(MatchWorkerTest, DestructorDrainsQueue) {
  std::atomic<int> counter{0};
  {
    MatchWorker worker;
    for (int i = 0; i < 200; ++i) {
      ASSERT_TRUE(worker.Submit([&counter] { counter.fetch_add(1); }));
    }
  }  // destructor joins
  EXPECT_EQ(counter.load(), 200);
}

// Destruction with a deep queue: every accepted job must still run, even
// the ones enqueued behind a deliberately slow one.
TEST(MatchWorkerTest, DestructorDrainsTasksStillQueuedAtShutdown) {
  std::atomic<int> counter{0};
  {
    MatchWorker worker;
    ASSERT_TRUE(worker.Submit(
        [] { std::this_thread::sleep_for(std::chrono::milliseconds(20)); }));
    for (int i = 0; i < 500; ++i) {
      ASSERT_TRUE(worker.Submit([&counter] { counter.fetch_add(1); }));
    }
    // The destructor runs while ~all 500 jobs are still queued behind the
    // sleeper; the drain contract says they all execute anyway.
  }
  EXPECT_EQ(counter.load(), 500);
}

TEST(MatchWorkerTest, SubmitAfterShutdownIsRejected) {
  MatchWorker worker;
  worker.Shutdown();
  std::atomic<int> counter{0};
  EXPECT_FALSE(worker.Submit([&counter] { counter.fetch_add(1); }));
  EXPECT_EQ(counter.load(), 0);
  worker.Shutdown();  // idempotent
}

// Threads calling Submit while another thread shuts the worker down. Every
// Submit must either be accepted (and then run before Shutdown returns) or
// rejected; nothing may crash or be dropped. Run under TSan this also
// proves the handoff is race-free.
TEST(MatchWorkerTest, ConcurrentSubmitVersusShutdown) {
  for (int round = 0; round < 20; ++round) {
    MatchWorker worker;
    std::atomic<int> executed{0};
    std::atomic<int> accepted{0};
    std::vector<std::thread> submitters;
    submitters.reserve(3);
    for (int t = 0; t < 3; ++t) {
      submitters.emplace_back([&worker, &executed, &accepted] {
        while (worker.Submit([&executed] { executed.fetch_add(1); })) {
          accepted.fetch_add(1);
          std::this_thread::yield();
        }
      });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    worker.Shutdown();  // drains: all accepted jobs run before this returns
    for (std::thread& t : submitters) t.join();
    EXPECT_EQ(executed.load(), accepted.load());
  }
}

// Jobs may submit follow-up work; once shutdown begins such resubmission
// is rejected rather than deadlocking or aborting the drain.
TEST(MatchWorkerTest, ResubmissionFromTaskDuringShutdownIsRejected) {
  std::atomic<int> rejected{0};
  std::atomic<int> executed{0};
  {
    MatchWorker worker;
    for (int i = 0; i < 100; ++i) {
      ASSERT_TRUE(worker.Submit([&worker, &rejected, &executed] {
        executed.fetch_add(1);
        if (!worker.Submit([] {})) rejected.fetch_add(1);
      }));
    }
    // Destruction begins with most jobs queued; their resubmissions into
    // the draining worker must fail cleanly.
  }
  EXPECT_EQ(executed.load(), 100);
  EXPECT_GT(rejected.load(), 0);
}

}  // namespace
}  // namespace vfps
