// Copyright 2026 The vfps Authors.
// Tests for the annotated synchronization primitives (src/util/sync.h):
// functional coverage of Mutex/SharedMutex/CondVar/SerialChecker under
// real contention (tagged `concurrency` for the TSan CI job), plus — under
// VFPS_DEBUG_INVARIANTS — death tests proving the lock-rank validator and
// the serial-entry checker actually abort on violations. The death tests
// compile out with the validator itself, so the TSan preset (which does
// not define VFPS_DEBUG_INVARIANTS) never forks under instrumentation.

#include "src/util/sync.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <deque>
#include <thread>
#include <vector>

namespace vfps {
namespace {

// --- Mutex / MutexLock -------------------------------------------------------

TEST(SyncTest, MutexSerializesGuardedCounter) {
  Mutex mu(LockRank::kTelemetry, "test_counter");
  int counter = 0;  // guarded by mu (annotation elided: local test state)
  constexpr int kThreads = 8;
  constexpr int kIters = 2000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        MutexLock lock(mu);
        ++counter;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  MutexLock lock(mu);
  EXPECT_EQ(counter, kThreads * kIters);
}

TEST(SyncTest, TryLockFailsWhileHeldElsewhere) {
  Mutex mu(LockRank::kTelemetry, "test_trylock");
  mu.Lock();
  std::atomic<int> observed{-1};
  std::thread contender([&] {
    // Held by the main thread: must fail without blocking.
    observed.store(mu.TryLock() ? 1 : 0);
  });
  contender.join();
  EXPECT_EQ(observed.load(), 0);
  mu.Unlock();
  std::thread winner([&] {
    ASSERT_TRUE(mu.TryLock());
    mu.Unlock();
  });
  winner.join();
}

TEST(SyncTest, MutexReportsRankAndName) {
  Mutex mu(LockRank::kFailPoints, "named");
  EXPECT_EQ(mu.rank(), LockRank::kFailPoints);
  EXPECT_STREQ(mu.name(), "named");
}

TEST(SyncTest, IncreasingRankOrderIsLegal) {
  // The full legal chain of today's hierarchy, nested in order: the
  // validator must stay silent.
  Mutex verify(LockRank::kVerifyHarness, "verify");
  Mutex worker(LockRank::kMatchWorker, "worker");
  Mutex fail(LockRank::kFailPoints, "failpoints");
  Mutex telemetry(LockRank::kTelemetry, "telemetry");
  MutexLock l1(verify);
  MutexLock l2(worker);
  MutexLock l3(fail);
  MutexLock l4(telemetry);
  SUCCEED();
}

// --- SharedMutex / ReaderLock / WriterLock -----------------------------------

TEST(SyncTest, SharedMutexAdmitsConcurrentReaders) {
  SharedMutex mu(LockRank::kTelemetry, "test_rw");
  std::atomic<int> readers_inside{0};
  std::atomic<int> max_readers{0};
  constexpr int kReaders = 4;
  std::vector<std::thread> threads;
  threads.reserve(kReaders);
  for (int t = 0; t < kReaders; ++t) {
    threads.emplace_back([&] {
      ReaderLock lock(mu);
      const int inside = readers_inside.fetch_add(1) + 1;
      int seen = max_readers.load();
      while (inside > seen && !max_readers.compare_exchange_weak(seen, inside)) {
      }
      // Linger so the readers actually overlap.
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      readers_inside.fetch_sub(1);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_GT(max_readers.load(), 1);
}

TEST(SyncTest, WriterLockExcludesReadersAndWriters) {
  SharedMutex mu(LockRank::kTelemetry, "test_rw_excl");
  int value = 0;  // guarded by mu
  constexpr int kWriters = 4;
  constexpr int kIters = 1000;
  std::vector<std::thread> threads;
  threads.reserve(kWriters + 2);
  for (int t = 0; t < kWriters; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        WriterLock lock(mu);
        ++value;
      }
    });
  }
  std::atomic<bool> stop{false};
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&] {
      while (!stop.load()) {
        ReaderLock lock(mu);
        // A torn read would trip TSan; the assert catches logic bugs.
        ASSERT_GE(value, 0);
      }
    });
  }
  for (int t = 0; t < kWriters; ++t) threads[t].join();
  stop.store(true);
  for (size_t t = kWriters; t < threads.size(); ++t) threads[t].join();
  WriterLock lock(mu);
  EXPECT_EQ(value, kWriters * kIters);
}

// --- CondVar -----------------------------------------------------------------

TEST(SyncTest, CondVarProducerConsumer) {
  Mutex mu(LockRank::kTelemetry, "test_queue");
  CondVar nonempty;
  std::deque<int> queue;  // guarded by mu
  bool done = false;      // guarded by mu
  constexpr int kItems = 500;

  int64_t consumed_sum = 0;
  std::thread consumer([&] {
    int64_t sum = 0;
    while (true) {
      int item;
      {
        MutexLock lock(mu);
        while (queue.empty() && !done) nonempty.Wait(mu);
        if (queue.empty()) break;
        item = queue.front();
        queue.pop_front();
      }
      sum += item;
    }
    consumed_sum = sum;
  });

  int64_t produced_sum = 0;
  for (int i = 1; i <= kItems; ++i) {
    {
      MutexLock lock(mu);
      queue.push_back(i);
    }
    produced_sum += i;
    nonempty.NotifyOne();
  }
  {
    MutexLock lock(mu);
    done = true;
  }
  nonempty.NotifyAll();
  consumer.join();
  EXPECT_EQ(consumed_sum, produced_sum);
}

// --- SerialChecker -----------------------------------------------------------

int ReentrantEntry(SerialChecker& checker, int depth) {
  VFPS_SERIAL_SCOPE(checker);
  if (depth == 0) return 0;
  // Publish -> handler -> Publish style same-thread re-entrancy is legal.
  return 1 + ReentrantEntry(checker, depth - 1);
}

TEST(SyncTest, SerialCheckerAllowsSameThreadReentrancy) {
  SerialChecker checker;
  EXPECT_EQ(ReentrantEntry(checker, 5), 5);
  // And the checker is reusable after the scopes fully unwind — including
  // from a different thread, since no thread is inside.
  std::thread other([&] { EXPECT_EQ(ReentrantEntry(checker, 2), 2); });
  other.join();
}

TEST(SyncTest, SerialCheckerAllowsSequentialCrossThreadEntry) {
  SerialChecker checker;
  for (int t = 0; t < 4; ++t) {
    std::thread worker([&] { VFPS_SERIAL_SCOPE(checker); });
    worker.join();
  }
  SUCCEED();
}

// --- death tests (validator active only under VFPS_DEBUG_INVARIANTS) --------

#ifdef VFPS_DEBUG_INVARIANTS

TEST(SyncDeathTest, OutOfOrderAcquisitionAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Mutex high(LockRank::kTelemetry, "high_rank");
        Mutex low(LockRank::kMatchWorker, "low_rank");
        MutexLock l1(high);
        MutexLock l2(low);  // rank 200 after rank 400: must abort
      },
      "lock-rank violation");
}

TEST(SyncDeathTest, ReentrantAcquisitionAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Mutex mu(LockRank::kTelemetry, "reentrant");
        mu.Lock();
        mu.Lock();  // same lock, same thread: guaranteed deadlock
      },
      "lock-rank violation.*re-entrant");
}

TEST(SyncDeathTest, SameRankAcrossInstancesAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        // Two instances of the same subsystem rank: AB/BA hazard.
        Mutex a(LockRank::kFailPoints, "instance_a");
        Mutex b(LockRank::kFailPoints, "instance_b");
        MutexLock l1(a);
        MutexLock l2(b);
      },
      "lock-rank violation");
}

TEST(SyncDeathTest, ForeignReleaseAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Mutex mu(LockRank::kTelemetry, "foreign");
        mu.Unlock();  // never acquired by this thread
      },
      "does not hold");
}

TEST(SyncDeathTest, SerialCheckerConcurrentEntryAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        SerialChecker checker;
        std::atomic<bool> inside{false};
        std::atomic<bool> quit{false};
        std::thread occupant([&] {
          VFPS_SERIAL_SCOPE(checker);
          inside.store(true);
          while (!quit.load()) std::this_thread::yield();
        });
        while (!inside.load()) std::this_thread::yield();
        {
          VFPS_SERIAL_SCOPE(checker);  // second thread inside: must abort
        }
        quit.store(true);
        occupant.join();
      },
      "serial-contract violation");
}

#endif  // VFPS_DEBUG_INVARIANTS

}  // namespace
}  // namespace vfps
