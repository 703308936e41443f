// Copyright 2026 The vfps Authors.
// Tests for the epoch-based reclamation machinery (src/util/epoch.h):
// pin/unpin lifecycle, deferred reclamation order, the reclaim-while-
// pinned refusal, reader synchronization, the sanctioned publication
// wrappers (EpochPtr/EpochSlotArray/ReaderLocal), and a threaded soak
// (tagged `concurrency` for the TSan CI job). Under VFPS_DEBUG_INVARIANTS
// the death tests additionally prove that lock-rank violations involving
// the epoch locks abort.

#include "src/util/epoch.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "src/util/sync.h"

namespace vfps {
namespace {

// --- pin / unpin -------------------------------------------------------------

TEST(EpochTest, PinUnpinLifecycle) {
  EpochManager epoch;
  EXPECT_EQ(epoch.pinned_readers(), 0u);
  EXPECT_FALSE(EpochManager::CallerPinned());

  const size_t slot = epoch.Pin();
  EXPECT_LT(slot, EpochManager::kMaxReaders);
  EXPECT_EQ(epoch.pinned_readers(), 1u);
  EXPECT_TRUE(EpochManager::CallerPinned());

  epoch.Unpin(slot);
  EXPECT_EQ(epoch.pinned_readers(), 0u);
  EXPECT_FALSE(EpochManager::CallerPinned());
}

TEST(EpochTest, PinGuardReleasesOnScopeExit) {
  EpochManager epoch;
  {
    EpochManager::PinGuard pin(&epoch);
    EXPECT_LT(pin.slot(), EpochManager::kMaxReaders);
    EXPECT_EQ(epoch.pinned_readers(), 1u);
  }
  EXPECT_EQ(epoch.pinned_readers(), 0u);
}

TEST(EpochTest, NestedPinsUseDistinctSlots) {
  EpochManager epoch;
  const size_t a = epoch.Pin();
  const size_t b = epoch.Pin();
  EXPECT_NE(a, b);
  EXPECT_EQ(epoch.pinned_readers(), 2u);
  EXPECT_TRUE(EpochManager::CallerPinned());
  epoch.Unpin(b);
  // Depth-counted: still pinned until the outer pin releases too.
  EXPECT_TRUE(EpochManager::CallerPinned());
  epoch.Unpin(a);
  EXPECT_FALSE(EpochManager::CallerPinned());
}

TEST(EpochTest, PinDepthIsPerThread) {
  EpochManager epoch;
  EpochManager::PinGuard pin(&epoch);
  bool other_thread_pinned = true;
  std::thread checker(
      [&] { other_thread_pinned = EpochManager::CallerPinned(); });
  checker.join();
  EXPECT_FALSE(other_thread_pinned);
  EXPECT_TRUE(EpochManager::CallerPinned());
}

// --- retire / reclaim --------------------------------------------------------

TEST(EpochTest, RetireWithoutReadersReclaimsImmediately) {
  EpochManager epoch;
  int runs = 0;
  epoch.Retire([&runs] { ++runs; });
  EXPECT_EQ(epoch.limbo_depth(), 1u);
  EXPECT_EQ(epoch.TryReclaim(), 1u);
  EXPECT_EQ(runs, 1);
  EXPECT_EQ(epoch.limbo_depth(), 0u);
  EXPECT_EQ(epoch.retired_total(), 1u);
  EXPECT_EQ(epoch.reclaimed_total(), 1u);
}

TEST(EpochTest, DeletersRunInRetirementOrder) {
  EpochManager epoch;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    epoch.Retire([&order, i] { order.push_back(i); });
  }
  EXPECT_EQ(epoch.TryReclaim(), 5u);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EpochTest, PinnedReaderBlocksReclamation) {
  EpochManager epoch;
  int runs = 0;
  // The reader pins on its own thread (a pin held by the caller would make
  // TryReclaim refuse outright, which is a separate test).
  std::atomic<bool> pinned{false};
  std::atomic<bool> release{false};
  std::thread reader([&] {
    EpochManager::PinGuard pin(&epoch);
    pinned.store(true);
    while (!release.load()) std::this_thread::yield();
  });
  while (!pinned.load()) std::this_thread::yield();

  // Retired after the reader pinned: its epoch stamp is >= the pin.
  epoch.Retire([&runs] { ++runs; });
  EXPECT_EQ(epoch.TryReclaim(), 0u);
  EXPECT_EQ(runs, 0);
  EXPECT_EQ(epoch.limbo_depth(), 1u);

  release.store(true);
  reader.join();
  EXPECT_EQ(epoch.TryReclaim(), 1u);
  EXPECT_EQ(runs, 1);
}

TEST(EpochTest, LateReaderDoesNotBlockEarlierRetirement) {
  EpochManager epoch;
  int runs = 0;
  epoch.Retire([&runs] { ++runs; });
  // This pin postdates the retirement (its epoch is larger), so the entry
  // is reclaimable even while the pin is held — by another thread, since
  // the caller's own pin makes TryReclaim refuse wholesale.
  EpochManager::PinGuard pin(&epoch);
  size_t reclaimed = 0;
  std::thread reclaimer([&] { reclaimed = epoch.TryReclaim(); });
  reclaimer.join();
  EXPECT_EQ(reclaimed, 1u);
  EXPECT_EQ(runs, 1);
}

TEST(EpochTest, TryReclaimRefusesUnderCallersOwnPin) {
  EpochManager epoch;
  int runs = 0;
  epoch.Retire([&runs] { ++runs; });
  {
    EpochManager::PinGuard pin(&epoch);
    // Refusal is unconditional under a pin — even for entries this pin
    // could not reference (reclaiming under one's own pin could destroy
    // the snapshot being read).
    EXPECT_EQ(epoch.TryReclaim(), 0u);
    EXPECT_EQ(runs, 0);
  }
  EXPECT_EQ(epoch.TryReclaim(), 1u);
  EXPECT_EQ(runs, 1);
}

TEST(EpochTest, DestructorDrainsLimbo) {
  int runs = 0;
  {
    EpochManager epoch;
    epoch.Retire([&runs] { ++runs; });
    epoch.Retire([&runs] { ++runs; });
  }
  EXPECT_EQ(runs, 2);
}

// --- SynchronizeReaders ------------------------------------------------------

TEST(EpochTest, SynchronizeReadersWaitsForPriorPins) {
  EpochManager epoch;
  std::atomic<bool> pinned{false};
  std::atomic<bool> release{false};
  std::atomic<bool> synced{false};
  std::thread reader([&] {
    EpochManager::PinGuard pin(&epoch);
    pinned.store(true);
    while (!release.load()) std::this_thread::yield();
  });
  while (!pinned.load()) std::this_thread::yield();

  std::thread syncer([&] {
    epoch.SynchronizeReaders();
    synced.store(true);
  });
  // The reader is still pinned: synchronization must not complete.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(synced.load());

  release.store(true);
  reader.join();
  syncer.join();
  EXPECT_TRUE(synced.load());
}

TEST(EpochTest, SynchronizeReadersIgnoresLaterPins) {
  EpochManager epoch;
  // A pin taken after the fence epoch must not delay the drain; with no
  // prior reader the call returns immediately even while we hold a fresh
  // pin on another thread.
  std::atomic<bool> pinned{false};
  std::atomic<bool> release{false};
  std::thread reader([&] {
    // Pin strictly after SynchronizeReaders advanced the epoch.
    while (!pinned.load()) std::this_thread::yield();
    EpochManager::PinGuard pin(&epoch);
    while (!release.load()) std::this_thread::yield();
  });
  epoch.SynchronizeReaders();  // no readers yet: immediate
  pinned.store(true);
  epoch.SynchronizeReaders();  // reader may pin mid-call at a later epoch
  release.store(true);
  reader.join();
}

// --- publication wrappers ----------------------------------------------------

/// Counts live instances so reclamation can be asserted exactly.
struct Tracked {
  explicit Tracked(int v) : value(v) { ++live; }
  ~Tracked() { --live; }
  int value;
  static std::atomic<int> live;
};
std::atomic<int> Tracked::live{0};

TEST(EpochTest, EpochPtrPublishRetiresSuperseded) {
  {
    EpochManager epoch;
    EpochPtr<Tracked> slot;
    EXPECT_EQ(slot.Load(), nullptr);
    slot.Publish(new Tracked(1), &epoch);
    EXPECT_EQ(slot.Load()->value, 1);
    EXPECT_EQ(epoch.limbo_depth(), 0u);  // nothing superseded yet

    std::atomic<bool> pinned{false};
    std::atomic<bool> release{false};
    Tracked* seen = nullptr;
    std::thread reader([&] {
      EpochManager::PinGuard pin(&epoch);
      seen = slot.Load();
      pinned.store(true);
      while (!release.load()) std::this_thread::yield();
      EXPECT_EQ(seen->value, 1);  // stays valid for the whole pin
    });
    while (!pinned.load()) std::this_thread::yield();

    slot.Publish(new Tracked(2), &epoch);
    EXPECT_EQ(slot.Load()->value, 2);
    EXPECT_EQ(epoch.limbo_depth(), 1u);
    EXPECT_EQ(epoch.TryReclaim(), 0u);  // v1 still pinned
    EXPECT_EQ(Tracked::live.load(), 2);

    release.store(true);
    reader.join();
    EXPECT_EQ(epoch.TryReclaim(), 1u);
    EXPECT_EQ(Tracked::live.load(), 1);
  }
  // EpochPtr's destructor frees the current version.
  EXPECT_EQ(Tracked::live.load(), 0);
}

TEST(EpochTest, EpochSlotArrayPublishLoadAndClear) {
  {
    EpochManager epoch;
    EpochSlotArray<Tracked> lists;
    EXPECT_EQ(lists.Load(0), nullptr);
    // Scattered indices exercise several directory chunks.
    const size_t indices[] = {0, 1, 1023, 1024, 70000};
    int v = 0;
    for (size_t i : indices) lists.Publish(i, new Tracked(++v), &epoch);
    v = 0;
    for (size_t i : indices) {
      ASSERT_NE(lists.Load(i), nullptr);
      EXPECT_EQ(lists.Load(i)->value, ++v);
    }
    EXPECT_EQ(lists.Load(2), nullptr);  // untouched neighbors stay empty

    lists.Publish(1023, new Tracked(99), &epoch);  // replace
    lists.Publish(1024, nullptr, &epoch);          // clear
    EXPECT_EQ(lists.Load(1023)->value, 99);
    EXPECT_EQ(lists.Load(1024), nullptr);
    EXPECT_EQ(epoch.limbo_depth(), 2u);
    EXPECT_EQ(epoch.TryReclaim(), 2u);
    EXPECT_EQ(Tracked::live.load(), 4);
  }
  EXPECT_EQ(Tracked::live.load(), 0);
}

TEST(EpochTest, ReaderLocalCreatesOncePerSlot) {
  ReaderLocal<Tracked> contexts;
  Tracked* first = contexts.GetOrCreate(3, [] { return new Tracked(7); });
  Tracked* again = contexts.GetOrCreate(3, [] { return new Tracked(8); });
  EXPECT_EQ(first, again);
  EXPECT_EQ(first->value, 7);
  size_t visited = 0;
  contexts.ForEach([&](Tracked* t) {
    ++visited;
    EXPECT_EQ(t->value, 7);
  });
  EXPECT_EQ(visited, 1u);
}

// --- threaded soak -----------------------------------------------------------

TEST(EpochTest, ConcurrentPublishReadReclaimSoak) {
  constexpr int kReaders = 4;
  constexpr int kVersions = 2000;
  {
    EpochManager epoch;
    EpochPtr<Tracked> slot;
    slot.Publish(new Tracked(0), &epoch);
    std::atomic<bool> stop{false};

    std::vector<std::thread> readers;
    readers.reserve(kReaders);
    for (int t = 0; t < kReaders; ++t) {
      readers.emplace_back([&] {
        // sync-relaxed-ok: stop is an independent control flag.
        while (!stop.load(std::memory_order_relaxed)) {
          EpochManager::PinGuard pin(&epoch);
          Tracked* cur = slot.Load();
          ASSERT_NE(cur, nullptr);
          // Values are published in increasing order; a reclaimed-under-us
          // snapshot would trip TSan/ASan here.
          ASSERT_GE(cur->value, 0);
          ASSERT_LT(cur->value, kVersions);
        }
      });
    }

    for (int v = 1; v < kVersions; ++v) {
      slot.Publish(new Tracked(v), &epoch);
      if (v % 16 == 0) epoch.TryReclaim();
    }
    stop.store(true);
    for (std::thread& t : readers) t.join();
    epoch.TryReclaim();
    EXPECT_EQ(epoch.retired_total(), static_cast<uint64_t>(kVersions - 1));
    EXPECT_EQ(epoch.reclaimed_total(), epoch.retired_total());
    EXPECT_EQ(epoch.pinned_readers(), 0u);
  }
  EXPECT_EQ(Tracked::live.load(), 0);
}

TEST(EpochTest, PinContentionBeyondSlotCapacitySoak) {
  // More pin/unpin traffic than slots: threads cycle pins so every thread
  // repeatedly waits for and claims slots. Completion is the assertion.
  EpochManager epoch;
  constexpr int kThreads = 8;
  constexpr int kItersPerThread = 3000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kItersPerThread; ++i) {
        EpochManager::PinGuard pin(&epoch);
        ASSERT_LT(pin.slot(), EpochManager::kMaxReaders);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(epoch.pinned_readers(), 0u);
}

// --- death tests (validator active only under VFPS_DEBUG_INVARIANTS) --------

#ifdef VFPS_DEBUG_INVARIANTS

TEST(EpochDeathTest, WriterLockAfterReclaimLockAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        // The documented order is writer (kMatcherWriter=150) before limbo
        // (kEpochReclaim=250); taking a writer-ranked lock under a
        // reclaim-ranked one — a deleter grabbing the matcher lock while
        // the limbo lock is still held — must abort.
        Mutex reclaim(LockRank::kEpochReclaim, "epoch_limbo_like");
        Mutex writer(LockRank::kMatcherWriter, "matcher_writer_like");
        MutexLock l1(reclaim);
        MutexLock l2(writer);
      },
      "lock-rank violation");
}

TEST(EpochDeathTest, DestructionWhilePinnedAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        auto epoch = std::make_unique<EpochManager>();
        const size_t slot = epoch->Pin();
        (void)slot;
        epoch.reset();  // CHECK(pinned_readers() == 0) must fire
      },
      "pinned_readers");
}

#endif  // VFPS_DEBUG_INVARIANTS

}  // namespace
}  // namespace vfps
