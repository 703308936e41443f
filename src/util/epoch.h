// Copyright 2026 The vfps Authors.
// Epoch-based reclamation for the lock-free subscription-churn path
// (docs/CONCURRENCY.md, "Epoch-based snapshots"). The scheme is the classic
// three-piece design:
//
//   * readers pin the current epoch in a per-reader slot before touching
//     any published snapshot and unpin on exit (EpochManager::PinGuard);
//   * writers publish replacement snapshots with an atomic pointer swap
//     (EpochPtr / EpochSlotArray — the only sanctioned swap primitives,
//     enforced by scripts/check_sync_discipline.sh) and push the superseded
//     version onto an epoch-stamped limbo list (Retire);
//   * a superseded version is destroyed only once every reader slot is
//     either free or pinned at a later epoch than its retirement
//     (TryReclaim), so no reader can still hold a reference.
//
// Memory-ordering contract: every operation on the global epoch, the
// reader slots, and published pointers is seq_cst. The correctness
// argument runs over the single total order S of seq_cst operations: for a
// reader pin P followed (program order) by a snapshot load L, and a writer
// swap W followed by a slot scan C, either C observes P — and the reader's
// epoch blocks reclamation — or C precedes P in S, hence W precedes L and
// the reader observes the post-swap pointer, never the retired version.
// x86 makes the loads free and the pin's RMW one locked instruction; this
// is not a hot-loop cost worth relaxing, and seq_cst keeps the proof
// two lines long.
//
// Lock ranking: the limbo list is guarded by a Mutex at
// LockRank::kEpochReclaim; deleters always run with it released (they may
// touch writer-side state such as the predicate table, whose callers run
// under LockRank::kMatcherWriter < kEpochReclaim).

#ifndef VFPS_UTIL_EPOCH_H_
#define VFPS_UTIL_EPOCH_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/util/macros.h"
#include "src/util/sync.h"

namespace vfps {

/// Epoch clock, reader slots, and the limbo list of one churn domain
/// (one per concurrent clustered matcher).
class EpochManager {
 public:
  /// Concurrent reader limit. Pins beyond this spin-wait for a slot to
  /// free up; 64 cache-line-sized slots cost 4 KiB and cover any sane
  /// thread count.
  static constexpr size_t kMaxReaders = 64;

  EpochManager() = default;
  ~EpochManager();

  EpochManager(const EpochManager&) = delete;
  EpochManager& operator=(const EpochManager&) = delete;

  // --- reader side (lock-free) ---------------------------------------------

  /// Claims a reader slot and pins the current epoch in it. Returns the
  /// slot index (stable for the duration of the pin; usable as a scratch
  /// index, see ReaderLocal). Spin-waits when all slots are busy.
  size_t Pin();

  /// Releases the pin taken by Pin(); the slot becomes claimable again.
  void Unpin(size_t slot);

  /// RAII pin for the scope of one read-side operation.
  class PinGuard {
   public:
    explicit PinGuard(EpochManager* manager)
        : manager_(manager), slot_(manager->Pin()) {}
    ~PinGuard() { manager_->Unpin(slot_); }

    PinGuard(const PinGuard&) = delete;
    PinGuard& operator=(const PinGuard&) = delete;

    /// The pinned reader slot (dense in [0, kMaxReaders)).
    size_t slot() const { return slot_; }

   private:
    EpochManager* manager_;
    size_t slot_;
  };

  /// True when the calling thread currently holds any epoch pin (on any
  /// manager). TryReclaim refuses under a pin; tests assert the refusal.
  static bool CallerPinned();

  // --- writer side -----------------------------------------------------------

  /// Stamps `deleter` with the current epoch, advances the epoch, and
  /// queues it on the limbo list. The deleter runs from a later
  /// TryReclaim() once every reader pinned at or before the stamped epoch
  /// has unpinned. Callers must have already unlinked the object from all
  /// published pointers (EpochPtr/EpochSlotArray::Publish do this).
  void Retire(std::function<void()> deleter);

  /// Runs the deleters of every limbo entry whose epoch has drained.
  /// Refuses (returns 0) when the calling thread holds a pin — reclaiming
  /// under one's own pin could destroy the snapshot being read. Deleters
  /// run with the limbo lock released. Returns the number reclaimed.
  size_t TryReclaim();

  /// Waits until every reader pinned before the call has unpinned (new
  /// pins may overlap freely). The two-phase reorganizer move publishes
  /// the target-list add, synchronizes, then publishes the source-list
  /// remove: any reader that could miss the subscription in the target
  /// snapshot is guaranteed to still find it in the source snapshot.
  void SynchronizeReaders();

  // --- introspection (vfps_epoch_* gauges) -----------------------------------

  /// Reader slots currently pinned.
  size_t pinned_readers() const;
  /// Limbo entries awaiting reclamation.
  size_t limbo_depth() const;
  /// Deleters run since construction.
  uint64_t reclaimed_total() const { return reclaimed_total_.load(); }
  /// Retire() calls since construction.
  uint64_t retired_total() const { return retired_total_.load(); }
  /// Current epoch value (starts at 1, advances once per Retire /
  /// SynchronizeReaders).
  uint64_t current_epoch() const { return global_epoch_.load(); }

 private:
  /// Sentinel stored in a free reader slot; doubles as "no pin" in the
  /// min-scan (any retirement epoch is below it).
  static constexpr uint64_t kFreeSlot = ~uint64_t{0};

  struct alignas(64) ReaderSlot {
    std::atomic<uint64_t> epoch{kFreeSlot};
  };

  /// Smallest pinned epoch across all reader slots (kFreeSlot when none).
  uint64_t MinPinnedEpoch() const;

  std::atomic<uint64_t> global_epoch_{1};
  ReaderSlot slots_[kMaxReaders];

  struct RetiredEntry {
    uint64_t epoch;
    std::function<void()> deleter;
  };

  mutable Mutex limbo_mu_{LockRank::kEpochReclaim, "epoch_limbo"};
  /// Epoch-ordered FIFO (Retire stamps under the lock, so epochs are
  /// monotone front to back and reclamation pops a prefix).
  std::deque<RetiredEntry> limbo_ VFPS_GUARDED_BY(limbo_mu_);

  std::atomic<uint64_t> retired_total_{0};
  std::atomic<uint64_t> reclaimed_total_{0};
};

/// A single published-snapshot slot. Readers Load() under a pin; writers
/// Publish() a replacement and the superseded snapshot is retired to the
/// manager's limbo list. This and EpochSlotArray are the only places an
/// atomic pointer swap may live (lint rule: sync-epoch-ok).
///
/// A serial owner (no concurrent readers) passes a null manager: the
/// superseded snapshot is then destroyed at once, and the owner may also
/// edit the current snapshot in place. The clustered matchers use one
/// layout for both builds this way (see ReplaceOrEdit below).
template <typename T>
class EpochPtr {
 public:
  EpochPtr() = default;
  ~EpochPtr() { delete ptr_.load(); }

  EpochPtr(const EpochPtr&) = delete;
  EpochPtr& operator=(const EpochPtr&) = delete;

  /// Current snapshot (may be nullptr before the first Publish). Caller
  /// must hold an epoch pin on the owning manager, or be its writer.
  T* Load() const { return ptr_.load(); }

  /// Swaps in `next` (ownership transfers to this slot) and retires the
  /// superseded snapshot via `manager`, or deletes it when `manager` is
  /// nullptr (serial owner).
  void Publish(T* next, EpochManager* manager) {
    T* old = ptr_.exchange(next);
    if (old == nullptr) return;
    if (manager == nullptr) {
      delete old;
    } else {
      manager->Retire([old] { delete old; });
    }
  }

 private:
  std::atomic<T*> ptr_{nullptr};
};

/// The writer side of one epoch domain: applies copy-on-write edits to
/// published slots and owns the domain's EpochManager.
///
/// Outside a Batch every edit copies the slot's snapshot, edits the copy
/// and publishes it at once. Inside a Batch the first edit of a slot copies
/// it and later edits of the same slot reuse that private copy; the copies
/// are published together, in first-edit order, when the outermost Batch
/// closes. A pass that moves many subscriptions through one list thus
/// copies the list once, not once per move. The writer reads its own
/// staged state through Current (readers only ever see published state).
/// Writers serialize externally.
class EpochPublisher {
 public:
  EpochPublisher() = default;
  ~EpochPublisher() { VFPS_CHECK(depth_ == 0 && staged_.empty()); }

  EpochPublisher(const EpochPublisher&) = delete;
  EpochPublisher& operator=(const EpochPublisher&) = delete;

  EpochManager* manager() { return &manager_; }
  const EpochManager* manager() const { return &manager_; }

  /// The writer's view of `slot`: its staged successor, or the published
  /// snapshot.
  template <typename T>
  T* Current(const EpochPtr<T>* slot) const {
    auto it = index_.find(slot);
    return it == index_.end() ? slot->Load()
                              : static_cast<T*>(staged_[it->second].next);
  }

  /// Applies `edit` to a private copy of `slot` (made by `copy`, which gets
  /// the current snapshot or nullptr and returns a fresh object) and
  /// publishes it — at once, or when the enclosing Batch closes. Returns
  /// whatever `edit` returns.
  template <typename T, typename Copy, typename Edit>
  auto EditSlot(EpochPtr<T>* slot, Copy&& copy, Edit&& edit) {
    T* next = nullptr;
    auto it = index_.find(slot);
    if (it == index_.end()) {
      next = copy(slot->Load());
      Stage(slot, next);
    } else {
      Staged& staged = staged_[it->second];
      if (staged.next == nullptr) staged.next = copy(nullptr);
      next = static_cast<T*>(staged.next);
    }
    CommitUnlessBatched commit{this};
    return edit(*next);
  }

  /// Stages `next` (nullptr to clear the slot) as the slot's successor,
  /// discarding a staged private copy.
  template <typename T>
  void Replace(EpochPtr<T>* slot, T* next) {
    auto it = index_.find(slot);
    if (it == index_.end()) {
      Stage(slot, next);
    } else {
      Staged& staged = staged_[it->second];
      staged.discard(staged.next);
      staged.next = next;
    }
    CommitUnlessBatched commit{this};
  }

  /// Defers publication of every edit made while it is open (nestable).
  class Batch {
   public:
    explicit Batch(EpochPublisher* publisher) : publisher_(publisher) {
      if (publisher_ != nullptr) ++publisher_->depth_;
    }
    ~Batch() {
      if (publisher_ != nullptr && --publisher_->depth_ == 0) {
        publisher_->Commit();
      }
    }
    Batch(const Batch&) = delete;
    Batch& operator=(const Batch&) = delete;

   private:
    EpochPublisher* publisher_;
  };

 private:
  struct Staged {
    void* slot;
    void* next;
    void (*publish)(void* slot, void* next, EpochManager* manager);
    void (*discard)(void* next);
  };
  struct CommitUnlessBatched {
    EpochPublisher* publisher;
    ~CommitUnlessBatched() {
      if (publisher->depth_ == 0) publisher->Commit();
    }
  };

  template <typename T>
  void Stage(EpochPtr<T>* slot, T* next) {
    index_.emplace(slot, staged_.size());
    staged_.push_back(Staged{
        slot, next,
        [](void* s, void* n, EpochManager* m) {
          static_cast<EpochPtr<T>*>(s)->Publish(static_cast<T*>(n), m);
        },
        [](void* n) { delete static_cast<T*>(n); }});
  }

  void Commit() {
    for (const Staged& staged : staged_) {
      staged.publish(staged.slot, staged.next, &manager_);
    }
    staged_.clear();
    index_.clear();
  }

  EpochManager manager_;
  int depth_ = 0;
  std::vector<Staged> staged_;  // first-edit order
  std::unordered_map<const void*, size_t> index_;
};

/// The one mutation step of published state. A serial owner (`publisher`
/// nullptr: no concurrent readers) edits the current snapshot in place,
/// creating it with `copy(nullptr)` if the slot is empty; a concurrent
/// owner goes through EpochPublisher::EditSlot. Returns whatever `edit`
/// returns.
template <typename T, typename Copy, typename Edit>
auto ReplaceOrEdit(EpochPtr<T>* slot, EpochPublisher* publisher, Copy&& copy,
                   Edit&& edit) {
  if (publisher != nullptr) return publisher->EditSlot(slot, copy, edit);
  T* cur = slot->Load();
  if (cur == nullptr) {
    cur = copy(nullptr);
    slot->Publish(cur, nullptr);
  }
  return edit(*cur);
}

/// The writer's view of `slot` (see EpochPublisher::Current).
template <typename T>
T* WriterView(const EpochPtr<T>* slot, const EpochPublisher* publisher) {
  return publisher != nullptr ? publisher->Current(slot) : slot->Load();
}

/// Replaces the slot's snapshot: at once for a serial owner (destroying
/// the old one), staged through `publisher` otherwise.
template <typename T>
void ReplaceSlot(EpochPtr<T>* slot, T* next, EpochPublisher* publisher) {
  if (publisher != nullptr) {
    publisher->Replace(slot, next);
  } else {
    slot->Publish(next, nullptr);
  }
}

/// A grow-only array of published-snapshot slots indexed by a dense id
/// (PredicateId for the per-access-predicate cluster lists, AttributeId
/// for the phase-1 index plane). Two-level: a fixed directory of lazily
/// allocated chunks of EpochPtr, so readers never observe a directory
/// relocation and writers touch exactly one slot per publish.
template <typename T>
class EpochSlotArray {
 public:
  EpochSlotArray() : dir_(new std::atomic<Chunk*>[kMaxChunks]) {
    for (size_t c = 0; c < kMaxChunks; ++c) dir_[c].store(nullptr);
  }

  ~EpochSlotArray() {
    for (size_t c = 0; c < kMaxChunks; ++c) delete dir_[c].load();
  }

  EpochSlotArray(const EpochSlotArray&) = delete;
  EpochSlotArray& operator=(const EpochSlotArray&) = delete;

  /// Snapshot at `index`, or nullptr (also for indexes never published).
  /// Caller must hold an epoch pin, or be the writer.
  T* Load(size_t index) const {
    if (index >= max_slots()) return nullptr;
    const Chunk* chunk = dir_[index >> kChunkBits].load();
    if (chunk == nullptr) return nullptr;
    return chunk->slots[index & (kChunkSize - 1)].Load();
  }

  /// The slot at `index`, allocating its chunk. Writer-side only (callers
  /// serialize).
  EpochPtr<T>* Slot(size_t index) {
    const size_t c = index >> kChunkBits;
    VFPS_CHECK(c < kMaxChunks);
    Chunk* chunk = dir_[c].load();
    if (chunk == nullptr) {
      chunk = new Chunk();
      dir_[c].store(chunk);  // single writer: no CAS needed
    }
    return &chunk->slots[index & (kChunkSize - 1)];
  }

  /// Swaps `next` (may be nullptr to clear) into slot `index`; see
  /// EpochPtr::Publish.
  void Publish(size_t index, T* next, EpochManager* manager) {
    Slot(index)->Publish(next, manager);
  }

  /// Largest publishable index + 1.
  static constexpr size_t max_slots() { return kMaxChunks * kChunkSize; }

 private:
  static constexpr size_t kChunkBits = 10;
  static constexpr size_t kChunkSize = size_t{1} << kChunkBits;
  /// 4096 chunks x 1024 slots = 4M ids; the directory itself is 32 KiB
  /// and allocated eagerly so it never moves.
  static constexpr size_t kMaxChunks = 4096;

  struct Chunk {
    EpochPtr<T> slots[kChunkSize];
  };

  std::unique_ptr<std::atomic<Chunk*>[]> dir_;
};

/// Per-reader-slot scratch objects (match contexts): slot `i` is used
/// exclusively by whichever thread holds reader pin `i`, so after the
/// one-time allocation race there is no sharing.
template <typename T>
class ReaderLocal {
 public:
  ReaderLocal() = default;
  ~ReaderLocal() {
    for (auto& slot : slots_) delete slot.load();
  }

  ReaderLocal(const ReaderLocal&) = delete;
  ReaderLocal& operator=(const ReaderLocal&) = delete;

  /// The scratch object of reader slot `slot`, created on first use.
  template <typename Factory>
  T* GetOrCreate(size_t slot, Factory&& make) {
    VFPS_DCHECK(slot < EpochManager::kMaxReaders);
    T* existing = slots_[slot].load();
    if (existing != nullptr) return existing;
    T* fresh = make();
    T* expected = nullptr;
    if (!slots_[slot].compare_exchange_strong(expected, fresh)) {
      delete fresh;
      return expected;
    }
    return fresh;
  }

  /// Visits every allocated scratch object (writer-side aggregation; the
  /// caller must tolerate concurrent mutation of the visited objects).
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const auto& slot : slots_) {
      T* p = slot.load();
      if (p != nullptr) fn(p);
    }
  }

 private:
  std::atomic<T*> slots_[EpochManager::kMaxReaders] = {};
};

}  // namespace vfps

#endif  // VFPS_UTIL_EPOCH_H_
