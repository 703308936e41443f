// Copyright 2026 The vfps Authors.
// Capability-annotated synchronization primitives. Every lock in vfps goes
// through the wrappers here — raw std::mutex / std::shared_mutex /
// std::condition_variable are confined to this directory (enforced by
// scripts/check_sync_discipline.sh) — so that
//
//   1. Clang's thread-safety analysis (-Wthread-safety, on for every clang
//      build) proves at compile time that guarded state is only touched
//      with its lock held (see docs/CONCURRENCY.md for the conventions),
//   2. the debug-build lock-rank validator proves at runtime that locks
//      are only ever acquired in increasing LockRank order — the dynamic
//      orderings (cross-object, cross-subsystem) that static analysis
//      cannot see — aborting with both acquisition stacks on violation,
//   3. single-threaded-by-contract components (Broker, PubSubServer) get a
//      cheap debug checker (SerialChecker) that aborts when two threads
//      enter them concurrently.
//
// The rank validator and SerialChecker compile to nothing unless
// VFPS_DEBUG_INVARIANTS is defined (the debug/asan presets); in release
// builds vfps::Mutex is exactly std::mutex plus a constant member.
//
// VFPS_NO_THREAD_SAFETY_ANALYSIS is the documented escape hatch for code
// the analysis cannot model. Policy: zero uses outside src/util/sync.h;
// any new use must be listed in the waiver table of docs/CONCURRENCY.md.

#ifndef VFPS_UTIL_SYNC_H_
#define VFPS_UTIL_SYNC_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <shared_mutex>
#include <thread>

// --- Clang thread-safety annotation macros -----------------------------------
// GCC compiles the annotations away; clang (any version with the capability
// attribute) checks them. The macro names mirror the attribute vocabulary of
// https://clang.llvm.org/docs/ThreadSafetyAnalysis.html.

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define VFPS_THREAD_ANNOTATION(x) __attribute__((x))
#endif
#endif
#ifndef VFPS_THREAD_ANNOTATION
#define VFPS_THREAD_ANNOTATION(x)
#endif

/// Marks a class as a lockable capability ("mutex", "shared_mutex", ...).
#define VFPS_CAPABILITY(x) VFPS_THREAD_ANNOTATION(capability(x))
/// Marks an RAII class whose constructor acquires and destructor releases.
#define VFPS_SCOPED_CAPABILITY VFPS_THREAD_ANNOTATION(scoped_lockable)
/// Data member readable/writable only with the named capability held.
#define VFPS_GUARDED_BY(x) VFPS_THREAD_ANNOTATION(guarded_by(x))
/// Pointer member whose pointee is guarded by the named capability.
#define VFPS_PT_GUARDED_BY(x) VFPS_THREAD_ANNOTATION(pt_guarded_by(x))
/// Static ordering hints between capabilities visible to one another.
/// Instances of different classes cannot name each other here, so the
/// enforced ordering mechanism in vfps is the runtime LockRank validator;
/// these remain available for same-class member pairs.
#define VFPS_ACQUIRED_AFTER(...) \
  VFPS_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))
#define VFPS_ACQUIRED_BEFORE(...) \
  VFPS_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))
/// Function requires the capability held (exclusively / shared) on entry.
#define VFPS_REQUIRES(...) \
  VFPS_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define VFPS_REQUIRES_SHARED(...) \
  VFPS_THREAD_ANNOTATION(requires_shared_capability(__VA_ARGS__))
/// Function acquires / releases the capability.
#define VFPS_ACQUIRE(...) \
  VFPS_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define VFPS_ACQUIRE_SHARED(...) \
  VFPS_THREAD_ANNOTATION(acquire_shared_capability(__VA_ARGS__))
#define VFPS_RELEASE(...) \
  VFPS_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define VFPS_RELEASE_SHARED(...) \
  VFPS_THREAD_ANNOTATION(release_shared_capability(__VA_ARGS__))
/// Function acquires the capability when returning the given value.
#define VFPS_TRY_ACQUIRE(...) \
  VFPS_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))
#define VFPS_TRY_ACQUIRE_SHARED(...) \
  VFPS_THREAD_ANNOTATION(try_acquire_shared_capability(__VA_ARGS__))
/// Function must be called without the capability held (deadlock guard).
#define VFPS_EXCLUDES(...) VFPS_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
/// Runtime assertion that the capability is held (trusted by the analysis).
#define VFPS_ASSERT_CAPABILITY(x) VFPS_THREAD_ANNOTATION(assert_capability(x))
/// Function returns a reference to the named capability.
#define VFPS_RETURN_CAPABILITY(x) VFPS_THREAD_ANNOTATION(lock_returned(x))
/// Escape hatch: function body is not analyzed. See the policy above.
#define VFPS_NO_THREAD_SAFETY_ANALYSIS \
  VFPS_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace vfps {

// --- Lock-rank hierarchy ------------------------------------------------------

/// The single documented lock hierarchy (docs/CONCURRENCY.md keeps the
/// authoritative table). Locks must be acquired in strictly increasing
/// rank order within a thread; under VFPS_DEBUG_INVARIANTS any violation —
/// including re-entrant acquisition of the same lock — aborts with the
/// acquisition stacks of both locks involved. Gaps between values leave
/// room for new locks without renumbering.
enum class LockRank : uint32_t {
  /// Differential-verification harness serialization (outermost: matching
  /// and telemetry run beneath it on the same thread).
  kVerifyHarness = 100,
  /// Clustered-matcher writer lock (ClusteredMatcherBase): serializes
  /// subscribe/unsubscribe/maintenance against each other (Match never
  /// takes it).
  kMatcherWriter = 150,
  /// MatchWorker queue/lifecycle lock (the network server's one match-worker
  /// thread). Jobs run with it released.
  kMatchWorker = 200,
  /// Net-server worker→loop handoff (src/net/server.cc): the completed
  /// request-result queue and export-wait latches. Taken briefly by the
  /// event loop and the match worker to post/swap results; never held
  /// while calling into the broker, the socket layer, or any other lock.
  kNetResults = 230,
  /// Fault-injection registry (armed from admin paths, evaluated on the
  /// server thread; never held while calling out).
  kFailPoints = 300,
  /// Telemetry registry instrument maps (leaf: safe to take from any
  /// subsystem; gauge callbacks always run with it released).
  kTelemetry = 400,
};

namespace sync_internal {
#ifdef VFPS_DEBUG_INVARIANTS
/// Rank-checks and records an acquisition by the current thread. Called
/// before blocking on the underlying lock so ordering violations abort
/// instead of deadlocking. Aborts (with both stacks) on violation.
void NoteAcquire(const void* mu, uint32_t rank, const char* name);
/// Forgets a recorded acquisition. Aborts if `mu` is not held.
void NoteRelease(const void* mu);
/// Reports a SerialChecker violation and aborts.
[[noreturn]] void DieSerialViolation(const char* active_site,
                                     const char* entering_site);
#else
inline void NoteAcquire(const void*, uint32_t, const char*) {}
inline void NoteRelease(const void*) {}
#endif
}  // namespace sync_internal

// --- Mutex --------------------------------------------------------------------

class CondVar;

/// An annotated std::mutex carrying a LockRank. Prefer the MutexLock RAII
/// guard; explicit Lock/Unlock exist for the rare non-scoped pattern.
class VFPS_CAPABILITY("mutex") Mutex {
 public:
  /// Every Mutex names its place in the hierarchy; `name` shows up in
  /// lock-rank violation reports.
  explicit Mutex(LockRank rank, const char* name = "mutex")
      : rank_(static_cast<uint32_t>(rank)), name_(name) {}

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() VFPS_ACQUIRE() {
    sync_internal::NoteAcquire(this, rank_, name_);
    mu_.lock();
  }

  void Unlock() VFPS_RELEASE() {
    mu_.unlock();
    sync_internal::NoteRelease(this);
  }

  /// Non-blocking acquire. A TryLock cannot deadlock, but vfps still holds
  /// it to the rank order: trylock-based designs that need to probe
  /// against the hierarchy must be redesigned, not waived.
  bool TryLock() VFPS_TRY_ACQUIRE(true) {
    if (!mu_.try_lock()) return false;
    sync_internal::NoteAcquire(this, rank_, name_);
    return true;
  }

  LockRank rank() const { return static_cast<LockRank>(rank_); }
  const char* name() const { return name_; }

 private:
  friend class CondVar;
  std::mutex mu_;
  const uint32_t rank_;
  const char* const name_;
};

/// RAII exclusive lock on a Mutex.
class VFPS_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) VFPS_ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() VFPS_RELEASE() { mu_.Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

// --- SharedMutex --------------------------------------------------------------

/// An annotated std::shared_mutex (reader/writer lock) with the same rank
/// discipline. Shared re-acquisition on the same thread counts as a rank
/// violation: it can deadlock behind a queued writer.
class VFPS_CAPABILITY("shared_mutex") SharedMutex {
 public:
  explicit SharedMutex(LockRank rank, const char* name = "shared_mutex")
      : rank_(static_cast<uint32_t>(rank)), name_(name) {}

  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void Lock() VFPS_ACQUIRE() {
    sync_internal::NoteAcquire(this, rank_, name_);
    mu_.lock();
  }

  void Unlock() VFPS_RELEASE() {
    mu_.unlock();
    sync_internal::NoteRelease(this);
  }

  void LockShared() VFPS_ACQUIRE_SHARED() {
    sync_internal::NoteAcquire(this, rank_, name_);
    mu_.lock_shared();
  }

  void UnlockShared() VFPS_RELEASE_SHARED() {
    mu_.unlock_shared();
    sync_internal::NoteRelease(this);
  }

  bool TryLock() VFPS_TRY_ACQUIRE(true) {
    if (!mu_.try_lock()) return false;
    sync_internal::NoteAcquire(this, rank_, name_);
    return true;
  }

  LockRank rank() const { return static_cast<LockRank>(rank_); }
  const char* name() const { return name_; }

 private:
  std::shared_mutex mu_;
  const uint32_t rank_;
  const char* const name_;
};

/// RAII exclusive (writer) lock on a SharedMutex.
class VFPS_SCOPED_CAPABILITY WriterLock {
 public:
  explicit WriterLock(SharedMutex& mu) VFPS_ACQUIRE(mu) : mu_(mu) {
    mu_.Lock();
  }
  ~WriterLock() VFPS_RELEASE() { mu_.Unlock(); }

  WriterLock(const WriterLock&) = delete;
  WriterLock& operator=(const WriterLock&) = delete;

 private:
  SharedMutex& mu_;
};

/// RAII shared (reader) lock on a SharedMutex.
class VFPS_SCOPED_CAPABILITY ReaderLock {
 public:
  explicit ReaderLock(SharedMutex& mu) VFPS_ACQUIRE_SHARED(mu) : mu_(mu) {
    mu_.LockShared();
  }
  ~ReaderLock() VFPS_RELEASE() { mu_.UnlockShared(); }

  ReaderLock(const ReaderLock&) = delete;
  ReaderLock& operator=(const ReaderLock&) = delete;

 private:
  SharedMutex& mu_;
};

// --- CondVar ------------------------------------------------------------------

/// Condition variable paired with vfps::Mutex. Wait() is intentionally the
/// only waiting primitive and takes no predicate: callers write the
/// `while (!condition) cv.Wait(mu);` loop themselves, which keeps the
/// guarded predicate reads inside the annotated caller where the analysis
/// can see them (a predicate lambda would be analyzed as an unlocked
/// context) and makes spurious-wakeup handling structurally impossible to
/// forget.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `mu` and blocks; `mu` is re-held on return. The
  /// rank validator treats `mu` as held across the wait: from the caller's
  /// perspective it is, and the thread acquires nothing while blocked, so
  /// no ordering violation can hide in the gap.
  void Wait(Mutex& mu) VFPS_REQUIRES(mu) {
    std::unique_lock<std::mutex> native(mu.mu_, std::adopt_lock);
    cv_.wait(native);
    // The wrapper's bookkeeping still owns the mutex: hand it back without
    // unlocking.
    native.release();
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

// --- SerialChecker ------------------------------------------------------------

/// Debug-build checker for single-threaded-by-contract components (Broker,
/// PubSubServer): each guarded entry point opens a VFPS_SERIAL_SCOPE; if
/// two threads are ever inside scopes of the same checker at once, the
/// process aborts naming both entry points. Re-entrancy from the owning
/// thread (Publish -> notification handler -> Publish) is legal and
/// counted. Release builds compile the checker and its scopes to nothing.
class SerialChecker {
 public:
  SerialChecker() = default;
  SerialChecker(const SerialChecker&) = delete;
  SerialChecker& operator=(const SerialChecker&) = delete;

#ifdef VFPS_DEBUG_INVARIANTS
  class Scope {
   public:
    Scope(SerialChecker* checker, const char* site) : checker_(checker) {
      const std::thread::id self = std::this_thread::get_id();
      if (checker_->owner_.load(std::memory_order_acquire) == self) {
        ++checker_->depth_;
        return;
      }
      std::thread::id none{};
      if (!checker_->owner_.compare_exchange_strong(
              none, self, std::memory_order_acq_rel)) {
        sync_internal::DieSerialViolation(
            checker_->site_.load(std::memory_order_relaxed), site);
      }
      checker_->depth_ = 1;
      checker_->site_.store(site, std::memory_order_relaxed);
    }

    ~Scope() {
      if (--checker_->depth_ == 0) {
        checker_->owner_.store(std::thread::id{}, std::memory_order_release);
      }
    }

    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SerialChecker* checker_;
  };

 private:
  std::atomic<std::thread::id> owner_{};
  /// Only the owning thread mutates depth_ between its acquire of owner_
  /// and the releasing store, so a plain int is race-free.
  int depth_ = 0;
  /// Diagnostic only: the entry point the owner came through. Read by the
  /// violating thread without further synchronization — the value may be
  /// an instant stale, which is fine for an abort message.
  std::atomic<const char*> site_{nullptr};
#else
  class Scope {
   public:
    Scope(SerialChecker*, const char*) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
  };
#endif
};

#define VFPS_SYNC_CONCAT_INNER(a, b) a##b
#define VFPS_SYNC_CONCAT(a, b) VFPS_SYNC_CONCAT_INNER(a, b)

/// Opens a serial-entry scope on `checker` for the rest of the enclosing
/// block, tagged with the enclosing function's name.
#define VFPS_SERIAL_SCOPE(checker)                                    \
  ::vfps::SerialChecker::Scope VFPS_SYNC_CONCAT(vfps_serial_scope_,   \
                                                __LINE__)(&(checker), \
                                                          __func__)

}  // namespace vfps

#endif  // VFPS_UTIL_SYNC_H_
