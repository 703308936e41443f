// Copyright 2026 The vfps Authors.
// Runtime lock-rank validator and serial-entry violation reporting for
// src/util/sync.h. Everything here is compiled only under
// VFPS_DEBUG_INVARIANTS; release builds get an empty translation unit.

#include "src/util/sync.h"

#ifdef VFPS_DEBUG_INVARIANTS

#include <cstdio>
#include <cstdlib>

#if defined(__GLIBC__) || defined(__APPLE__)
#include <execinfo.h>
#define VFPS_SYNC_HAVE_BACKTRACE 1
#else
#define VFPS_SYNC_HAVE_BACKTRACE 0
#endif

namespace vfps {
namespace sync_internal {

namespace {

constexpr int kMaxFrames = 32;
/// Locks held simultaneously by one thread. Legal chains are a few deep
/// (verify harness -> matcher writer -> telemetry); 64 is a bug
/// backstop, not a design budget.
constexpr int kMaxHeld = 64;

struct HeldLock {
  const void* mu = nullptr;
  uint32_t rank = 0;
  const char* name = nullptr;
  void* frames[kMaxFrames];
  int frame_count = 0;
};

thread_local HeldLock tls_held[kMaxHeld];
thread_local int tls_depth = 0;

void PrintStack(const char* label, void* const* frames, int count) {
  std::fprintf(stderr, "%s\n", label);
#if VFPS_SYNC_HAVE_BACKTRACE
  if (count > 0) {
    backtrace_symbols_fd(const_cast<void* const*>(frames), count,
                         /*fd=*/2);
    return;
  }
#else
  (void)frames;
  (void)count;
#endif
  std::fprintf(stderr, "  (no backtrace available on this platform)\n");
}

int CaptureStack(void** frames) {
#if VFPS_SYNC_HAVE_BACKTRACE
  return backtrace(frames, kMaxFrames);
#else
  (void)frames;
  return 0;
#endif
}

}  // namespace

void NoteAcquire(const void* mu, uint32_t rank, const char* name) {
  // Any already-held lock of equal or higher rank makes this acquisition
  // an ordering violation; report the worst offender. Equal rank on the
  // same object is re-entrant acquisition (guaranteed deadlock); equal
  // rank on a different object is a potential AB/BA deadlock between two
  // instances of the same subsystem — both are hierarchy bugs.
  const HeldLock* conflict = nullptr;
  for (int i = 0; i < tls_depth; ++i) {
    if (tls_held[i].rank >= rank &&
        (conflict == nullptr || tls_held[i].rank > conflict->rank)) {
      conflict = &tls_held[i];
    }
  }
  if (conflict != nullptr) {
    std::fprintf(
        stderr,
        "vfps lock-rank violation: acquiring '%s' (rank %u%s) while "
        "holding '%s' (rank %u)\n"
        "locks must be acquired in strictly increasing LockRank order; "
        "see docs/CONCURRENCY.md\n",
        name, rank, conflict->mu == mu ? ", re-entrant on the same lock" : "",
        conflict->name, conflict->rank);
    void* frames[kMaxFrames];
    const int n = CaptureStack(frames);
    PrintStack("--- stack of the out-of-order acquisition:", frames, n);
    PrintStack("--- stack where the conflicting lock was acquired:",
               conflict->frames, conflict->frame_count);
    std::abort();
  }
  if (tls_depth == kMaxHeld) {
    std::fprintf(stderr,
                 "vfps lock-rank validator: thread holds %d locks at once "
                 "acquiring '%s' — raise kMaxHeld if this is intentional\n",
                 kMaxHeld, name);
    std::abort();
  }
  HeldLock& held = tls_held[tls_depth++];
  held.mu = mu;
  held.rank = rank;
  held.name = name;
  held.frame_count = CaptureStack(held.frames);
}

void NoteRelease(const void* mu) {
  // Releases need not be LIFO; search newest-first (the common case).
  for (int i = tls_depth - 1; i >= 0; --i) {
    if (tls_held[i].mu == mu) {
      tls_held[i] = tls_held[--tls_depth];
      return;
    }
  }
  std::fprintf(stderr,
               "vfps lock-rank validator: released a lock this thread does "
               "not hold (did a lock bypass the vfps::Mutex wrapper?)\n");
  std::abort();
}

void DieSerialViolation(const char* active_site, const char* entering_site) {
  std::fprintf(
      stderr,
      "vfps serial-contract violation: thread entering '%s' while another "
      "thread is inside '%s' of a single-threaded-by-contract component "
      "(see docs/CONCURRENCY.md)\n",
      entering_site != nullptr ? entering_site : "?",
      active_site != nullptr ? active_site : "?");
  void* frames[kMaxFrames];
  const int n = CaptureStack(frames);
  PrintStack("--- stack of the violating entry:", frames, n);
  std::abort();
}

}  // namespace sync_internal
}  // namespace vfps

#endif  // VFPS_DEBUG_INVARIANTS
