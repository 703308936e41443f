#!/usr/bin/env bash
# Concurrency lint: enforces the synchronization discipline documented in
# docs/CONCURRENCY.md over src/ (src/util/ itself is exempt — that is where
# the wrappers live).
#
# Rule 1 — no raw standard-library synchronization primitives outside
# src/util/. Code must use the annotated vfps wrappers (src/util/sync.h):
# vfps::Mutex / SharedMutex / CondVar with MutexLock / ReaderLock /
# WriterLock guards. Waiver: a `sync-raw-ok: <reason>` comment on the same
# line or within the two preceding lines.
#
# Rule 2 — every std::memory_order_relaxed outside src/util/ must carry a
# `sync-relaxed-ok: <reason>` justification comment on the same line or
# within the two preceding lines. Relaxed ordering is never the default;
# the comment is the reviewable claim that no data is published through
# the atomic.
#
# Rule 3 — no VFPS_NO_THREAD_SAFETY_ANALYSIS escapes anywhere outside
# src/util/sync.h. New escapes require a docs/CONCURRENCY.md waiver-table
# entry and a sync-raw-ok comment; today the budget is zero.
#
# Rule 4 — no naked atomic pointers outside src/util/. A pointer shared
# between threads is handed over under a Mutex (src/util/sync.h); a bare
# std::atomic<T*> swap with no reclamation scheme behind it is a
# use-after-free waiting for its first concurrent reader. Waiver:
# `sync-epoch-ok: <reason>` on the same line or within the two preceding
# lines.
#
# Exit 0 when clean; exit 1 listing every violation.

set -u
cd "$(dirname "$0")/.."

fail=0

# Every C++ file under src/ except the sync/wrapper layer itself.
mapfile -t files < <(git ls-files --cached --others --exclude-standard \
                       'src/*.cc' 'src/*.h' | grep -v '^src/util/')
if [[ ${#files[@]} -eq 0 ]]; then
  echo "check_sync_discipline: no files in scope" >&2
  exit 0
fi

# has_waiver FILE LINENO TOKEN: true if TOKEN appears on the line or the
# two preceding lines (the waiver window; covers multi-line statements).
check_file() {
  local f="$1"
  awk -v file="$f" '
    {
      lines[NR] = $0
    }
    END {
      for (i = 1; i <= NR; ++i) {
        line = lines[i]
        # Rule 1: raw std synchronization primitives.
        if (line ~ /std::(mutex|shared_mutex|recursive_mutex|timed_mutex|recursive_timed_mutex|shared_timed_mutex|condition_variable|condition_variable_any|lock_guard|unique_lock|scoped_lock|shared_lock)[^A-Za-z0-9_]/) {
          if (!waived(i, "sync-raw-ok")) {
            printf "%s:%d: raw std synchronization primitive (use src/util/sync.h wrappers or add // sync-raw-ok: <reason>)\n", file, i
            bad = 1
          }
        }
        # Rule 2: unjustified relaxed ordering.
        if (line ~ /memory_order_relaxed/) {
          if (!waived(i, "sync-relaxed-ok")) {
            printf "%s:%d: memory_order_relaxed without // sync-relaxed-ok: <reason> justification\n", file, i
            bad = 1
          }
        }
        # Rule 4: naked atomic pointer.
        if (line ~ /std::atomic<[^>]*\*/) {
          if (!waived(i, "sync-epoch-ok")) {
            printf "%s:%d: naked std::atomic<T*> (share the pointer under a Mutex, or add // sync-epoch-ok: <reason>)\n", file, i
            bad = 1
          }
        }
        # Rule 3: thread-safety-analysis escape hatch.
        if (line ~ /VFPS_NO_THREAD_SAFETY_ANALYSIS/) {
          if (!waived(i, "sync-raw-ok")) {
            printf "%s:%d: VFPS_NO_THREAD_SAFETY_ANALYSIS outside src/util/sync.h (needs docs/CONCURRENCY.md waiver entry + // sync-raw-ok)\n", file, i
            bad = 1
          }
        }
      }
      exit bad ? 1 : 0
    }
    function waived(i, token,   j) {
      for (j = i; j >= i - 2 && j >= 1; --j) {
        if (index(lines[j], token) > 0) return 1
      }
      return 0
    }
  ' "$f" || fail=1
}

for f in "${files[@]}"; do
  [[ -f "$f" ]] || continue
  check_file "$f"
done

if [[ $fail -ne 0 ]]; then
  echo "check_sync_discipline: violations found (see docs/CONCURRENCY.md)" >&2
  exit 1
fi
echo "check_sync_discipline: ${#files[@]} files clean"
