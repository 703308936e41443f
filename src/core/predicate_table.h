// Copyright 2026 The vfps Authors.
// Interning table for predicates. Every distinct predicate in the system is
// stored once and given a dense PredicateId, which doubles as its slot in
// the predicate result vector (Figure 1 of the paper associates each
// indexed predicate with a single bit-vector entry). Reference counts track
// how many subscriptions use each predicate so that indexes are updated only
// when a predicate enters or leaves the system (§2.3, footnote 3).

#ifndef VFPS_CORE_PREDICATE_TABLE_H_
#define VFPS_CORE_PREDICATE_TABLE_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/core/predicate.h"
#include "src/core/types.h"
#include "src/util/macros.h"

namespace vfps {

/// Deduplicating predicate store with reference counting and id recycling.
class PredicateTable {
 public:
  /// Result of Intern(): the id plus whether this call created the entry
  /// (in which case the caller must insert the predicate into the indexes).
  struct InternResult {
    PredicateId id;
    bool inserted;
  };

  /// Adds one reference to `p`, creating an entry if none exists.
  InternResult Intern(const Predicate& p);

  /// Drops one reference to `id`. Returns true when the last reference was
  /// dropped; the caller must then remove the predicate from the indexes
  /// (the slot is recycled by subsequent Intern calls).
  bool Release(PredicateId id);

  /// Id of `p` if interned, kInvalidPredicateId otherwise.
  PredicateId Lookup(const Predicate& p) const;

  /// The predicate stored at `id`. Requires a live id.
  const Predicate& Get(PredicateId id) const {
    VFPS_DCHECK(id < slots_.size() && slots_[id].refcount > 0);
    return slots_[id].predicate;
  }

  /// Reference count of `id` (0 for a recycled slot).
  uint32_t RefCount(PredicateId id) const {
    VFPS_DCHECK(id < slots_.size());
    return slots_[id].refcount;
  }

  /// One past the largest id ever assigned; the required result-vector size.
  size_t capacity() const { return slots_.size(); }

  /// Number of live (refcount > 0) predicates.
  size_t live_count() const { return live_count_; }

  /// Approximate heap footprint in bytes (for the Figure 3(c) experiment).
  size_t MemoryUsage() const;

  /// Validates the interning invariants: by_content_ maps exactly the
  /// live slots (matching content, refcount > 0), the free list holds
  /// exactly the dead slots once each, and live_count() agrees with both.
  /// Prints the first violation and returns false.
  bool CheckInvariants() const;

 private:
  struct Slot {
    Predicate predicate;
    uint32_t refcount = 0;
  };

  std::unordered_map<Predicate, PredicateId, PredicateHash> by_content_;
  std::vector<Slot> slots_;
  std::vector<PredicateId> free_ids_;
  size_t live_count_ = 0;
};

}  // namespace vfps

#endif  // VFPS_CORE_PREDICATE_TABLE_H_
