// Copyright 2026 The vfps Authors.

#include "src/core/predicate_table.h"

#include <cstdio>
#include <unordered_set>

/// Reports the first violated invariant (with context) and returns false
/// from the enclosing CheckInvariants. Local to invariant walks.
#define VFPS_INVARIANT(cond, ...)             \
  do {                                        \
    if (!(cond)) {                            \
      std::fprintf(stderr, __VA_ARGS__);      \
      std::fprintf(stderr, " [%s]\n", #cond); \
      return false;                           \
    }                                         \
  } while (0)

namespace vfps {

PredicateTable::InternResult PredicateTable::Intern(const Predicate& p) {
  auto [it, inserted] = by_content_.try_emplace(p, kInvalidPredicateId);
  if (!inserted) {
    Slot& slot = slots_[it->second];
    VFPS_DCHECK(slot.refcount > 0);
    ++slot.refcount;
    return {it->second, false};
  }
  PredicateId id;
  if (!free_ids_.empty()) {
    id = free_ids_.back();
    free_ids_.pop_back();
    slots_[id] = Slot{p, 1};
  } else {
    id = static_cast<PredicateId>(slots_.size());
    slots_.push_back(Slot{p, 1});
  }
  it->second = id;
  ++live_count_;
  VFPS_DCHECK_INVARIANT(CheckInvariants());
  return {id, true};
}

bool PredicateTable::Release(PredicateId id) {
  VFPS_DCHECK(id < slots_.size());
  Slot& slot = slots_[id];
  VFPS_DCHECK(slot.refcount > 0);
  if (--slot.refcount > 0) return false;
  by_content_.erase(slot.predicate);
  free_ids_.push_back(id);
  --live_count_;
  VFPS_DCHECK_INVARIANT(CheckInvariants());
  return true;
}

bool PredicateTable::CheckInvariants() const {
  VFPS_INVARIANT(live_count_ == by_content_.size(),
                 "PredicateTable: live_count %zu but %zu interned "
                 "predicates",
                 live_count_, by_content_.size());
  VFPS_INVARIANT(live_count_ + free_ids_.size() == slots_.size(),
                 "PredicateTable: %zu live + %zu free slots != %zu total",
                 live_count_, free_ids_.size(), slots_.size());
  for (const auto& [predicate, id] : by_content_) {
    VFPS_INVARIANT(id < slots_.size(),
                   "PredicateTable: interned id %u out of range", id);
    VFPS_INVARIANT(slots_[id].refcount > 0,
                   "PredicateTable: interned id %u has zero refcount", id);
    VFPS_INVARIANT(slots_[id].predicate == predicate,
                   "PredicateTable: slot %u content diverges from its "
                   "interning key",
                   id);
  }
  std::unordered_set<PredicateId> freed;
  freed.reserve(free_ids_.size());
  for (PredicateId id : free_ids_) {
    VFPS_INVARIANT(id < slots_.size(),
                   "PredicateTable: free id %u out of range", id);
    VFPS_INVARIANT(slots_[id].refcount == 0,
                   "PredicateTable: free id %u still referenced", id);
    VFPS_INVARIANT(freed.insert(id).second,
                   "PredicateTable: id %u on the free list twice", id);
  }
  return true;
}

PredicateId PredicateTable::Lookup(const Predicate& p) const {
  auto it = by_content_.find(p);
  return it == by_content_.end() ? kInvalidPredicateId : it->second;
}

size_t PredicateTable::MemoryUsage() const {
  // unordered_map node: key + value + bucket pointer overhead (estimated).
  constexpr size_t kMapNodeBytes =
      sizeof(Predicate) + sizeof(PredicateId) + 2 * sizeof(void*);
  return by_content_.size() * kMapNodeBytes +
         by_content_.bucket_count() * sizeof(void*) +
         slots_.capacity() * sizeof(Slot) +
         free_ids_.capacity() * sizeof(PredicateId);
}

}  // namespace vfps
