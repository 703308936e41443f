// Copyright 2026 The vfps Authors.
// The composite predicate index: phase 1 of the matching algorithm
// (Figure 2). Dispatches each event pair to the per-attribute equality,
// range, and != indexes and records every satisfied predicate in the
// result vector. All matchers share one PredicateIndex through a
// MatchingContext, because the paper's phase-1 cost is identical across
// algorithms ("this time is the same for all algorithms since they compute
// the satisfied predicates using the same method", §6.2.1).

#ifndef VFPS_INDEX_PREDICATE_INDEX_H_
#define VFPS_INDEX_PREDICATE_INDEX_H_

#include <memory>
#include <vector>

#include "src/core/event.h"
#include "src/core/predicate.h"
#include "src/core/result_vector.h"
#include "src/core/types.h"
#include "src/index/equality_index.h"
#include "src/index/not_equal_index.h"
#include "src/index/range_index.h"

namespace vfps {

/// Index triple for one attribute.
struct AttrIndexes {
  EqualityIndex equality;
  RangeIndex range;
  NotEqualIndex not_equal;
  /// One past the largest id ever registered here; Probe grows the result
  /// vector to it, so callers need not size it up front.
  size_t id_bound = 0;

  /// Registers `p` in the index matching its operator. Returns false when
  /// an identical predicate is already present.
  bool Insert(const Predicate& p, PredicateId id);

  /// Unregisters `p`. Returns false when absent.
  bool Remove(const Predicate& p);

  /// Marks every registered predicate on this attribute satisfied by
  /// `value` (growing `results` to id_bound first).
  void Probe(Value value, ResultVector* results) const;

  /// Approximate heap footprint in bytes.
  size_t MemoryUsage() const {
    return equality.MemoryUsage() + range.MemoryUsage() +
           not_equal.MemoryUsage();
  }
};

/// Per-attribute dispatch over all three predicate index kinds.
class PredicateIndex {
 public:
  /// Registers an interned predicate. Call exactly once per distinct
  /// predicate (i.e. when PredicateTable::Intern reports `inserted`).
  void Insert(const Predicate& p, PredicateId id);

  /// Unregisters a predicate. Call when the last reference is released.
  void Remove(const Predicate& p, PredicateId id);

  /// Phase 1: marks every registered predicate satisfied by `event` in
  /// `results`. Does not reset `results` first; callers reset between
  /// events.
  void MatchEvent(const Event& event, ResultVector* results) const;

  /// Phase 1 for one (attribute, value) pair: marks every registered
  /// predicate on `attribute` satisfied by `value`. The batched matchers
  /// call this once per *distinct* pair across a whole batch, so repeated
  /// values cost a single index probe.
  void MatchPair(AttributeId attribute, Value value,
                 ResultVector* results) const;

  /// Number of registered predicates.
  size_t size() const { return size_; }

  /// Approximate heap footprint in bytes (Figure 3(c) accounting).
  size_t MemoryUsage() const;

 private:
  /// Index triples by attribute id (null for an attribute never indexed).
  std::vector<std::unique_ptr<AttrIndexes>> by_attribute_;
  size_t size_ = 0;
};

}  // namespace vfps

#endif  // VFPS_INDEX_PREDICATE_INDEX_H_
