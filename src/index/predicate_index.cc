// Copyright 2026 The vfps Authors.

#include "src/index/predicate_index.h"

#include "src/util/macros.h"

namespace vfps {

bool AttrIndexes::Insert(const Predicate& p, PredicateId id) {
  if (id >= id_bound) id_bound = size_t{id} + 1;
  switch (p.op) {
    case RelOp::kEq:
      return equality.Insert(p.value, id);
    case RelOp::kNe:
      return not_equal.Insert(p.value, id);
    default:
      return range.Insert(p.op, p.value, id);
  }
}

bool AttrIndexes::Remove(const Predicate& p) {
  switch (p.op) {
    case RelOp::kEq:
      return equality.Remove(p.value);
    case RelOp::kNe:
      return not_equal.Remove(p.value);
    default:
      return range.Remove(p.op, p.value);
  }
}

void AttrIndexes::Probe(Value value, ResultVector* results) const {
  results->EnsureCapacity(id_bound);
  PredicateId eq = equality.Probe(value);
  if (eq != kInvalidPredicateId) results->Set(eq);
  range.Probe(value, results);
  not_equal.Probe(value, results);
}

void PredicateIndex::Insert(const Predicate& p, PredicateId id) {
  if (p.attribute >= by_attribute_.size()) {
    by_attribute_.resize(size_t{p.attribute} + 1);
  }
  std::unique_ptr<AttrIndexes>& idx = by_attribute_[p.attribute];
  if (idx == nullptr) idx = std::make_unique<AttrIndexes>();
  VFPS_CHECK(idx->Insert(p, id));  // interning guarantees first registration
  ++size_;
}

void PredicateIndex::Remove(const Predicate& p, PredicateId id) {
  (void)id;
  VFPS_CHECK(p.attribute < by_attribute_.size() &&
             by_attribute_[p.attribute] != nullptr);
  VFPS_CHECK(by_attribute_[p.attribute]->Remove(p));
  --size_;
}

void PredicateIndex::MatchEvent(const Event& event,
                                ResultVector* results) const {
  for (const EventPair& pair : event.pairs()) {
    MatchPair(pair.attribute, pair.value, results);
  }
}

void PredicateIndex::MatchPair(AttributeId attribute, Value value,
                               ResultVector* results) const {
  if (attribute >= by_attribute_.size()) return;
  const AttrIndexes* idx = by_attribute_[attribute].get();
  if (idx != nullptr) idx->Probe(value, results);
}

size_t PredicateIndex::MemoryUsage() const {
  size_t total =
      by_attribute_.capacity() * sizeof(std::unique_ptr<AttrIndexes>);
  for (const std::unique_ptr<AttrIndexes>& idx : by_attribute_) {
    if (idx != nullptr) total += sizeof(AttrIndexes) + idx->MemoryUsage();
  }
  return total;
}

}  // namespace vfps
