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

namespace {

AttrIndexes* CopyIndexes(const AttrIndexes* cur) {
  return cur == nullptr ? new AttrIndexes() : new AttrIndexes(*cur);
}

}  // namespace

void PredicateIndex::Insert(const Predicate& p, PredicateId id) {
  if (p.attribute >= attribute_bound_) attribute_bound_ = p.attribute + 1;
  const bool inserted =
      ReplaceOrEdit(by_attribute_.Slot(p.attribute), publisher_, CopyIndexes,
                    [&](AttrIndexes& idx) { return idx.Insert(p, id); });
  VFPS_CHECK(inserted);  // interning guarantees first registration
  ++size_;
}

void PredicateIndex::Remove(const Predicate& p, PredicateId id) {
  (void)id;
  VFPS_CHECK(by_attribute_.Load(p.attribute) != nullptr);
  const bool removed =
      ReplaceOrEdit(by_attribute_.Slot(p.attribute), publisher_, CopyIndexes,
                    [&](AttrIndexes& idx) { return idx.Remove(p); });
  VFPS_CHECK(removed);
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
  const AttrIndexes* idx = by_attribute_.Load(attribute);
  if (idx != nullptr) idx->Probe(value, results);
}

size_t PredicateIndex::MemoryUsage() const {
  size_t total = attribute_bound_ * sizeof(EpochPtr<AttrIndexes>);
  for (size_t a = 0; a < attribute_bound_; ++a) {
    const AttrIndexes* idx = by_attribute_.Load(a);
    if (idx != nullptr) total += sizeof(AttrIndexes) + idx->MemoryUsage();
  }
  return total;
}

}  // namespace vfps
