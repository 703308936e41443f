// Copyright 2026 The vfps Authors.

#include "src/cluster/multi_attr_hash.h"

#include <cstdio>

#include "src/util/hash.h"
#include "src/util/macros.h"

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

size_t MultiAttrHashTable::KeyHash::operator()(
    const std::vector<Value>& key) const {
  uint64_t h = 0x9ae16a3b2f090000ULL ^ key.size();
  for (Value v : key) h = HashCombine(h, static_cast<uint64_t>(v));
  return static_cast<size_t>(h);
}

MultiAttrHashTable::MultiAttrHashTable(AttributeSet schema)
    : schema_(std::move(schema)) {
  entries_.Publish(new Entries(), nullptr);
}

bool MultiAttrHashTable::ExtractKey(const Event& event,
                                    std::vector<Value>* key) const {
  key->clear();
  for (AttributeId a : schema_.ids()) {
    std::optional<Value> v = event.Find(a);
    if (!v.has_value()) return false;
    key->push_back(*v);
  }
  return true;
}

void MultiAttrHashTable::ExtractKey(const Subscription& s,
                                    std::vector<Value>* key) const {
  key->clear();
  for (AttributeId a : schema_.ids()) {
    VFPS_DCHECK(s.equality_attributes().Contains(a));
    key->push_back(s.EqualityValue(a));
  }
}

const ClusterList* MultiAttrHashTable::Probe(
    const std::vector<Value>& key) const {
  const Entries* entries = entries_.Load();
  auto it = entries->find(key);
  return it == entries->end() ? nullptr : it->second->Load();
}

ClusterSlot MultiAttrHashTable::Add(const std::vector<Value>& key,
                                    SubscriptionId id,
                                    std::span<const PredicateId> slots,
                                    EpochPublisher* publisher) {
  const Entries* entries = WriterView(&entries_, publisher);
  auto it = entries->find(key);
  ClusterSlot slot;
  if (it != entries->end()) {
    slot = AddToList(it->second.get(), id, slots, publisher);
  } else {
    // A new access predicate: fill its list before the directory that
    // makes it reachable is published.
    auto entry = std::make_shared<EpochPtr<ClusterList>>();
    slot = AddToList(entry.get(), id, slots, publisher);
    EditEntries(publisher,
                [&](Entries& e) { e.emplace(key, std::move(entry)); });
  }
  ++subscription_count_;
  VFPS_DCHECK_INVARIANT(CheckInvariants(publisher));
  return slot;
}

SubscriptionId MultiAttrHashTable::Remove(const std::vector<Value>& key,
                                          ClusterSlot slot,
                                          EpochPublisher* publisher) {
  const Entries* entries = WriterView(&entries_, publisher);
  auto it = entries->find(key);
  VFPS_CHECK(it != entries->end());
  EpochPtr<ClusterList>* list = it->second.get();
  const SubscriptionId moved = RemoveFromList(list, slot, publisher);
  --subscription_count_;
  if (WriterView(list, publisher) == nullptr) {
    EditEntries(publisher, [&](Entries& e) { e.erase(key); });
  }
  VFPS_DCHECK_INVARIANT(CheckInvariants(publisher));
  return moved;
}

bool MultiAttrHashTable::CheckInvariants(
    const EpochPublisher* publisher) const {
  size_t total = 0;
  for (const auto& [key, entry] : *WriterView(&entries_, publisher)) {
    const ClusterList* list = WriterView(entry.get(), publisher);
    VFPS_INVARIANT(key.size() == schema_.size(),
                   "MultiAttrHashTable: key of arity %zu in a table with "
                   "schema arity %zu",
                   key.size(), schema_.size());
    VFPS_INVARIANT(list != nullptr && !list->empty(),
                   "MultiAttrHashTable: empty cluster list retained "
                   "(access-predicate necessity: Remove must drop the "
                   "entry)");
    if (!list->CheckInvariants()) return false;
    total += list->subscription_count();
  }
  VFPS_INVARIANT(total == subscription_count_,
                 "MultiAttrHashTable: entries hold %zu subscriptions, "
                 "|H| counter is %zu",
                 total, subscription_count_);
  return true;
}

size_t MultiAttrHashTable::MemoryUsage() const {
  const Entries* entries = entries_.Load();
  size_t total = entries->bucket_count() * sizeof(void*);
  for (const auto& [key, entry] : *entries) {
    total += key.capacity() * sizeof(Value) + sizeof(EpochPtr<ClusterList>) +
             4 * sizeof(void*);
    if (const ClusterList* list = entry->Load()) {
      total += sizeof(ClusterList) + list->MemoryUsage();
    }
  }
  return total;
}

}  // namespace vfps
