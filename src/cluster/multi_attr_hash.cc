// Copyright 2026 The vfps Authors.

#include "src/cluster/multi_attr_hash.h"

#include <algorithm>
#include <cstdio>

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

namespace {

/// Smallest slot capacity of a directory.
constexpr size_t kMinCapacity = 8;

/// Growth bound: the directory doubles before occupancy passes 3/4, which
/// keeps unsuccessful probes (most probes: an event rarely hits an entry)
/// to a short run of adjacent tags.
bool OverLoaded(size_t size, size_t capacity) {
  return size * 4 > capacity * 3;
}

/// Shrink bound: below 1/4 occupancy the directory halves (placement moves
/// can drain a table that once held many more entries). Halving lands
/// under 1/2, doubling above 3/8, so neither undoes the other at once.
bool UnderLoaded(size_t size, size_t capacity) {
  return capacity > kMinCapacity && size * 4 < capacity;
}

}  // namespace

// --- LaneValueCache ---------------------------------------------------------

void LaneValueCache::Fill(std::span<const Event> events) {
  ++epoch_;
  lanes_ = events.size();
  size_t columns = 0;
  for (size_t lane = 0; lane < lanes_; ++lane) {
    for (const EventPair& pair : events[lane].pairs()) {
      if (pair.attribute >= column_of_.size()) {
        column_of_.resize(size_t{pair.attribute} + 1);
      }
      Column& column = column_of_[pair.attribute];
      if (column.epoch != epoch_) {
        column = Column{columns++, epoch_};
        if (cells_.size() < columns * lanes_) cells_.resize(columns * lanes_);
      }
      cells_[column.column * lanes_ + lane] = Cell{pair.value, epoch_};
    }
  }
}

// --- MultiAttrHashTable -----------------------------------------------------

MultiAttrHashTable::MultiAttrHashTable(AttributeSet schema)
    : schema_(std::move(schema)), arity_(schema_.size()) {
  Rehash(kMinCapacity);
}

void MultiAttrHashTable::Rehash(size_t capacity) {
  std::vector<uint32_t> tags(capacity, kEmptyTag);
  std::vector<Value> keys(capacity * arity_);
  std::vector<std::unique_ptr<ClusterList>> entries(capacity);
  const size_t mask = capacity - 1;
  for (size_t i = 0; i < tags_.size(); ++i) {
    if (tags_[i] == kEmptyTag) continue;
    size_t j = tags_[i] & mask;
    while (tags[j] != kEmptyTag) j = (j + 1) & mask;
    tags[j] = tags_[i];
    std::copy_n(keys_.data() + i * arity_, arity_, keys.data() + j * arity_);
    entries[j] = std::move(entries_[i]);
  }
  tags_ = std::move(tags);
  keys_ = std::move(keys);
  entries_ = std::move(entries);
  mask_ = mask;
}

size_t MultiAttrHashTable::Insert(const Value* key) {
  VFPS_DCHECK(Find(key) == kNotFound);
  if (OverLoaded(size_ + 1, tags_.size())) Rehash(tags_.size() * 2);
  const uint32_t tag = TagOf(key);
  size_t i = tag & mask_;
  while (tags_[i] != kEmptyTag) i = (i + 1) & mask_;
  tags_[i] = tag;
  std::copy_n(key, arity_, keys_.data() + i * arity_);
  ++size_;
  return i;
}

void MultiAttrHashTable::EraseAt(size_t hole) {
  VFPS_DCHECK(tags_[hole] != kEmptyTag && entries_[hole] == nullptr);
  // Backward shift: pull each later member of the run whose home does not
  // lie cyclically in (hole, j] into the hole, so every key stays
  // reachable from its home without tombstones.
  for (size_t j = (hole + 1) & mask_; tags_[j] != kEmptyTag;
       j = (j + 1) & mask_) {
    const size_t home = tags_[j] & mask_;
    if (((j - home) & mask_) < ((j - hole) & mask_)) continue;
    tags_[hole] = tags_[j];
    std::copy_n(keys_.data() + j * arity_, arity_,
                keys_.data() + hole * arity_);
    entries_[hole] = std::move(entries_[j]);
    hole = j;
  }
  tags_[hole] = kEmptyTag;
  --size_;
  if (UnderLoaded(size_, tags_.size())) Rehash(tags_.size() / 2);
}

void MultiAttrHashTable::ExtractKey(const Subscription& s,
                                    std::vector<Value>* key) const {
  key->clear();
  for (AttributeId a : schema_.ids()) {
    VFPS_DCHECK(s.equality_attributes().Contains(a));
    key->push_back(s.EqualityValue(a));
  }
}

ClusterSlot MultiAttrHashTable::Add(const std::vector<Value>& key,
                                    SubscriptionId id,
                                    std::span<const PredicateId> slots) {
  VFPS_DCHECK(key.size() == schema_.size());
  size_t i = Find(key.data());
  if (i == kNotFound) i = Insert(key.data());  // a new access predicate
  const ClusterSlot slot = AddToList(&entries_[i], id, slots);
  ++subscription_count_;
  VFPS_DCHECK_INVARIANT(CheckInvariants());
  return slot;
}

SubscriptionId MultiAttrHashTable::Remove(const std::vector<Value>& key,
                                          ClusterSlot slot) {
  VFPS_DCHECK(key.size() == schema_.size());
  const size_t i = Find(key.data());
  VFPS_CHECK(i != kNotFound);
  const SubscriptionId moved = RemoveFromList(&entries_[i], slot);
  --subscription_count_;
  if (entries_[i] == nullptr) EraseAt(i);
  VFPS_DCHECK_INVARIANT(CheckInvariants());
  return moved;
}

bool MultiAttrHashTable::CheckInvariants() const {
  const size_t capacity = tags_.size();
  VFPS_INVARIANT(capacity >= kMinCapacity && (capacity & mask_) == 0 &&
                     mask_ == capacity - 1,
                 "MultiAttrHashTable: directory capacity %zu is not a power "
                 "of two >= %zu",
                 capacity, kMinCapacity);
  VFPS_INVARIANT(keys_.size() == capacity * arity_ &&
                     entries_.size() == capacity,
                 "MultiAttrHashTable: directory arrays disagree on capacity "
                 "%zu",
                 capacity);
  size_t occupied = 0;
  size_t total = 0;
  for (size_t i = 0; i < capacity; ++i) {
    if (tags_[i] == kEmptyTag) {
      VFPS_INVARIANT(entries_[i] == nullptr,
                     "MultiAttrHashTable: empty slot %zu holds an entry", i);
      continue;
    }
    ++occupied;
    const Value* key = keys_.data() + i * arity_;
    const ClusterList* list = entries_[i].get();
    VFPS_INVARIANT(list != nullptr && !list->empty(),
                   "MultiAttrHashTable: empty cluster list retained in slot "
                   "%zu (access-predicate necessity: Remove must drop the "
                   "entry)",
                   i);
    VFPS_INVARIANT(tags_[i] == TagOf(key),
                   "MultiAttrHashTable: slot %zu tag %08x is not its key's "
                   "hash",
                   i, tags_[i]);
    // Linear probing: no empty slot between the key's home and the key,
    // and no earlier copy of the key on that path.
    for (size_t j = tags_[i] & mask_; j != i; j = (j + 1) & mask_) {
      VFPS_INVARIANT(tags_[j] != kEmptyTag,
                     "MultiAttrHashTable: slot %zu unreachable from its home "
                     "(empty slot %zu on the path; erase lost a shift)",
                     i, j);
      VFPS_INVARIANT(tags_[j] != tags_[i] || !KeyEquals(j, key),
                     "MultiAttrHashTable: key in slot %zu duplicated at "
                     "slot %zu",
                     i, j);
    }
    if (!list->CheckInvariants()) return false;
    total += list->subscription_count();
  }
  VFPS_INVARIANT(occupied == size_,
                 "MultiAttrHashTable: %zu occupied slots, size counter %zu",
                 occupied, size_);
  VFPS_INVARIANT(!OverLoaded(size_, capacity) && !UnderLoaded(size_, capacity),
                 "MultiAttrHashTable: %zu entries in %zu slots break the "
                 "load bounds",
                 size_, capacity);
  VFPS_INVARIANT(total == subscription_count_,
                 "MultiAttrHashTable: entries hold %zu subscriptions, "
                 "|H| counter is %zu",
                 total, subscription_count_);
  return true;
}

size_t MultiAttrHashTable::MemoryUsage() const {
  size_t total = tags_.capacity() * sizeof(uint32_t) +
                 keys_.capacity() * sizeof(Value) +
                 entries_.capacity() * sizeof(std::unique_ptr<ClusterList>);
  ForEachEntry([&](std::span<const Value>, const ClusterList& list) {
    total += sizeof(ClusterList) + list.MemoryUsage();
  });
  return total;
}

}  // namespace vfps
