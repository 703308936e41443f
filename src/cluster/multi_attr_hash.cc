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

// --- MultiAttrHashTable::Entries --------------------------------------------

MultiAttrHashTable::Entries::Entries(size_t arity) : arity_(arity) {
  Rehash(kMinCapacity);
}

MultiAttrHashTable::Entries::Entries(const Entries& other)
    : arity_(other.arity_),
      mask_(other.mask_),
      size_(other.size_),
      tags_(other.tags_),
      keys_(other.keys_),
      entries_(other.entries_) {}

MultiAttrHashTable::Entries::~Entries() {
  for (EpochPtr<ClusterList>* erased : erased_) delete erased;
}

void MultiAttrHashTable::Entries::Rehash(size_t capacity) {
  std::vector<uint32_t> tags(capacity, kEmptyTag);
  std::vector<Value> keys(capacity * arity_);
  std::vector<EpochPtr<ClusterList>*> entries(capacity, nullptr);
  const size_t mask = capacity - 1;
  for (size_t i = 0; i < tags_.size(); ++i) {
    if (tags_[i] == kEmptyTag) continue;
    size_t j = tags_[i] & mask;
    while (tags[j] != kEmptyTag) j = (j + 1) & mask;
    tags[j] = tags_[i];
    std::copy_n(keys_.data() + i * arity_, arity_, keys.data() + j * arity_);
    entries[j] = entries_[i];
  }
  tags_ = std::move(tags);
  keys_ = std::move(keys);
  entries_ = std::move(entries);
  mask_ = mask;
}

void MultiAttrHashTable::Entries::Insert(const Value* key,
                                         EpochPtr<ClusterList>* entry) {
  VFPS_DCHECK(Find(key) == nullptr);
  if (OverLoaded(size_ + 1, tags_.size())) Rehash(tags_.size() * 2);
  const uint32_t tag = TagOf(key);
  size_t i = tag & mask_;
  while (tags_[i] != kEmptyTag) i = (i + 1) & mask_;
  tags_[i] = tag;
  std::copy_n(key, arity_, keys_.data() + i * arity_);
  entries_[i] = entry;
  ++size_;
}

EpochPtr<ClusterList>* MultiAttrHashTable::Entries::Erase(const Value* key) {
  const uint32_t tag = TagOf(key);
  size_t hole = tag & mask_;
  while (tags_[hole] != tag || !KeyEquals(hole, key)) {
    VFPS_CHECK(tags_[hole] != kEmptyTag);  // the key must be present
    hole = (hole + 1) & mask_;
  }
  EpochPtr<ClusterList>* erased = entries_[hole];
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
    entries_[hole] = entries_[j];
    hole = j;
  }
  tags_[hole] = kEmptyTag;
  entries_[hole] = nullptr;
  --size_;
  if (UnderLoaded(size_, tags_.size())) Rehash(tags_.size() / 2);
  return erased;
}

size_t MultiAttrHashTable::Entries::MemoryUsage() const {
  return tags_.capacity() * sizeof(uint32_t) +
         keys_.capacity() * sizeof(Value) +
         entries_.capacity() * sizeof(EpochPtr<ClusterList>*) +
         erased_.capacity() * sizeof(EpochPtr<ClusterList>*) +
         erased_.size() * sizeof(EpochPtr<ClusterList>);
}

bool MultiAttrHashTable::Entries::CheckInvariants() const {
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
  for (size_t i = 0; i < capacity; ++i) {
    if (tags_[i] == kEmptyTag) {
      VFPS_INVARIANT(entries_[i] == nullptr,
                     "MultiAttrHashTable: empty slot %zu holds an entry", i);
      continue;
    }
    ++occupied;
    const Value* key = keys_.data() + i * arity_;
    VFPS_INVARIANT(entries_[i] != nullptr,
                   "MultiAttrHashTable: occupied slot %zu has no entry", i);
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
  }
  VFPS_INVARIANT(occupied == size_,
                 "MultiAttrHashTable: %zu occupied slots, size counter %zu",
                 occupied, size_);
  VFPS_INVARIANT(!OverLoaded(size_, capacity) && !UnderLoaded(size_, capacity),
                 "MultiAttrHashTable: %zu entries in %zu slots break the "
                 "load bounds",
                 size_, capacity);
  return true;
}

// --- MultiAttrHashTable -----------------------------------------------------

MultiAttrHashTable::MultiAttrHashTable(AttributeSet schema)
    : schema_(std::move(schema)) {
  entries_.Publish(new Entries(schema_.size()), nullptr);
}

MultiAttrHashTable::~MultiAttrHashTable() {
  // The current version's slots belong to the table (older versions were
  // reclaimed before it; see Entries).
  entries_.Load()->ForEach(
      [](std::span<const Value>, EpochPtr<ClusterList>* entry) {
        delete entry;
      });
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
                                    std::span<const PredicateId> slots,
                                    EpochPublisher* publisher) {
  VFPS_DCHECK(key.size() == schema_.size());
  EpochPtr<ClusterList>* entry =
      WriterView(&entries_, publisher)->Find(key.data());
  ClusterSlot slot;
  if (entry != nullptr) {
    slot = AddToList(entry, id, slots, publisher);
  } else {
    // A new access predicate: fill its list before the directory that
    // makes it reachable is published.
    entry = new EpochPtr<ClusterList>();
    slot = AddToList(entry, id, slots, publisher);
    EditEntries(publisher, [&](Entries& e) { e.Insert(key.data(), entry); });
  }
  ++subscription_count_;
  VFPS_DCHECK_INVARIANT(CheckInvariants(publisher));
  return slot;
}

SubscriptionId MultiAttrHashTable::Remove(const std::vector<Value>& key,
                                          ClusterSlot slot,
                                          EpochPublisher* publisher) {
  VFPS_DCHECK(key.size() == schema_.size());
  EpochPtr<ClusterList>* entry =
      WriterView(&entries_, publisher)->Find(key.data());
  VFPS_CHECK(entry != nullptr);
  const SubscriptionId moved = RemoveFromList(entry, slot, publisher);
  --subscription_count_;
  if (WriterView(entry, publisher) == nullptr) {
    EditEntries(publisher, [&](Entries& e) {
      e.Erase(key.data());
      // A serial owner has no readers; a concurrent one edits a private
      // copy, which keeps the slot for the readers of older versions.
      if (publisher == nullptr) {
        delete entry;
      } else {
        e.Keep(entry);
      }
    });
  }
  VFPS_DCHECK_INVARIANT(CheckInvariants(publisher));
  return moved;
}

bool MultiAttrHashTable::CheckInvariants(
    const EpochPublisher* publisher) const {
  const Entries* entries = WriterView(&entries_, publisher);
  if (!entries->CheckInvariants()) return false;
  size_t total = 0;
  bool ok = true;
  entries->ForEach(
      [&](std::span<const Value>, const EpochPtr<ClusterList>* entry) {
        if (!ok) return;
        const ClusterList* list = WriterView(entry, publisher);
        if (list == nullptr || list->empty()) {
          std::fprintf(stderr,
                       "MultiAttrHashTable: empty cluster list retained "
                       "(access-predicate necessity: Remove must drop the "
                       "entry)\n");
          ok = false;
          return;
        }
        if (!list->CheckInvariants()) {
          ok = false;
          return;
        }
        total += list->subscription_count();
      });
  if (!ok) return false;
  VFPS_INVARIANT(total == subscription_count_,
                 "MultiAttrHashTable: entries hold %zu subscriptions, "
                 "|H| counter is %zu",
                 total, subscription_count_);
  return true;
}

size_t MultiAttrHashTable::MemoryUsage() const {
  const Entries* entries = entries_.Load();
  size_t total = sizeof(Entries) + entries->MemoryUsage() +
                 entries->size() * sizeof(EpochPtr<ClusterList>);
  ForEachEntry([&](std::span<const Value>, const ClusterList& list) {
    total += sizeof(ClusterList) + list.MemoryUsage();
  });
  return total;
}

}  // namespace vfps
