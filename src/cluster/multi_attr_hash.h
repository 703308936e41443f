// Copyright 2026 The vfps Authors.
// Multi-attribute hashing structure (Section 3.1): a hash table whose
// schema is a set of attributes and whose keys are value tuples over that
// schema. Each occupied entry stands for one access predicate — the
// conjunction (A1 = v1) AND ... AND (Ak = vk) — and holds the cluster list
// of subscriptions using that conjunction as access predicate. Matching an
// event costs one key extraction plus one hash lookup per table whose
// schema is included in the event schema.

#ifndef VFPS_CLUSTER_MULTI_ATTR_HASH_H_
#define VFPS_CLUSTER_MULTI_ATTR_HASH_H_

#include <memory>
#include <span>
#include <vector>

#include "src/cluster/cluster_list.h"
#include "src/core/attribute_set.h"
#include "src/core/event.h"
#include "src/core/subscription.h"
#include "src/core/types.h"
#include "src/util/hash.h"
#include "src/util/macros.h"

namespace vfps {

/// Attribute -> value cache over the lanes of one event (Match) or one
/// batch chunk (MatchBatch), filled once so that extracting a table key
/// costs two array loads per schema attribute instead of a search of the
/// event's pairs. Each attribute some lane carries gets a column of
/// per-lane cells, so the cache grows with the chunk's pairs, not with the
/// attribute ids. Everything is epoch-stamped, so Fill never clears.
class LaneValueCache {
 public:
  /// Caches the values of `events`; lane i is events[i].
  void Fill(std::span<const Event> events);

  /// Fills `key` with `lane`'s values over the schema attributes, in
  /// schema order. Returns false if the lane's event lacks one of them
  /// (then no access predicate over `schema` can be satisfied).
  bool ExtractKey(const AttributeSet& schema, size_t lane,
                  std::vector<Value>* key) const {
    key->resize(schema.size());
    Value* out = key->data();
    for (AttributeId a : schema.ids()) {
      if (a >= column_of_.size() || column_of_[a].epoch != epoch_) {
        return false;
      }
      const Cell& cell = cells_[column_of_[a].column * lanes_ + lane];
      if (cell.epoch != epoch_) return false;
      *out++ = cell.value;
    }
    return true;
  }

  size_t MemoryUsage() const {
    return column_of_.capacity() * sizeof(Column) +
           cells_.capacity() * sizeof(Cell);
  }

 private:
  struct Column {
    size_t column = 0;
    uint64_t epoch = 0;  // the Fill that assigned `column`
  };
  struct Cell {
    Value value = 0;
    uint64_t epoch = 0;  // the Fill that wrote `value`
  };
  std::vector<Column> column_of_;  // by attribute id
  std::vector<Cell> cells_;        // cells_[column * lanes_ + lane]
  size_t lanes_ = 0;
  uint64_t epoch_ = 0;
};

/// The 32-bit hash a multi-attribute table stores beside `key` (`arity`
/// values). Its top bit is always set, so 0 can mark an empty slot; its
/// low bits pick the key's home slot, so moving a key needs no rehash.
inline uint32_t MultiAttrKeyTag(const Value* key, size_t arity) {
  uint64_t h = arity;
  for (size_t k = 0; k < arity; ++k) {
    h = (h ^ static_cast<uint64_t>(key[k])) * 0x9e3779b97f4a7c15ULL;
  }
  return static_cast<uint32_t>(Mix64(h)) | 0x80000000u;
}

/// One multi-attribute hashing structure <A, h>.
///
/// The entry directory is a flat open-addressing table: keys are stored
/// inline (stride = the schema's arity) beside a 32-bit hash tag and the
/// entry's owned cluster list, probing is linear, and erase shifts the
/// following run back, so there are no tombstones.
class MultiAttrHashTable {
 public:
  explicit MultiAttrHashTable(AttributeSet schema);

  MultiAttrHashTable(const MultiAttrHashTable&) = delete;
  MultiAttrHashTable& operator=(const MultiAttrHashTable&) = delete;

  /// The schema A of the structure.
  const AttributeSet& schema() const { return schema_; }

  /// Fills `key` with the subscription's equality values over the schema
  /// attributes. Requires schema() ⊆ s.equality_attributes().
  void ExtractKey(const Subscription& s, std::vector<Value>* key) const;

  /// The cluster list for `key` (schema arity values, schema order), or
  /// nullptr if no subscription uses this value tuple as access predicate.
  const ClusterList* Probe(const std::vector<Value>& key) const {
    VFPS_DCHECK(key.size() == schema_.size());
    const size_t i = Find(key.data());
    return i == kNotFound ? nullptr : entries_[i].get();
  }

  /// Adds a subscription under `key`; creates the entry if needed.
  ClusterSlot Add(const std::vector<Value>& key, SubscriptionId id,
                  std::span<const PredicateId> slots);

  /// Removes the subscription at `slot` under `key`; drops the entry when
  /// it empties. Returns the id relocated into `slot` (see
  /// ClusterList::Remove), or kInvalidSubscriptionId.
  SubscriptionId Remove(const std::vector<Value>& key, ClusterSlot slot);

  /// Visits every (key, cluster list) entry, in slot order.
  /// fn(std::span<const Value>, const ClusterList&). Entries must not be
  /// added or removed during the visit.
  template <typename Fn>
  void ForEachEntry(Fn&& fn) const {
    for (size_t i = 0; i < tags_.size(); ++i) {
      if (tags_[i] != kEmptyTag) fn(KeyAt(i), *entries_[i]);
    }
  }

  /// Number of occupied entries (distinct access predicates).
  size_t entry_count() const { return size_; }

  /// Slots of the directory (a power of two).
  size_t slot_capacity() const { return tags_.size(); }

  /// |H|: subscriptions stored across all entries (drives the hash table
  /// benefit metric of Section 4).
  size_t subscription_count() const { return subscription_count_; }

  /// Heap footprint in bytes: the directory (slot capacity x (tag +
  /// inline key + entry pointer)) and the entries' cluster lists.
  size_t MemoryUsage() const;

  /// Validates the hashing-structure invariants (§3.1): every entry is
  /// non-empty (access-predicate necessity — an entry exists only while
  /// some subscription uses that conjunction as its access predicate),
  /// the per-entry counts sum to subscription_count(), and the directory
  /// is a well-formed linear-probing table (each key's tag matches its
  /// hash, each key is reachable from its home slot without crossing an
  /// empty one, the load stays between the shrink and growth bounds,
  /// 1/4 and 3/4). Recurses into ClusterList::CheckInvariants. Prints the
  /// first violation and returns false.
  bool CheckInvariants() const;

 private:
  static constexpr uint32_t kEmptyTag = 0;
  static constexpr size_t kNotFound = ~size_t{0};

  uint32_t TagOf(const Value* key) const {
    return MultiAttrKeyTag(key, arity_);
  }
  std::span<const Value> KeyAt(size_t i) const {
    return {keys_.data() + i * arity_, arity_};
  }
  bool KeyEquals(size_t i, const Value* key) const {
    const Value* stored = keys_.data() + i * arity_;
    for (size_t k = 0; k < arity_; ++k) {
      if (stored[k] != key[k]) return false;
    }
    return true;
  }

  /// The slot holding `key` (arity values), or kNotFound.
  size_t Find(const Value* key) const {
    const uint32_t tag = TagOf(key);
    for (size_t i = tag & mask_;; i = (i + 1) & mask_) {
      const uint32_t t = tags_[i];
      if (t == tag && KeyEquals(i, key)) return i;
      if (t == kEmptyTag) return kNotFound;
    }
  }

  /// Stores an empty entry under `key`, which must be absent; returns its
  /// slot.
  size_t Insert(const Value* key);

  /// Removes the (emptied) entry in slot `hole`.
  void EraseAt(size_t hole);

  /// Rebuilds the slot arrays at `capacity` (a power of two).
  void Rehash(size_t capacity);

  AttributeSet schema_;
  size_t arity_;
  size_t mask_ = 0;  // slot capacity - 1
  size_t size_ = 0;
  std::vector<uint32_t> tags_;
  std::vector<Value> keys_;  // keys_[slot * arity_ + k]
  std::vector<std::unique_ptr<ClusterList>> entries_;
  size_t subscription_count_ = 0;
};

}  // namespace vfps

#endif  // VFPS_CLUSTER_MULTI_ATTR_HASH_H_
