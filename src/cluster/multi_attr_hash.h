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

#include <span>
#include <utility>
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
/// inline (stride = the schema's arity) beside a 32-bit hash tag and a
/// pointer to the entry's published cluster list, probing is linear, and
/// erase shifts the following run back, so there are no tombstones.
///
/// Mutations take the owner's publisher (nullptr for a serial owner, which
/// edits in place). A concurrent owner publishes every change: an entry's
/// cluster list through its own slot (copy-on-write, see AddToList), and
/// the key set — which changes only when an access predicate appears or
/// vanishes — by republishing the entry directory, whose copies share the
/// entry slots. Probe is then safe under an epoch pin while one writer
/// mutates.
class MultiAttrHashTable {
 public:
  explicit MultiAttrHashTable(AttributeSet schema);
  ~MultiAttrHashTable();

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
    const EpochPtr<ClusterList>* entry = entries_.Load()->Find(key.data());
    return entry == nullptr ? nullptr : entry->Load();
  }

  /// Adds a subscription under `key`; creates the entry if needed.
  ClusterSlot Add(const std::vector<Value>& key, SubscriptionId id,
                  std::span<const PredicateId> slots,
                  EpochPublisher* publisher = nullptr);

  /// Removes the subscription at `slot` under `key`; drops the entry when
  /// it empties. Returns the id relocated into `slot` (see
  /// ClusterList::Remove), or kInvalidSubscriptionId.
  SubscriptionId Remove(const std::vector<Value>& key, ClusterSlot slot,
                        EpochPublisher* publisher = nullptr);

  /// Visits every published (key, cluster list) entry, in slot order.
  /// fn(std::span<const Value>, const ClusterList&). Writer side, with no
  /// edit staged; entries must not be added or removed during the visit.
  template <typename Fn>
  void ForEachEntry(Fn&& fn) const {
    entries_.Load()->ForEach(
        [&](std::span<const Value> key, const EpochPtr<ClusterList>* entry) {
          if (const ClusterList* list = entry->Load()) fn(key, *list);
        });
  }

  /// Number of occupied entries (distinct access predicates).
  size_t entry_count() const { return entries_.Load()->size(); }

  /// Slots of the published directory (a power of two).
  size_t slot_capacity() const { return entries_.Load()->capacity(); }

  /// |H|: subscriptions stored across all entries (drives the hash table
  /// benefit metric of Section 4). Writer side.
  size_t subscription_count() const { return subscription_count_; }

  /// Heap footprint in bytes: the published directory (slot capacity x
  /// (tag + inline key + entry pointer), plus any erased slots it keeps),
  /// its entry slots and their cluster lists.
  size_t MemoryUsage() const;

  /// Validates the hashing-structure invariants (§3.1): every entry is
  /// non-empty (access-predicate necessity — an entry exists only while
  /// some subscription uses that conjunction as its access predicate),
  /// the per-entry counts sum to subscription_count(), and the directory
  /// is a well-formed linear-probing table (each key's tag matches its
  /// hash, each key is reachable from its home slot without crossing an
  /// empty one, the load stays between the shrink and growth bounds,
  /// 1/4 and 3/4). Recurses into
  /// ClusterList::CheckInvariants. Reads the writer's view through
  /// `publisher` (see EpochPublisher::Current). Prints the first violation
  /// and returns false.
  bool CheckInvariants(const EpochPublisher* publisher = nullptr) const;

 private:
  /// One version of the entry directory. Versions share the entry slots:
  /// the table owns the slots of its current version, and a slot erased
  /// while a concurrent owner edits its private copy is kept by that copy
  /// (Keep) and freed with it. A copy is reclaimed only after it has been
  /// superseded and every reader that might hold an older version (one
  /// still containing the slot) has unpinned.
  class Entries {
   public:
    explicit Entries(size_t arity);
    /// Copies the slot arrays (sharing the entry slots), not the erased
    /// slots `other` still holds.
    Entries(const Entries& other);
    ~Entries();
    Entries& operator=(const Entries&) = delete;

    /// The entry slot stored under `key` (arity values), or nullptr.
    EpochPtr<ClusterList>* Find(const Value* key) const {
      const uint32_t tag = TagOf(key);
      for (size_t i = tag & mask_;; i = (i + 1) & mask_) {
        const uint32_t t = tags_[i];
        if (t == tag && KeyEquals(i, key)) return entries_[i];
        if (t == kEmptyTag) return nullptr;
      }
    }

    /// Stores `entry` under `key`, which must be absent.
    void Insert(const Value* key, EpochPtr<ClusterList>* entry);

    /// Removes `key`, which must be present, and returns its entry slot.
    EpochPtr<ClusterList>* Erase(const Value* key);

    /// Keeps an erased slot alive until this version is destroyed.
    void Keep(EpochPtr<ClusterList>* erased) { erased_.push_back(erased); }

    /// fn(std::span<const Value> key, EpochPtr<ClusterList>* entry) for
    /// every occupied slot, in slot order.
    template <typename Fn>
    void ForEach(Fn&& fn) const {
      for (size_t i = 0; i < tags_.size(); ++i) {
        if (tags_[i] != kEmptyTag) fn(KeyAt(i), entries_[i]);
      }
    }

    size_t size() const { return size_; }
    size_t capacity() const { return tags_.size(); }
    size_t MemoryUsage() const;
    /// The linear-probing invariants (see CheckInvariants).
    bool CheckInvariants() const;

   private:
    static constexpr uint32_t kEmptyTag = 0;

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
    /// Rebuilds the slot arrays at `capacity` (a power of two).
    void Rehash(size_t capacity);

    size_t arity_;
    size_t mask_ = 0;  // slot capacity - 1
    size_t size_ = 0;
    std::vector<uint32_t> tags_;
    std::vector<Value> keys_;  // keys_[slot * arity_ + k]
    std::vector<EpochPtr<ClusterList>*> entries_;
    std::vector<EpochPtr<ClusterList>*> erased_;
  };

  /// Applies `edit` to the directory (in place, or on a published copy).
  template <typename Edit>
  void EditEntries(EpochPublisher* publisher, Edit&& edit) {
    ReplaceOrEdit(
        &entries_, publisher,
        [](const Entries* cur) { return new Entries(*cur); },
        std::forward<Edit>(edit));
  }

  AttributeSet schema_;
  EpochPtr<Entries> entries_;  // never null
  size_t subscription_count_ = 0;
};

}  // namespace vfps

#endif  // VFPS_CLUSTER_MULTI_ATTR_HASH_H_
