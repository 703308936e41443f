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
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/cluster/cluster_list.h"
#include "src/core/attribute_set.h"
#include "src/core/event.h"
#include "src/core/subscription.h"
#include "src/core/types.h"

namespace vfps {

/// One multi-attribute hashing structure <A, h>.
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

  /// The schema A of the structure.
  const AttributeSet& schema() const { return schema_; }

  /// Fills `key` with the event's values over the schema attributes, in
  /// schema order. Returns false if the event lacks one of them (then no
  /// access predicate of this table can be satisfied).
  bool ExtractKey(const Event& event, std::vector<Value>* key) const;

  /// Fills `key` with the subscription's equality values over the schema
  /// attributes. Requires schema() ⊆ s.equality_attributes().
  void ExtractKey(const Subscription& s, std::vector<Value>* key) const;

  /// The cluster list for `key`, or nullptr if no subscription uses this
  /// value tuple as access predicate.
  const ClusterList* Probe(const std::vector<Value>& key) const;

  /// Adds a subscription under `key`; creates the entry if needed.
  ClusterSlot Add(const std::vector<Value>& key, SubscriptionId id,
                  std::span<const PredicateId> slots,
                  EpochPublisher* publisher = nullptr);

  /// Removes the subscription at `slot` under `key`; drops the entry when
  /// it empties. Returns the id relocated into `slot` (see
  /// ClusterList::Remove), or kInvalidSubscriptionId.
  SubscriptionId Remove(const std::vector<Value>& key, ClusterSlot slot,
                        EpochPublisher* publisher = nullptr);

  /// Visits every published (key, cluster list) entry.
  /// fn(const std::vector<Value>&, const ClusterList&). Writer side, with
  /// no edit staged; entries must not be added or removed during the
  /// visit.
  template <typename Fn>
  void ForEachEntry(Fn&& fn) const {
    for (const auto& [key, list] : *entries_.Load()) {
      if (const ClusterList* l = list->Load()) fn(key, *l);
    }
  }

  /// Number of occupied entries (distinct access predicates).
  size_t entry_count() const { return entries_.Load()->size(); }

  /// |H|: subscriptions stored across all entries (drives the hash table
  /// benefit metric of Section 4). Writer side.
  size_t subscription_count() const { return subscription_count_; }

  /// Approximate heap footprint in bytes.
  size_t MemoryUsage() const;

  /// Validates the hashing-structure invariants (§3.1): every key is a
  /// value tuple over exactly the schema attributes, every entry is
  /// non-empty (access-predicate necessity — an entry exists only while
  /// some subscription uses that conjunction as its access predicate),
  /// and the per-entry counts sum to subscription_count(). Recurses into
  /// ClusterList::CheckInvariants. Reads the writer's view through
  /// `publisher` (see EpochPublisher::Current). Prints the first violation
  /// and returns false.
  bool CheckInvariants(const EpochPublisher* publisher = nullptr) const;

 private:
  struct KeyHash {
    size_t operator()(const std::vector<Value>& key) const;
  };
  /// Key -> the entry's published cluster list. Directory versions share
  /// the slots, so a key-set change copies pointers, never lists.
  using Entries =
      std::unordered_map<std::vector<Value>,
                         std::shared_ptr<EpochPtr<ClusterList>>, KeyHash>;

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
