// Copyright 2026 The vfps Authors.
// Shared machinery of the cluster-based matchers (propagation, static,
// dynamic): the two-phase match loop of Figure 2, predicate interning,
// access-predicate cluster lists, multi-attribute hash tables, per-
// subscription placement records, and the always-checked fallback list for
// subscriptions without equality predicates.
//
// Placement model (mirrors Section 3.2's "natural clustering" argument):
// a subscription's access predicate is either
//   * a single equality predicate — its cluster list hangs directly off the
//     interned predicate id, so finding the candidate lists costs nothing
//     beyond phase 1 ("using these equality predicates as access predicates
//     incurs no additional hashing cost since hashing structures are
//     already defined for the predicate testing phase"), or
//   * a conjunction of equality predicates — stored in a multi-attribute
//     hash table probed once per event, or
//   * empty — the subscription sits in the fallback list checked for every
//     event.
// Subclasses differ only in how they pick the access predicate and whether
// they reorganize placement over time.
//
// One matching process (the paper's). Match and MatchBatch read the
// placement structures directly and keep their scratch in one match
// context; callers serialize them against subscription changes, and
// dynamic maintenance runs between events (AfterMatch). The mutators also
// serialize on writer_mu_ among themselves.

#ifndef VFPS_MATCHER_CLUSTERED_BASE_H_
#define VFPS_MATCHER_CLUSTERED_BASE_H_

#include <memory>
#include <unordered_map>
#include <vector>

#include "src/cluster/cluster_list.h"
#include "src/cluster/multi_attr_hash.h"
#include "src/core/batch_result_vector.h"
#include "src/core/predicate_table.h"
#include "src/core/result_vector.h"
#include "src/cost/cost_model.h"
#include "src/cost/event_statistics.h"
#include "src/index/predicate_index.h"
#include "src/matcher/matcher.h"
#include "src/util/sync.h"

namespace vfps {

/// Base class of the clustered two-phase matchers.
class ClusteredMatcherBase : public Matcher {
 public:
  ~ClusteredMatcherBase() override;

  /// Interns the subscription and places it where InitialPlacement says.
  /// Fails with AlreadyExists on a duplicate id.
  Status AddSubscription(const Subscription& subscription) final;
  Status RemoveSubscription(SubscriptionId id) final;

  void Match(const Event& event, std::vector<SubscriptionId>* out) final;

  /// Native batch kernels (docs/BATCHING.md): phase 1 probes each
  /// predicate index once per *distinct* (attribute, value) pair across
  /// the batch and fills a lane-stripe result block; phase 2 scans each
  /// candidate cluster's columns once, testing all batch lanes per row.
  void MatchBatch(std::span<const Event> events, BatchResult* out) final;

  size_t subscription_count() const override;
  size_t MemoryUsage() const override;

  /// Attaches the vfps_matcher_* instruments (recorded per event) and the
  /// vfps_matcher_tables gauge.
  void AttachTelemetry(MetricsRegistry* registry) override;

  /// The event statistics the matcher maintains (ν and μ estimates). Can be
  /// seeded before loading subscriptions to describe the expected workload.
  EventStatistics* mutable_statistics() { return &stats_model_; }
  const EventStatistics& statistics() const { return stats_model_; }

  /// Schemas of the live multi-attribute hash tables. Singleton access
  /// predicates do not appear here: they live on the predicate index.
  std::vector<AttributeSet> TableSchemas() const;

  /// Subscriptions stored in the fallback (no access predicate) list.
  size_t fallback_count() const;

  /// Subscriptions whose access predicate is a single equality predicate.
  size_t singleton_placed_count() const;

 protected:
  /// Placement targets beyond real table indexes.
  static constexpr uint32_t kFallbackTable = 0xffffffffu;
  static constexpr uint32_t kSingletonTable = 0xfffffffeu;

  /// Where a subscription is (or would be) stored.
  struct Placement {
    /// kSingletonTable, kFallbackTable, or a table index.
    uint32_t table_index = kFallbackTable;
    /// The access equality predicate when table_index == kSingletonTable.
    PredicateId access_pred = kInvalidPredicateId;
  };

  /// Placement record of one stored subscription. Predicates are kept as
  /// interned ids — equality predicates first — so the full subscription
  /// can be reconstructed from the predicate table without storing values
  /// twice.
  struct SubRecord {
    std::vector<PredicateId> preds;  // equality ids first, canonical order
    uint16_t eq_count = 0;
    Placement placement;
    ClusterSlot slot;
    bool marked = false;  // dynamic-maintenance candidate marking
  };

  /// `use_prefetch` selects the prefetching cluster kernels;
  /// `observe_sample_rate` folds every k-th matched event into the ν/μ
  /// statistics (0 disables observation).
  ClusteredMatcherBase(bool use_prefetch, uint32_t observe_sample_rate);

  // --- subclass hooks (all run under writer_mu_) ------------------------------

  /// Placement of a newly added subscription. Default: the cheapest of
  /// every singleton and live-table option (ChooseBestPlacement).
  virtual Placement InitialPlacement(const SubRecord& record) const {
    return ChooseBestPlacement(record);
  }

  /// Called before a subscription is removed (its record still intact).
  virtual void BeforeRemove(const SubRecord& record) { (void)record; }

  /// Called after every subscription change: `vacated` is the placement a
  /// removed subscription left, nullptr after an addition.
  virtual void AfterChange(const Placement* vacated) { (void)vacated; }

  /// Called at the end of every Match and MatchBatch call, after its
  /// events were sampled into the statistics, without writer_mu_ (callers
  /// serialize Match against mutation). Maintenance that reacts to events
  /// steps here; an override takes writer_mu_ before it mutates.
  virtual void AfterMatch() {}

  /// Called after a subscription lands in a cluster list. For singleton
  /// placements `key` is empty and placement.access_pred set; for table
  /// placements `key` is the entry key (aliasing a scratch buffer — copy
  /// before mutating placement state).
  virtual void OnPlaced(const Placement& placement,
                        const std::vector<Value>& key) {
    (void)placement;
    (void)key;
  }

  // --- subscription plumbing ----------------------------------------------

  /// Rebuilds the Subscription value object from a record (for
  /// reorganization decisions).
  Subscription ReconstructSubscription(SubscriptionId id,
                                       const SubRecord& record) const;

  /// Value of the first equality predicate on `a` in the record.
  Value EqualityValueOf(const SubRecord& record, AttributeId a) const;

  /// ν of the access predicate `record` would use under `schema`, or -1
  /// when the record has no equality predicate on some schema attribute.
  double NuUnderSchema(const SubRecord& record,
                       const AttributeSet& schema) const;

  // --- placement ------------------------------------------------------------

  /// Index of the multi-attribute table for `schema`, creating it if
  /// absent. Requires schema.size() >= 2.
  uint32_t GetOrCreateTable(const AttributeSet& schema);

  /// Index of the multi-attribute table for `schema`, or kFallbackTable.
  uint32_t FindTable(const AttributeSet& schema) const;

  /// Table `t`, or nullptr once deleted.
  MultiAttrHashTable* Table(uint32_t t) const { return tables_[t].get(); }

  /// Table indexes ever created; live ones are those Table() returns.
  uint32_t table_count() const { return static_cast<uint32_t>(tables_.size()); }

  /// The cluster list hanging off equality predicate `pid`, or nullptr.
  const ClusterList* SingletonList(PredicateId pid) const {
    return pid < eq_lists_.size() ? eq_lists_[pid].get() : nullptr;
  }

  /// Puts the subscription at `placement`, filling record->placement and
  /// record->slot.
  void Place(SubscriptionId id, SubRecord* record, const Placement& placement);

  /// One placement move (see MoveAll).
  struct MoveTo {
    SubscriptionId id;
    Placement to;
  };

  /// Relocates placed subscriptions: every target row is added first, then
  /// the source rows are removed.
  void MoveAll(const std::vector<MoveTo>& moves);

  /// Deletes table `t`: re-places its subscriptions (cheapest option
  /// elsewhere), then frees the table. Returns the subscriptions moved.
  /// The OnPlaced hook fires for each re-placement.
  size_t DropTable(uint32_t t);

  /// Drops every placement structure (tables, lists), keeping records and
  /// interned predicates.
  void ClearPlacements();

  /// Computes the table key of `record` under the schema of table `t`.
  void ExtractKeyFor(const SubRecord& record, uint32_t table_index,
                     std::vector<Value>* key) const;

  /// Fills the residual predicate slots (equality-first) of `record` under
  /// the given placement: every predicate except those absorbed by the
  /// access predicate.
  void ComputeResidualSlots(const SubRecord& record,
                            const Placement& placement,
                            std::vector<PredicateId>* slots) const;

  /// Best placement among: the record's single equality predicates (ν from
  /// statistics), the live multi-attribute tables whose schema applies, or
  /// the fallback list if the record has no equality predicate.
  Placement ChooseBestPlacement(const SubRecord& record) const;

  /// Expected per-event cost of `record` under `placement` (ν × checking;
  /// fallback placements have ν = 1).
  double PlacementCost(const SubRecord& record,
                       const Placement& placement) const;

  // --- state ------------------------------------------------------------------

  /// Serializes the mutators. Guards all writer-side state below; Match
  /// never takes it.
  mutable Mutex writer_mu_{LockRank::kMatcherWriter, "matcher_writer"};

  PredicateTable predicate_table_;
  PredicateIndex predicate_index_;

  size_t singleton_count_ = 0;
  /// Subscriptions placed under a singleton access predicate, per
  /// attribute. The dynamic matcher's table-level margin for the natural
  /// clustering reads this (all lists of one attribute together act like
  /// one singleton "table").
  std::vector<size_t> singleton_attr_count_;

  std::unordered_map<AttributeSet, uint32_t, AttributeSetHash> table_lookup_;

  std::unordered_map<SubscriptionId, SubRecord> records_;

  EventStatistics stats_model_;
  CostParams cost_params_;

  bool use_prefetch_;

 private:
  /// Match scratch.
  struct MatchContext;
  /// One event's (or batch's) phase work, accumulated locally and then
  /// added to the match counters.
  struct Work;

  /// Interns all predicates of `s` into `record` (equality-first order) and
  /// registers new ones with the predicate index.
  void InternPredicates(const Subscription& s, SubRecord* record);

  /// Releases the record's predicate references, unregistering predicates
  /// whose last reference died.
  void ReleasePredicates(const SubRecord& record);

  /// Removes the row of `record` at (`placement`, `slot`), patching the
  /// record of the row swapped into its place.
  void Unplace(const SubRecord& record, const Placement& placement,
               ClusterSlot slot);

  /// Counts one matched event toward ν sampling.
  void ObserveSampled(const Event& event);

  /// Matches one chunk of <= BatchResultVector::kMaxLanes events whose
  /// lanes start at `lane_base` of `out`.
  void MatchChunk(std::span<const Event> events, size_t lane_base,
                  BatchResult* out, Work* work) const;

  /// Adds one call's work to the match counters (stats_).
  void Record(const Work& work, size_t events);

  /// Cluster lists of singleton access predicates, indexed by PredicateId.
  std::vector<std::unique_ptr<ClusterList>> eq_lists_;
  /// Multi-attribute tables by index; null once deleted.
  std::vector<std::unique_ptr<MultiAttrHashTable>> tables_;
  std::unique_ptr<ClusterList> fallback_;

  uint32_t observe_sample_rate_;

  std::unique_ptr<MatchContext> ctx_;

  // Writer scratch buffers.
  std::vector<Value> scratch_key_;
  std::vector<PredicateId> scratch_slots_;
  static const std::vector<Value> kEmptyKey;
};

}  // namespace vfps

#endif  // VFPS_MATCHER_CLUSTERED_BASE_H_
