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
// Serial and concurrent builds. Everything Match reads — the phase-1
// index plane, the singleton cluster lists, the multi-attribute tables and
// the fallback list — is reached through epoch-published slots
// (src/util/epoch.h), and all per-event scratch and counters live in
// per-reader contexts. The two builds differ only where a mutation is
// applied:
//   * serial (the default): mutators edit the published objects in place,
//     and callers serialize Match against mutation (the paper's single
//     matching process; dynamic maintenance runs between events);
//   * concurrent (constructor flag): every mutation is a copy-on-write of
//     the one object it touches, published by pointer swap, with superseded
//     versions reclaimed once the readers that might hold them unpin.
//     Match and MatchBatch may then run on any number of threads while
//     one writer at a time (mutators serialize on writer_mu_) changes the
//     subscription set. A subscription stable across a Match call is
//     always matched exactly; one added or removed during the call may or
//     may not be reported. Placement moves (dynamic maintenance) go add →
//     SynchronizeReaders → remove, and readers overlapping a move drop the
//     transient duplicate.

#ifndef VFPS_MATCHER_CLUSTERED_BASE_H_
#define VFPS_MATCHER_CLUSTERED_BASE_H_

#include <atomic>
#include <memory>
#include <optional>
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
#include "src/util/epoch.h"
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

  /// True for a matcher built concurrent (see the file comment).
  bool concurrent() const { return publisher_ != nullptr; }

  /// Sums the per-reader counters. Match may run concurrently (the
  /// counters are atomic), but callers of stats() itself serialize: the
  /// sum lands in one member snapshot.
  const MatcherStats& stats() const override;
  void ResetStats() override;

  /// Attaches the vfps_matcher_* instruments (recorded per event in both
  /// builds) and the vfps_matcher_tables gauge; a concurrent matcher also
  /// registers the vfps_epoch_* gauges.
  void AttachTelemetry(MetricsRegistry* registry) override;

  /// The event statistics the matcher maintains (ν and μ estimates). Can be
  /// seeded before loading subscriptions to describe the expected workload
  /// (not synchronized: seed before any concurrent activity).
  EventStatistics* mutable_statistics() { return &stats_model_; }
  const EventStatistics& statistics() const { return stats_model_; }

  /// Schemas of the live multi-attribute hash tables. Singleton access
  /// predicates do not appear here: they live on the predicate index.
  std::vector<AttributeSet> TableSchemas() const;

  /// Subscriptions stored in the fallback (no access predicate) list.
  size_t fallback_count() const;

  /// Subscriptions whose access predicate is a single equality predicate.
  size_t singleton_placed_count() const;

  /// The epoch domain of a concurrent matcher (benches and tests print its
  /// reclaim counters); nullptr for a serial one.
  const EpochManager* epoch() const {
    return publisher_ != nullptr ? publisher_->manager() : nullptr;
  }

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
  /// statistics (0 disables observation); `concurrent` selects the
  /// copy-on-write build (see the file comment).
  ClusteredMatcherBase(bool use_prefetch, uint32_t observe_sample_rate,
                       bool concurrent);

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

  /// Serial build only: called at the end of every Match and MatchBatch
  /// call, after its events were sampled into the statistics, without
  /// writer_mu_ (callers serialize Match against mutation). Maintenance
  /// that reacts to events steps here; an override takes writer_mu_ before
  /// it mutates. A concurrent matcher's readers never call it.
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

  /// Table `t`, or nullptr once deleted (writer side).
  MultiAttrHashTable* Table(uint32_t t) const { return tables_[t]; }

  /// Table indexes ever created; live ones are those Table() returns.
  uint32_t table_count() const { return static_cast<uint32_t>(tables_.size()); }

  /// The cluster list hanging off equality predicate `pid`, or nullptr.
  const ClusterList* SingletonList(PredicateId pid) const {
    return eq_lists_.Load(pid);
  }

  /// Puts the subscription at `placement`, filling record->placement and
  /// record->slot.
  void Place(SubscriptionId id, SubRecord* record, const Placement& placement);

  /// One placement move (see MoveAll).
  struct MoveTo {
    SubscriptionId id;
    Placement to;
  };

  /// Relocates placed subscriptions. A concurrent matcher publishes every
  /// target row, waits out the readers that might see only the sources,
  /// then unpublishes the source rows, so no reader misses one; each list
  /// it touches is copied once per phase.
  void MoveAll(const std::vector<MoveTo>& moves);

  /// Deletes table `t`: re-places its subscriptions (cheapest option
  /// elsewhere), then unpublishes the table. Returns the subscriptions
  /// moved. The OnPlaced hook fires for each re-placement.
  size_t DropTable(uint32_t t);

  /// Drops every placement structure (tables, lists), keeping records and
  /// interned predicates. Serial matchers only.
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

  /// The concurrent build's writer and epoch domain; nullptr in a serial
  /// matcher. Declared first: the published containers below take its
  /// address.
  std::unique_ptr<EpochPublisher> publisher_;

  /// Serializes the mutators (both builds; uncontended in the serial one).
  /// Guards all writer-side state below; Match never takes it.
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
  /// Per-reader scratch and counters: one per epoch reader slot in a
  /// concurrent matcher (slot 0 serves a serial one), so Match and
  /// MatchBatch write nothing shared.
  struct ReaderContext;
  /// One event's (or batch's) phase work, accumulated locally and then
  /// added to the reader's counters.
  struct Work;

  /// Pins (concurrent build) and returns the calling reader's context.
  ReaderContext* Context(std::optional<EpochManager::PinGuard>* pin);

  /// Interns all predicates of `s` into `record` (equality-first order) and
  /// registers new ones with the predicate index.
  void InternPredicates(const Subscription& s, SubRecord* record);

  /// Releases the record's predicate references, unregistering predicates
  /// whose last reference died (a concurrent matcher recycles their ids
  /// only after the readers drain).
  void ReleasePredicates(const SubRecord& record);

  /// The epoch manager a concurrent matcher retires through (nullptr in a
  /// serial one).
  EpochManager* manager() const {
    return publisher_ != nullptr ? publisher_->manager() : nullptr;
  }

  /// Removes the row of `record` at (`placement`, `slot`), patching the
  /// record of the row swapped into its place.
  void Unplace(const SubRecord& record, const Placement& placement,
               ClusterSlot slot);

  /// Folds the events readers sampled for the ν statistics (concurrent
  /// build: readers never touch the statistics themselves).
  void FoldSampledEvents();

  /// Counts one matched event toward ν sampling.
  void ObserveSampled(const Event& event, ReaderContext* ctx);

  /// Matches one chunk of <= BatchResultVector::kMaxLanes events whose
  /// lanes start at `lane_base` of `out`.
  void MatchChunk(ReaderContext* ctx, std::span<const Event> events,
                  size_t lane_base, BatchResult* out, Work* work) const;

  /// Adds one phase's work to the reader's counters and the per-event
  /// histograms.
  void Record(ReaderContext* ctx, const Work& work, size_t events);

  /// Cluster lists of singleton access predicates, indexed by PredicateId.
  EpochSlotArray<ClusterList> eq_lists_;
  /// Multi-attribute tables by index, as readers reach them (a null slot
  /// is a deleted table; indexes below table_count_ are published) and as
  /// the writer does (tables_: null once the table is deleted or dying).
  EpochSlotArray<MultiAttrHashTable> published_tables_;
  std::atomic<uint32_t> table_count_{0};
  std::vector<MultiAttrHashTable*> tables_;
  /// Live tables (the vfps_matcher_tables gauge samples it from any
  /// thread).
  std::atomic<uint32_t> live_tables_{0};
  EpochPtr<ClusterList> fallback_;

  /// Odd while a MoveAll or DropTable has a subscription in two lists; a
  /// reader that saw it change deduplicates its result.
  std::atomic<uint64_t> move_seq_{0};

  uint32_t observe_sample_rate_;

  ReaderLocal<ReaderContext> contexts_;
  /// What stats() last summed (see stats()).
  mutable MatcherStats stats_snapshot_;

  // Writer scratch buffers.
  std::vector<Value> scratch_key_;
  std::vector<PredicateId> scratch_slots_;
  static const std::vector<Value> kEmptyKey;
};

}  // namespace vfps

#endif  // VFPS_MATCHER_CLUSTERED_BASE_H_
