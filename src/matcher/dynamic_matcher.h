// Copyright 2026 The vfps Authors.
// The dynamic algorithm (Section 4): clustering starts from the natural
// configuration — every subscription under its most selective single
// equality predicate — and adapts online. Each placement updates the
// touched cluster's *benefit margin* BM(c) = ν(p_c)·|c| (the expected
// checks per event the cluster costs); when it (or the table-level margin)
// exceeds its threshold the cluster is redistributed into better existing
// placements, and the remaining subscriptions vote for *potential*
// multi-attribute tables. A potential table whose accumulated benefit
// justifies its per-event probe overhead is created and populated from its
// candidate clusters; an existing table whose benefit |H| drops below
// Bdelete is dropped. A periodic full sweep (the paper: metrics are
// "updated periodically after a certain number of subscription changes")
// re-takes the vote census so drifting workloads always converge.
//
// Cold start. Benefits are expected checks saved per event, which means
// nothing before an event has been seen (every ν would read 1). While the
// observed event weight is zero a subscription therefore stays on its
// singleton placement and votes for nothing, and a due sweep is skipped.
// Once kColdCensusSamples events have been sampled, a census re-takes
// those placements; after that, the event count drives a sweep every decay
// window of samples as the change count does every sweep_period changes.

#ifndef VFPS_MATCHER_DYNAMIC_MATCHER_H_
#define VFPS_MATCHER_DYNAMIC_MATCHER_H_

#include <array>
#include <unordered_map>
#include <vector>

#include "src/matcher/clustered_base.h"

namespace vfps {

/// Thresholds and bounds of the maintenance algorithm. The paper's
/// first-approximation metrics (BM(c) = ν(p_c)·|c|, B(H) = |H|) are kept,
/// with refinements that make the thresholds scale-independent: a
/// table-level margin complements the per-cluster margin (many small
/// clusters of one structure can jointly be expensive while each stays
/// under BMmax), and the creation benefit is accumulated in cost-model
/// units (expected checks saved per event) and weighed against the new
/// table's per-event probe overhead.
struct DynamicOptions {
  /// BMmax: a cluster list expected to cost more than this many row checks
  /// per event is a redistribution candidate.
  double bm_max = 8.0;
  /// Table-level margin: clusters are also redistributed while their whole
  /// structure (a multi-attribute table, or all singleton lists of one
  /// attribute) is expected to cost more than this many checks per event.
  double table_bm_max = 64.0;
  /// Bcreate: a potential table is created once the accumulated expected
  /// checks saved per event reach this multiple of the table's own
  /// per-event overhead (cost model TableOverheadCost).
  double create_cost_factor = 2.0;
  /// Bdelete: a multi-attribute table holding fewer subscriptions than this
  /// is dropped. Singleton cluster lists are never dropped: they are the
  /// natural clustering and cost nothing beyond the predicate index.
  double b_delete = 64.0;
  /// Every this many subscription changes, a full maintenance sweep runs:
  /// the vote census restarts from scratch and every cluster is
  /// redistributed once. The incremental OnPlaced reaction alone only ever
  /// polls the clusters that happen to grow past the guard, so its census
  /// is partial; the sweep guarantees convergence. Sampled events make a
  /// sweep due too (see the file comment). An unproductive sweep doubles
  /// the effective periods, up to a bound (dynamic_matcher.cc). 0 disables
  /// every sweep.
  uint64_t sweep_period = 50000;
};

/// Adaptive clustered matcher.
///
/// A sweep made due by subscription changes runs in full, between two
/// changes; one made due by sampled events is spread over the following
/// Match/MatchBatch calls (and changes), a bounded number of subscriptions
/// per call (dynamic_matcher.cc), so the matching thread never stalls for a
/// whole pass. An incremental sweep resets the vote census once when it
/// becomes due; clusters that appear mid-pass are caught by the next one.
class DynamicMatcher : public ClusteredMatcherBase {
 public:
  explicit DynamicMatcher(DynamicOptions options = {},
                          bool use_prefetch = true,
                          uint32_t observe_sample_rate = 16);

  const char* name() const override { return "dynamic"; }

  /// Sampled events after which placements made at zero event weight are
  /// re-taken by a census (~8k events at the broker's sampling rate 16):
  /// enough to price ν within ~25% for a few dozen values per attribute.
  static constexpr uint64_t kColdCensusSamples = 512;

  /// Maintenance counters (for the Figure 4 benches and tests). Read while
  /// no mutation is in flight.
  struct MaintenanceStats {
    uint64_t clusters_distributed = 0;
    uint64_t subscriptions_moved = 0;
    uint64_t tables_created = 0;
    uint64_t tables_deleted = 0;
    uint64_t sweeps = 0;
  };
  const MaintenanceStats& maintenance_stats() const {
    return maintenance_stats_;
  }

  /// True while an incremental sweep has cluster lists left to visit.
  bool sweep_in_progress() const { return sweep_active_; }

  /// Also exports the maintenance counters as vfps_matcher_* series
  /// (docs/OBSERVABILITY.md); they count the work done while attached.
  void AttachTelemetry(MetricsRegistry* registry) override;

 protected:
  void BeforeRemove(const SubRecord& record) override;
  void AfterChange(const Placement* vacated) override;
  void OnPlaced(const Placement& placement,
                const std::vector<Value>& key) override;
  void AfterMatch() override;

 private:
  /// Largest schema considered for potential (hence created) tables.
  static constexpr size_t kMaxSchemaSize = 4;

  /// Identifies one cluster list: either a singleton list (access_pred set)
  /// or a multi-attribute table entry (table_index + key).
  struct ClusterRef {
    uint32_t table_index = kSingletonTable;
    PredicateId access_pred = kInvalidPredicateId;
    uint32_t key_size = 0;
    std::array<Value, kMaxSchemaSize> key{};
  };

  /// A schema of at most kMaxSchemaSize attributes, ascending, padded with
  /// kInvalidAttributeId: the flat key of the potential-table map.
  struct SchemaKey {
    std::array<AttributeId, kMaxSchemaSize> ids;
    bool operator==(const SchemaKey&) const = default;
    uint64_t Hash() const;
    AttributeSet ToSet() const;
  };

  struct PotentialTable {
    SchemaKey schema;
    /// Accumulated expected checks saved per event (cost-model units).
    double benefit = 0;
    /// Number of subscriptions that contributed to `benefit`.
    uint64_t votes = 0;
    /// A live table has this schema (looked up once, then kept current by
    /// table creation and deletion): votes for it are not counted.
    bool has_table = false;
    /// Candidate clusters as indexes into vote_sources_, capped; clusters
    /// missed by the cap are picked up by the next maintenance sweep.
    /// `last_source` deduplicates: one cluster's subscriptions register
    /// it once.
    uint32_t last_source = 0xffffffffu;
    std::vector<uint32_t> candidates;
  };

  /// The cluster list `ref` denotes, or nullptr if it vanished. Also
  /// reports ν of its access predicate and the structure-level population
  /// (the table's subscription count, or the attribute-wide singleton
  /// count) used by the table margin.
  const ClusterList* ResolveCluster(const ClusterRef& ref, double* nu,
                                    size_t* structure_population,
                                    size_t* absorbed_preds);

  /// Redistributes the subscriptions of one cluster list into better
  /// placements; votes for potential tables. In the event-driven path
  /// (census=false) voting is gated on the margins staying excessive after
  /// redistribution; during a sweep census every positive saving counts.
  /// Returns the subscriptions examined.
  size_t ClusterDistribute(const ClusterRef& ref, bool census);

  /// Creates every potential table whose benefit reached the creation
  /// threshold and redistributes its candidate clusters.
  void CreateReadyTables();

  /// Drops multi-attribute table `table_index` if it fell below Bdelete,
  /// re-placing its subscriptions.
  void MaybeDeleteTable(uint32_t table_index);

  /// Periodic full maintenance pass: fresh vote census, redistribution of
  /// every cluster, table creation and deletion.
  void MaintenanceSweep();

  /// Bumps the change counter and starts a sweep when one is due (or
  /// advances the in-progress incremental sweep).
  void CountChangeAndMaybeSweep();

  /// True when sampled events make a sweep due: the cold-start census, or
  /// a decay window of samples since the last sweep (unseeded statistics
  /// only: seeded ones describe the workload up front).
  bool EventSweepDue() const;

  /// Starts a sweep: backoff baselines, trigger bookkeeping, then either
  /// the full pass (`full`) or the first incremental step.
  void StartSweep(bool full);

  /// Starts an incremental sweep: resets the census and snapshots the
  /// cluster refs to visit.
  void BeginIncrementalSweep();

  /// Redistributes pending refs up to the step budget; finishes the sweep
  /// (table deletion, backoff accounting) when the list drains.
  void IncrementalSweepStep();

  /// Fresh census: forgets votes, marks and growth-guard entries so every
  /// subscription can be counted again under current statistics.
  void ResetCensus();

  /// Refs of every singleton cluster list (incremental sweeps), and of
  /// every entry of table `table_index`.
  std::vector<ClusterRef> SingletonRefs() const;
  std::vector<ClusterRef> TableRefs(uint32_t table_index) const;

  /// Applies the productive/backoff rule against the sweep-start baseline.
  void FinishSweepAccounting();

  /// When a marked subscription finally moves, withdraw its votes.
  void WithdrawVotes(const SubRecord& record);

  /// Fills eq_attrs_ with the record's distinct equality attributes
  /// (ascending) and, if `with_nu`, eq_nu_ with ν(a = v) of each.
  void LoadEqualityAttributes(const SubRecord& record, bool with_nu);

  /// The schema of the eq_attrs_ positions `pos[0..k)`.
  SchemaKey SubsetKey(const size_t* pos, size_t k) const;

  /// The potential table for `schema`, or nullptr.
  PotentialTable* FindPotential(const SchemaKey& schema);
  /// The potential table for `schema`, created empty if absent.
  PotentialTable& PotentialFor(const SchemaKey& schema);

  uint64_t CooldownKey(const ClusterRef& ref) const;

  /// Adds `n` to one maintenance counter and to its exported series.
  static void Count(uint64_t* stat, Counter* series, uint64_t n);

  DynamicOptions options_;
  /// Potential tables, densely stored, with an open-addressing index of
  /// `potential_.size() + 1`-biased positions (0 = empty slot).
  std::vector<PotentialTable> potential_;
  std::vector<uint32_t> potential_slots_;
  /// The clusters that cast votes this census (PotentialTable::candidates
  /// point here).
  std::vector<ClusterRef> vote_sources_;
  /// Cluster-list size at its last distribution, keyed by a hash of the
  /// ClusterRef. Collisions only make the growth guard conservative.
  std::unordered_map<uint64_t, size_t> last_distributed_size_;
  MaintenanceStats maintenance_stats_;
  uint64_t changes_since_sweep_ = 0;
  uint64_t sweep_backoff_ = 1;  // multiplier on both sweep periods
  /// Subscriptions placed while no event weight was known; a census
  /// re-takes them once kColdCensusSamples events have been sampled.
  uint64_t blind_placements_ = 0;
  /// statistics().observed_count() when the last sweep started.
  uint64_t observed_at_sweep_ = 0;
  bool in_maintenance_ = false;
  /// Incremental-sweep state: pending cluster refs, progress cursor, and
  /// the maintenance-stat baselines the backoff rule compares against once
  /// the pass completes.
  bool sweep_active_ = false;
  std::vector<ClusterRef> sweep_refs_;
  size_t sweep_pos_ = 0;
  uint64_t sweep_moved_base_ = 0;
  uint64_t sweep_created_base_ = 0;
  uint64_t sweep_deleted_base_ = 0;

  // Scratch reused across distributions and votes.
  std::vector<std::pair<SubscriptionId, SubRecord*>> scratch_rows_;
  std::vector<MoveTo> scratch_moves_;
  std::vector<AttributeId> eq_attrs_;
  std::vector<double> eq_nu_;
  std::vector<Value> probe_key_;

  /// Exported maintenance counters (null while detached).
  struct Series {
    Counter* tables_created = nullptr;
    Counter* tables_deleted = nullptr;
    Counter* subscriptions_moved = nullptr;
    Counter* sweeps = nullptr;
  };
  Series series_;
};

}  // namespace vfps

#endif  // VFPS_MATCHER_DYNAMIC_MATCHER_H_
