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

#ifndef VFPS_MATCHER_DYNAMIC_MATCHER_H_
#define VFPS_MATCHER_DYNAMIC_MATCHER_H_

#include <unordered_map>
#include <unordered_set>
#include <utility>
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
  /// is partial; the sweep guarantees convergence. An unproductive sweep
  /// doubles the effective period, up to a bound (dynamic_matcher.cc). 0
  /// disables sweeps.
  uint64_t sweep_period = 50000;
};

/// Adaptive clustered matcher.
///
/// A serial matcher runs each due sweep in full, between two subscription
/// changes. A concurrent one (see ClusteredMatcherBase) spreads it over
/// the following changes instead: the vote census is reset once when the
/// sweep becomes due, then each change redistributes at most
/// kIncrementalSweepChunk cluster lists until the pass completes, so no
/// single writer call stalls for a whole pass. Clusters that appear
/// mid-pass are caught by the next sweep.
class DynamicMatcher : public ClusteredMatcherBase {
 public:
  explicit DynamicMatcher(DynamicOptions options = {},
                          bool use_prefetch = true,
                          uint32_t observe_sample_rate = 16,
                          bool concurrent = false);

  const char* name() const override { return "dynamic"; }

  /// Cluster lists an incremental sweep redistributes per change.
  static constexpr size_t kIncrementalSweepChunk = 16;

  /// Maintenance counters (for the Figure 4 benches and tests). Writer
  /// side: read while no mutation is in flight.
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

  /// Snapshot of the pending potential tables (schema, accumulated benefit,
  /// votes), sorted by descending benefit. For tests and diagnostics.
  struct PotentialSnapshot {
    AttributeSet schema;
    double benefit;
    uint64_t votes;
  };
  std::vector<PotentialSnapshot> PotentialTables() const;

 protected:
  void BeforeRemove(const SubRecord& record) override;
  void AfterChange(const Placement* vacated) override;
  void OnPlaced(const Placement& placement,
                const std::vector<Value>& key) override;

 private:
  /// Identifies one cluster list: either a singleton list (access_pred set)
  /// or a multi-attribute table entry (table_index + key).
  struct ClusterRef {
    uint32_t table_index = kSingletonTable;
    PredicateId access_pred = kInvalidPredicateId;
    std::vector<Value> key;
  };

  struct PotentialTable {
    /// Accumulated expected checks saved per event (cost-model units).
    double benefit = 0;
    /// Number of subscriptions that contributed to `benefit`.
    uint64_t votes = 0;
    /// Candidate clusters, deduplicated via `candidate_keys` (hashes) and
    /// capped — clusters missed by the cap are picked up by the next
    /// maintenance sweep.
    std::vector<ClusterRef> candidates;
    std::unordered_set<uint64_t> candidate_keys;
  };

  /// The cluster list `ref` denotes, or nullptr if it vanished. Also
  /// reports ν of its access predicate and the structure-level population
  /// (the table's subscription count, or the attribute-wide singleton
  /// count) used by the table margin.
  const ClusterList* ResolveCluster(const ClusterRef& ref, double* nu,
                                    size_t* structure_population,
                                    size_t* absorbed_preds) const;

  /// Redistributes the subscriptions of one cluster list into better
  /// placements; votes for potential tables. In the event-driven path
  /// (census=false) voting is gated on the margins staying excessive after
  /// redistribution; during a sweep census every positive saving counts.
  void ClusterDistribute(const ClusterRef& ref, bool census);

  /// Creates every potential table whose benefit reached the creation
  /// threshold and redistributes its candidate clusters.
  void CreateReadyTables();

  /// Drops multi-attribute table `table_index` if it fell below Bdelete,
  /// re-placing its subscriptions.
  void MaybeDeleteTable(uint32_t table_index);

  /// Periodic full maintenance pass: fresh vote census, redistribution of
  /// every cluster, table creation and deletion.
  void MaintenanceSweep();

  /// Bumps the change counter and runs MaintenanceSweep when due (or, in a
  /// concurrent matcher, advances the in-progress incremental sweep).
  void CountChangeAndMaybeSweep();

  /// Starts an incremental sweep: resets the census and snapshots the
  /// cluster refs to visit.
  void BeginIncrementalSweep();

  /// Redistributes up to kIncrementalSweepChunk pending refs; finishes the
  /// sweep (table deletion, backoff accounting) when the list drains.
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

  uint64_t CooldownKey(const ClusterRef& ref) const;

  DynamicOptions options_;
  std::unordered_map<AttributeSet, PotentialTable, AttributeSetHash>
      potential_;
  /// Cluster-list size at its last distribution, keyed by a hash of the
  /// ClusterRef. Collisions only make the growth guard conservative.
  std::unordered_map<uint64_t, size_t> last_distributed_size_;
  MaintenanceStats maintenance_stats_;
  uint64_t changes_since_sweep_ = 0;
  uint64_t sweep_backoff_ = 1;  // multiplier on sweep_period
  bool in_maintenance_ = false;
  /// Incremental-sweep state (concurrent matcher): pending cluster refs,
  /// progress cursor, and the maintenance-stat baselines the backoff rule
  /// compares against once the pass completes.
  bool sweep_active_ = false;
  std::vector<ClusterRef> sweep_refs_;
  size_t sweep_pos_ = 0;
  uint64_t sweep_moved_base_ = 0;
  uint64_t sweep_created_base_ = 0;
  uint64_t sweep_deleted_base_ = 0;
};

}  // namespace vfps

#endif  // VFPS_MATCHER_DYNAMIC_MATCHER_H_
