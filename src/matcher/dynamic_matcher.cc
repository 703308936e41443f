// Copyright 2026 The vfps Authors.

#include "src/matcher/dynamic_matcher.h"

#include <algorithm>

#include "src/cost/subset_enum.h"
#include "src/util/hash.h"
#include "src/util/macros.h"

namespace vfps {

namespace {

/// Largest schema considered for potential tables.
constexpr size_t kMaxSchemaSize = 4;
/// Bound on subset enumeration per subscription when voting.
constexpr size_t kMaxSubsetsPerSubscription = 64;
/// A cluster is re-distributed only after growing by this factor since its
/// last distribution (guards against O(n^2) re-scans).
constexpr double kRedistributeGrowth = 2.0;
/// A subscription is moved only when the new placement's expected cost is
/// below this fraction of its current cost. Guards against oscillation
/// between statistically equivalent placements under noisy ν estimates.
constexpr double kMoveHysteresis = 0.7;
/// An unproductive sweep (moves below this fraction of the population,
/// nothing created or deleted) doubles the effective sweep period, up to
/// sweep_period * kSweepBackoffMax; a productive one resets it. Converged
/// systems thus stop paying for sweeps.
constexpr double kSweepBackoffFraction = 0.01;
constexpr uint64_t kSweepBackoffMax = 16;

}  // namespace

DynamicMatcher::DynamicMatcher(DynamicOptions options, bool use_prefetch,
                               uint32_t observe_sample_rate, bool concurrent)
    : ClusteredMatcherBase(use_prefetch, observe_sample_rate, concurrent),
      options_(options) {}

void DynamicMatcher::BeforeRemove(const SubRecord& record) {
  if (record.marked) WithdrawVotes(record);
}

void DynamicMatcher::AfterChange(const Placement* vacated) {
  if (vacated != nullptr && vacated->table_index != kFallbackTable &&
      vacated->table_index != kSingletonTable) {
    MaybeDeleteTable(vacated->table_index);
  }
  CountChangeAndMaybeSweep();
}

void DynamicMatcher::CountChangeAndMaybeSweep() {
  if (options_.sweep_period == 0 || in_maintenance_) return;
  if (sweep_active_) {
    IncrementalSweepStep();
    return;
  }
  if (++changes_since_sweep_ < options_.sweep_period * sweep_backoff_) {
    return;
  }
  changes_since_sweep_ = 0;
  sweep_moved_base_ = maintenance_stats_.subscriptions_moved;
  sweep_created_base_ = maintenance_stats_.tables_created;
  sweep_deleted_base_ = maintenance_stats_.tables_deleted;
  if (!concurrent()) {
    MaintenanceSweep();
    FinishSweepAccounting();
  } else {
    BeginIncrementalSweep();
    IncrementalSweepStep();
  }
}

void DynamicMatcher::FinishSweepAccounting() {
  // Back off when the sweep found nothing to do; re-arm when it did.
  const uint64_t moved =
      maintenance_stats_.subscriptions_moved - sweep_moved_base_;
  const bool productive =
      maintenance_stats_.tables_created != sweep_created_base_ ||
      maintenance_stats_.tables_deleted != sweep_deleted_base_ ||
      static_cast<double>(moved) >
          kSweepBackoffFraction * static_cast<double>(records_.size());
  if (productive) {
    sweep_backoff_ = 1;
  } else if (sweep_backoff_ < kSweepBackoffMax) {
    sweep_backoff_ *= 2;
  }
}

void DynamicMatcher::ResetCensus() {
  potential_.clear();
  for (auto& [id, record] : records_) {
    (void)id;
    record.marked = false;
  }
  last_distributed_size_.clear();
}

std::vector<DynamicMatcher::ClusterRef> DynamicMatcher::SingletonRefs()
    const {
  std::vector<ClusterRef> refs;
  for (PredicateId pid = 0; pid < predicate_table_.capacity(); ++pid) {
    if (SingletonList(pid) == nullptr) continue;
    ClusterRef ref;
    ref.table_index = kSingletonTable;
    ref.access_pred = pid;
    refs.push_back(std::move(ref));
  }
  return refs;
}

std::vector<DynamicMatcher::ClusterRef> DynamicMatcher::TableRefs(
    uint32_t table_index) const {
  std::vector<ClusterRef> refs;
  const MultiAttrHashTable* table = Table(table_index);
  if (table == nullptr) return refs;
  table->ForEachEntry([&](std::span<const Value> key, const ClusterList&) {
    ClusterRef ref;
    ref.table_index = table_index;
    ref.access_pred = kInvalidPredicateId;
    ref.key.assign(key.begin(), key.end());
    refs.push_back(std::move(ref));
  });
  return refs;
}

void DynamicMatcher::BeginIncrementalSweep() {
  ++maintenance_stats_.sweeps;
  // Same fresh census as MaintenanceSweep, but the redistribution work is
  // deferred: snapshot the refs and let IncrementalSweepStep pay them off
  // a chunk per subscription change.
  ResetCensus();
  sweep_refs_ = SingletonRefs();
  for (uint32_t t = 0; t < table_count(); ++t) {
    for (ClusterRef& ref : TableRefs(t)) sweep_refs_.push_back(std::move(ref));
  }
  sweep_pos_ = 0;
  sweep_active_ = true;
}

void DynamicMatcher::IncrementalSweepStep() {
  in_maintenance_ = true;
  // Refs may have gone stale since the snapshot (clusters emptied, tables
  // deleted, predicate ids recycled); ClusterDistribute resolves each ref
  // afresh and skips the vanished ones.
  size_t done = 0;
  while (sweep_pos_ < sweep_refs_.size() && done < kIncrementalSweepChunk) {
    ClusterDistribute(sweep_refs_[sweep_pos_++], /*census=*/true);
    ++done;
  }
  CreateReadyTables();
  if (sweep_pos_ >= sweep_refs_.size()) {
    for (uint32_t t = 0; t < table_count(); ++t) MaybeDeleteTable(t);
    sweep_refs_.clear();
    sweep_pos_ = 0;
    sweep_active_ = false;
    FinishSweepAccounting();
  }
  in_maintenance_ = false;
}

void DynamicMatcher::MaintenanceSweep() {
  ++maintenance_stats_.sweeps;
  in_maintenance_ = true;
  ResetCensus();
  // Every singleton cluster list (including lists the moves create)...
  for (PredicateId pid = 0; pid < predicate_table_.capacity(); ++pid) {
    if (SingletonList(pid) == nullptr) continue;
    ClusterRef ref;
    ref.table_index = kSingletonTable;
    ref.access_pred = pid;
    ClusterDistribute(ref, /*census=*/true);
  }
  CreateReadyTables();
  // ...and every multi-attribute table entry (tables created mid-sweep are
  // appended and visited too; their clusters are already well placed).
  for (uint32_t t = 0; t < table_count(); ++t) {
    for (const ClusterRef& ref : TableRefs(t)) {
      ClusterDistribute(ref, /*census=*/true);
    }
    CreateReadyTables();
  }
  // Reclaim starved multi-attribute tables.
  for (uint32_t t = 0; t < table_count(); ++t) MaybeDeleteTable(t);
  in_maintenance_ = false;
}

std::vector<DynamicMatcher::PotentialSnapshot>
DynamicMatcher::PotentialTables() const {
  std::vector<PotentialSnapshot> out;
  out.reserve(potential_.size());
  for (const auto& [schema, pot] : potential_) {
    out.push_back(PotentialSnapshot{schema, pot.benefit, pot.votes});
  }
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.benefit > b.benefit;
  });
  return out;
}

uint64_t DynamicMatcher::CooldownKey(const ClusterRef& ref) const {
  uint64_t h = Mix64(ref.table_index);
  h = HashCombine(h, ref.access_pred);
  for (Value v : ref.key) h = HashCombine(h, static_cast<uint64_t>(v));
  return h;
}

const ClusterList* DynamicMatcher::ResolveCluster(
    const ClusterRef& ref, double* nu, size_t* structure_population,
    size_t* absorbed_preds) const {
  if (ref.table_index == kSingletonTable) {
    const ClusterList* list = SingletonList(ref.access_pred);
    if (list == nullptr) return nullptr;
    const Predicate& p = predicate_table_.Get(ref.access_pred);
    *nu = stats_model_.ValueProbability(p.attribute, p.value);
    *structure_population = p.attribute < singleton_attr_count_.size()
                                ? singleton_attr_count_[p.attribute]
                                : 0;
    *absorbed_preds = 1;
    return list;
  }
  const MultiAttrHashTable* table = Table(ref.table_index);
  if (table == nullptr) return nullptr;
  const ClusterList* list = table->Probe(ref.key);
  if (list == nullptr) return nullptr;
  *nu = stats_model_.NuConjunction(table->schema(), ref.key);
  *structure_population = table->subscription_count();
  *absorbed_preds = table->schema().size();
  return list;
}

void DynamicMatcher::OnPlaced(const Placement& placement,
                              const std::vector<Value>& key) {
  if (in_maintenance_ || placement.table_index == kFallbackTable) return;
  ClusterRef ref;
  ref.table_index = placement.table_index;
  ref.access_pred = placement.access_pred;
  // `key` aliases the base class's scratch buffer; the redistribution below
  // reuses that buffer, so copy.
  ref.key = key;

  double nu;
  size_t structure_population, absorbed;
  const ClusterList* list =
      ResolveCluster(ref, &nu, &structure_population, &absorbed);
  if (list == nullptr) return;
  // Event-driven trigger: the per-cluster margin only (the paper's
  // BM(c) ≈ ν(p_c)·|c|). The structure-level margin is evaluated by the
  // periodic sweep; reacting to it here would re-distribute some cluster of
  // a big table on nearly every insertion.
  const double cluster_margin =
      nu * static_cast<double>(list->subscription_count());
  if (cluster_margin <= options_.bm_max) return;
  // Growth guard: don't rescan a cluster that barely changed since the last
  // distribution attempt.
  auto cd = last_distributed_size_.find(CooldownKey(ref));
  if (cd != last_distributed_size_.end() &&
      static_cast<double>(list->subscription_count()) <
          static_cast<double>(cd->second) * kRedistributeGrowth) {
    return;
  }
  in_maintenance_ = true;
  ClusterDistribute(ref, /*census=*/false);
  CreateReadyTables();
  in_maintenance_ = false;
}

void DynamicMatcher::WithdrawVotes(const SubRecord& record) {
  // Enumerate the record's own subsets (the same ones it voted for) and
  // withdraw from each; iterating potential_ instead would make every
  // move O(|potential_|), which dominates maintenance at scale.
  const AttributeSet eq_attrs = EqualityAttributesOf(record);
  EnumerateMultiAttrSubsets(
      eq_attrs.ids(), std::min(kMaxSchemaSize, eq_attrs.size()),
      kMaxSubsetsPerSubscription,
      [&](const std::vector<AttributeId>& ids_subset) {
        auto it = potential_.find(AttributeSet(ids_subset));
        if (it == potential_.end() || it->second.votes == 0) return;
        // The per-subscription contribution was not recorded; withdraw the
        // average contribution instead.
        it->second.benefit -=
            it->second.benefit / static_cast<double>(it->second.votes);
        --it->second.votes;
      });
}

void DynamicMatcher::ClusterDistribute(const ClusterRef& ref, bool census) {
  double nu;
  size_t structure_population, absorbed;
  const ClusterList* list =
      ResolveCluster(ref, &nu, &structure_population, &absorbed);
  if (list == nullptr) return;

  // Snapshot ids first: moving subscriptions mutates the cluster rows.
  std::vector<SubscriptionId> ids;
  ids.reserve(list->subscription_count());
  list->ForEachId([&](SubscriptionId id) { ids.push_back(id); });

  ++maintenance_stats_.clusters_distributed;
  std::vector<MoveTo> moves;
  for (SubscriptionId id : ids) {
    auto it = records_.find(id);
    VFPS_DCHECK(it != records_.end());
    SubRecord* record = &it->second;
    const Placement best = ChooseBestPlacement(*record);
    if (best.table_index == record->placement.table_index &&
        best.access_pred == record->placement.access_pred) {
      continue;
    }
    // Move hysteresis: ν estimates are noisy, and without a margin
    // requirement subscriptions bounce between statistically equivalent
    // placements forever (each bounce also withdrawing creation votes).
    const double cur_cost = PlacementCost(*record, record->placement);
    const double best_cost = PlacementCost(*record, best);
    if (best_cost >= kMoveHysteresis * cur_cost) continue;
    moves.push_back(MoveTo{id, best});
    if (record->marked) {
      WithdrawVotes(*record);
      record->marked = false;
    }
  }
  MoveAll(moves);
  maintenance_stats_.subscriptions_moved += moves.size();

  // Whatever redistribution could not fix now votes for potential tables.
  // Votes carry the expected per-event saving, so cheap clusters naturally
  // contribute little and the creation threshold does the real gating.
  list = ResolveCluster(ref, &nu, &structure_population, &absorbed);
  const size_t remaining = list == nullptr ? 0 : list->subscription_count();
  last_distributed_size_[CooldownKey(ref)] = remaining;
  if (list == nullptr) return;
  if (!census) {
    const double cluster_margin = nu * static_cast<double>(remaining);
    const double table_margin =
        nu * static_cast<double>(structure_population);
    if (cluster_margin < options_.bm_max &&
        table_margin < options_.table_bm_max) {
      return;
    }
  }

  std::vector<AttributeId> eq_attrs;
  std::vector<double> eq_probs;
  list->ForEachId([&](SubscriptionId id) {
    auto it = records_.find(id);
    VFPS_DCHECK(it != records_.end());
    SubRecord* record = &it->second;
    if (record->marked) return;
    // Cache ν(a = v_s(a)) per equality attribute once; subset ν values
    // are then products of cached factors instead of fresh hash lookups.
    eq_attrs.clear();
    eq_probs.clear();
    AttributeId prev_attr = kInvalidAttributeId;
    for (uint16_t i = 0; i < record->eq_count; ++i) {
      const Predicate& p = predicate_table_.Get(record->preds[i]);
      if (p.attribute == prev_attr) continue;
      prev_attr = p.attribute;
      eq_attrs.push_back(p.attribute);
      eq_probs.push_back(
          stats_model_.ValueProbability(p.attribute, p.value));
    }
    // Expected checks per event this subscription costs where it is now.
    const double cur_cost =
        nu * CheckingCost(record->preds.size() - absorbed, cost_params_);
    // Cheap pruning: the most selective subset possible is the full
    // equality set; if even it cannot beat the current placement, no
    // subset can.
    double full_nu = 1.0;
    for (double p : eq_probs) full_nu *= p;
    if (full_nu * CheckingCost(record->preds.size() - eq_attrs.size(),
                               cost_params_) >=
        cur_cost) {
      return;
    }
    bool voted = false;
    EnumerateMultiAttrSubsets(
        eq_attrs, std::min(kMaxSchemaSize, eq_attrs.size()),
        kMaxSubsetsPerSubscription,
        [&](const std::vector<AttributeId>& ids_subset) {
          double subset_nu = 1.0;
          for (AttributeId a : ids_subset) {
            for (size_t k = 0; k < eq_attrs.size(); ++k) {
              if (eq_attrs[k] == a) {
                subset_nu *= eq_probs[k];
                break;
              }
            }
          }
          const double alt_cost =
              subset_nu * CheckingCost(
                              record->preds.size() - ids_subset.size(),
                              cost_params_);
          if (alt_cost >= cur_cost) return;  // no saving: no vote
          AttributeSet schema(ids_subset);
          if (FindTable(schema) != kFallbackTable) return;  // exists
          PotentialTable& pot = potential_[schema];
          pot.benefit += cur_cost - alt_cost;
          ++pot.votes;
          voted = true;
          // Register this cluster as a candidate source (deduplicated by
          // hash, bounded in size).
          constexpr size_t kMaxCandidates = 8192;
          if (pot.candidates.size() < kMaxCandidates &&
              pot.candidate_keys.insert(CooldownKey(ref)).second) {
            pot.candidates.push_back(ref);
          }
        });
    if (voted) record->marked = true;
  });
}

void DynamicMatcher::CreateReadyTables() {
  while (true) {
    // Pick the ripest potential table: highest expected-saving headroom
    // over its own per-event probe overhead.
    const AttributeSet* best_schema = nullptr;
    double best_headroom = 0;
    for (const auto& [schema, pot] : potential_) {
      const double threshold =
          options_.create_cost_factor *
          TableOverheadCost(schema, stats_model_, cost_params_);
      const double headroom = pot.benefit - threshold;
      if (headroom >= 0 && headroom > best_headroom) {
        best_headroom = headroom;
        best_schema = &schema;
      }
    }
    if (best_schema == nullptr) return;
    auto node = potential_.extract(*best_schema);
    PotentialTable pot = std::move(node.mapped());
    GetOrCreateTable(node.key());
    ++maintenance_stats_.tables_created;
    for (const ClusterRef& ref : pot.candidates) {
      ClusterDistribute(ref, /*census=*/false);
    }
  }
}

void DynamicMatcher::MaybeDeleteTable(uint32_t table_index) {
  const MultiAttrHashTable* table = Table(table_index);
  if (table == nullptr ||
      static_cast<double>(table->subscription_count()) >=
          options_.b_delete) {
    return;
  }
  ++maintenance_stats_.tables_deleted;
  const bool was_in_maintenance = in_maintenance_;
  in_maintenance_ = true;
  maintenance_stats_.subscriptions_moved += DropTable(table_index);
  in_maintenance_ = was_in_maintenance;
}

}  // namespace vfps
