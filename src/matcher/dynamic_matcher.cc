// Copyright 2026 The vfps Authors.

#include "src/matcher/dynamic_matcher.h"

#include <algorithm>
#include <cstdint>

#include "src/cost/subset_enum.h"
#include "src/util/hash.h"
#include "src/util/macros.h"

namespace vfps {

namespace {

/// Bound on subset enumeration per subscription when voting.
constexpr size_t kMaxSubsetsPerSubscription = 64;
/// Bound on the candidate clusters one potential table remembers.
constexpr size_t kMaxCandidates = 8192;
/// Subscriptions an incremental sweep step redistributes, at most, before
/// it yields (the list it is on is always finished), so a step's cost does
/// not grow with the population.
constexpr size_t kSweepStepRows = 1024;
/// A cluster is re-distributed only after growing by this factor since its
/// last distribution (guards against O(n^2) re-scans).
constexpr double kRedistributeGrowth = 2.0;
/// A subscription is moved only when the new placement's expected cost is
/// below this fraction of its current cost. Guards against oscillation
/// between statistically equivalent placements under noisy ν estimates.
constexpr double kMoveHysteresis = 0.7;
/// An unproductive sweep (moves below this fraction of the population,
/// nothing created or deleted) doubles the effective sweep periods, up to
/// kSweepBackoffMax times; a productive one resets them. Converged systems
/// thus stop paying for sweeps.
constexpr double kSweepBackoffFraction = 0.01;
constexpr uint64_t kSweepBackoffMax = 16;

}  // namespace

uint64_t DynamicMatcher::SchemaKey::Hash() const {
  uint64_t h = Mix64(ids[0]);
  for (size_t i = 1; i < kMaxSchemaSize; ++i) h = HashCombine(h, ids[i]);
  return h;
}

AttributeSet DynamicMatcher::SchemaKey::ToSet() const {
  std::vector<AttributeId> set;
  for (AttributeId a : ids) {
    if (a != kInvalidAttributeId) set.push_back(a);
  }
  return AttributeSet(std::move(set));
}

DynamicMatcher::DynamicMatcher(DynamicOptions options, bool use_prefetch,
                               uint32_t observe_sample_rate)
    : ClusteredMatcherBase(use_prefetch, observe_sample_rate),
      options_(options) {}

void DynamicMatcher::AttachTelemetry(MetricsRegistry* registry) {
  ClusteredMatcherBase::AttachTelemetry(registry);
  MutexLock lock(writer_mu_);
  series_ = Series();
#if VFPS_TELEMETRY
  if (registry == nullptr) return;
  series_.tables_created =
      registry->GetCounter("vfps_matcher_tables_created_total");
  series_.tables_deleted =
      registry->GetCounter("vfps_matcher_tables_deleted_total");
  series_.subscriptions_moved =
      registry->GetCounter("vfps_matcher_subscriptions_moved_total");
  series_.sweeps = registry->GetCounter("vfps_matcher_sweeps_total");
#endif
}

void DynamicMatcher::Count(uint64_t* stat, Counter* series, uint64_t n) {
  *stat += n;
#if VFPS_TELEMETRY
  if (series != nullptr) series->Inc(n);
#else
  (void)series;
#endif
}

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

void DynamicMatcher::AfterMatch() {
  if (options_.sweep_period == 0) return;
  if (!sweep_active_ && !EventSweepDue()) return;
  MutexLock lock(writer_mu_);
  if (sweep_active_) {
    IncrementalSweepStep();
  } else {
    StartSweep(/*full=*/false);
  }
}

bool DynamicMatcher::EventSweepDue() const {
  const uint64_t observed = stats_model_.observed_count();
  if (blind_placements_ > 0 && observed >= kColdCensusSamples) return true;
  const uint64_t window = stats_model_.decay_window();
  return window != 0 && !stats_model_.seeded() &&
         observed - observed_at_sweep_ >= window * sweep_backoff_;
}

void DynamicMatcher::CountChangeAndMaybeSweep() {
  if (options_.sweep_period == 0 || in_maintenance_) return;
  if (sweep_active_) {
    IncrementalSweepStep();
    return;
  }
  const bool change_due =
      ++changes_since_sweep_ >= options_.sweep_period * sweep_backoff_;
  if (!change_due && !EventSweepDue()) return;
  if (stats_model_.total_weight() <= 0) {
    // No event seen yet: every ν reads 1, so a census would price nothing
    // but predicate counts. Skip it; the sampled events re-arm it.
    changes_since_sweep_ = 0;
    return;
  }
  // A change-driven sweep runs in full; an event-driven one goes
  // incrementally.
  StartSweep(/*full=*/change_due);
}

void DynamicMatcher::StartSweep(bool full) {
  changes_since_sweep_ = 0;
  blind_placements_ = 0;
  observed_at_sweep_ = stats_model_.observed_count();
  sweep_moved_base_ = maintenance_stats_.subscriptions_moved;
  sweep_created_base_ = maintenance_stats_.tables_created;
  sweep_deleted_base_ = maintenance_stats_.tables_deleted;
  if (full) {
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
  potential_.shrink_to_fit();
  potential_slots_.clear();
  potential_slots_.shrink_to_fit();
  vote_sources_.clear();
  vote_sources_.shrink_to_fit();
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
    refs.push_back(ref);
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
    ref.key_size = static_cast<uint32_t>(key.size());
    std::copy(key.begin(), key.end(), ref.key.begin());
    refs.push_back(ref);
  });
  return refs;
}

void DynamicMatcher::BeginIncrementalSweep() {
  Count(&maintenance_stats_.sweeps, series_.sweeps, 1);
  // Same fresh census as MaintenanceSweep, but the redistribution work is
  // deferred: snapshot the refs and let IncrementalSweepStep pay them off
  // a step at a time.
  ResetCensus();
  sweep_refs_ = SingletonRefs();
  for (uint32_t t = 0; t < table_count(); ++t) {
    for (const ClusterRef& ref : TableRefs(t)) sweep_refs_.push_back(ref);
  }
  sweep_pos_ = 0;
  sweep_active_ = true;
}

void DynamicMatcher::IncrementalSweepStep() {
  in_maintenance_ = true;
  // Refs may have gone stale since the snapshot (clusters emptied, tables
  // deleted, predicate ids recycled); ClusterDistribute resolves each ref
  // afresh and skips the vanished ones.
  size_t rows = 0;
  while (sweep_pos_ < sweep_refs_.size() && rows < kSweepStepRows) {
    rows += ClusterDistribute(sweep_refs_[sweep_pos_++], /*census=*/true);
  }
  CreateReadyTables();
  if (sweep_pos_ >= sweep_refs_.size()) {
    for (uint32_t t = 0; t < table_count(); ++t) MaybeDeleteTable(t);
    sweep_refs_.clear();
    sweep_refs_.shrink_to_fit();
    sweep_pos_ = 0;
    sweep_active_ = false;
    FinishSweepAccounting();
  }
  in_maintenance_ = false;
}

void DynamicMatcher::MaintenanceSweep() {
  Count(&maintenance_stats_.sweeps, series_.sweeps, 1);
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

DynamicMatcher::PotentialTable* DynamicMatcher::FindPotential(
    const SchemaKey& schema) {
  if (potential_slots_.empty()) return nullptr;
  const size_t mask = potential_slots_.size() - 1;
  for (size_t s = schema.Hash() & mask;; s = (s + 1) & mask) {
    const uint32_t biased = potential_slots_[s];
    if (biased == 0) return nullptr;
    if (potential_[biased - 1].schema == schema) {
      return &potential_[biased - 1];
    }
  }
}

DynamicMatcher::PotentialTable& DynamicMatcher::PotentialFor(
    const SchemaKey& schema) {
  if (PotentialTable* pot = FindPotential(schema)) return *pot;
  // Keep the index at most half full: grow and re-seat every entry.
  if (2 * (potential_.size() + 1) > potential_slots_.size()) {
    potential_slots_.assign(
        std::max<size_t>(64, 2 * potential_slots_.size()), 0);
    const size_t mask = potential_slots_.size() - 1;
    for (size_t i = 0; i < potential_.size(); ++i) {
      size_t s = potential_[i].schema.Hash() & mask;
      while (potential_slots_[s] != 0) s = (s + 1) & mask;
      potential_slots_[s] = static_cast<uint32_t>(i + 1);
    }
  }
  const size_t mask = potential_slots_.size() - 1;
  size_t s = schema.Hash() & mask;
  while (potential_slots_[s] != 0) s = (s + 1) & mask;
  potential_slots_[s] = static_cast<uint32_t>(potential_.size() + 1);
  PotentialTable& pot = potential_.emplace_back();
  pot.schema = schema;
  pot.has_table = FindTable(schema.ToSet()) != kFallbackTable;
  return pot;
}

uint64_t DynamicMatcher::CooldownKey(const ClusterRef& ref) const {
  uint64_t h = Mix64(ref.table_index);
  h = HashCombine(h, ref.access_pred);
  for (uint32_t i = 0; i < ref.key_size; ++i) {
    h = HashCombine(h, static_cast<uint64_t>(ref.key[i]));
  }
  return h;
}

const ClusterList* DynamicMatcher::ResolveCluster(
    const ClusterRef& ref, double* nu, size_t* structure_population,
    size_t* absorbed_preds) {
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
  probe_key_.assign(ref.key.begin(), ref.key.begin() + ref.key_size);
  const ClusterList* list = table->Probe(probe_key_);
  if (list == nullptr) return nullptr;
  *nu = stats_model_.NuConjunction(table->schema(), probe_key_);
  *structure_population = table->subscription_count();
  *absorbed_preds = table->schema().size();
  return list;
}

void DynamicMatcher::OnPlaced(const Placement& placement,
                              const std::vector<Value>& key) {
  if (in_maintenance_ || placement.table_index == kFallbackTable) return;
  if (stats_model_.total_weight() <= 0) {
    // No event weight: no benefit can be priced, so the placement stands
    // until the cold-start census re-takes it.
    ++blind_placements_;
    return;
  }
  ClusterRef ref;
  ref.table_index = placement.table_index;
  ref.access_pred = placement.access_pred;
  ref.key_size = static_cast<uint32_t>(key.size());
  std::copy(key.begin(), key.end(), ref.key.begin());

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

void DynamicMatcher::LoadEqualityAttributes(const SubRecord& record,
                                            bool with_nu) {
  // Equality predicates come first in attribute order, so repeats of one
  // attribute are adjacent; the first one is the attribute's value.
  eq_attrs_.clear();
  eq_nu_.clear();
  AttributeId prev_attr = kInvalidAttributeId;
  for (uint16_t i = 0; i < record.eq_count; ++i) {
    const Predicate& p = predicate_table_.Get(record.preds[i]);
    if (p.attribute == prev_attr) continue;
    prev_attr = p.attribute;
    eq_attrs_.push_back(p.attribute);
    if (with_nu) {
      eq_nu_.push_back(stats_model_.ValueProbability(p.attribute, p.value));
    }
  }
}

DynamicMatcher::SchemaKey DynamicMatcher::SubsetKey(const size_t* pos,
                                                    size_t k) const {
  SchemaKey key;
  key.ids.fill(kInvalidAttributeId);
  for (size_t i = 0; i < k; ++i) key.ids[i] = eq_attrs_[pos[i]];
  return key;
}

void DynamicMatcher::WithdrawVotes(const SubRecord& record) {
  // Enumerate the record's own subsets (the same ones it voted for) and
  // withdraw from each; iterating potential_ instead would make every
  // move O(|potential_|), which dominates maintenance at scale.
  LoadEqualityAttributes(record, /*with_nu=*/false);
  EnumerateMultiAttrSubsets(
      eq_attrs_.size(), std::min(kMaxSchemaSize, eq_attrs_.size()),
      kMaxSubsetsPerSubscription, [&](const size_t* pos, size_t k) {
        PotentialTable* pot = FindPotential(SubsetKey(pos, k));
        if (pot == nullptr || pot->votes == 0) return;
        // The per-subscription contribution was not recorded; withdraw the
        // average contribution instead.
        pot->benefit -= pot->benefit / static_cast<double>(pot->votes);
        --pot->votes;
      });
}

size_t DynamicMatcher::ClusterDistribute(const ClusterRef& ref, bool census) {
  double nu;
  size_t structure_population, absorbed;
  const ClusterList* list =
      ResolveCluster(ref, &nu, &structure_population, &absorbed);
  if (list == nullptr) return 0;

  // Snapshot the rows first: moving subscriptions mutates the cluster
  // rows. Record addresses are stable (nothing is erased meanwhile).
  std::vector<std::pair<SubscriptionId, SubRecord*>>& rows = scratch_rows_;
  rows.clear();
  list->ForEachId([&](SubscriptionId id) {
    auto it = records_.find(id);
    VFPS_DCHECK(it != records_.end());
    rows.emplace_back(id, &it->second);
  });

  ++maintenance_stats_.clusters_distributed;
  std::vector<MoveTo>& moves = scratch_moves_;
  moves.clear();
  for (const auto& [id, record] : rows) {
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
  Count(&maintenance_stats_.subscriptions_moved, series_.subscriptions_moved,
        moves.size());

  // Whatever redistribution could not fix now votes for potential tables.
  // Votes carry the expected per-event saving, so cheap clusters naturally
  // contribute little and the creation threshold does the real gating.
  list = ResolveCluster(ref, &nu, &structure_population, &absorbed);
  const size_t remaining = list == nullptr ? 0 : list->subscription_count();
  last_distributed_size_[CooldownKey(ref)] = remaining;
  if (list == nullptr) return rows.size();
  if (!census) {
    const double cluster_margin = nu * static_cast<double>(remaining);
    const double table_margin =
        nu * static_cast<double>(structure_population);
    if (cluster_margin < options_.bm_max &&
        table_margin < options_.table_bm_max) {
      return rows.size();
    }
  }

  // This cluster's index among the census's vote sources, assigned at its
  // first vote.
  uint32_t source = 0xffffffffu;
  for (const auto& [id, record] : rows) {
    (void)id;
    // The rows still here: moved ones left this cluster.
    if (record->marked ||
        record->placement.table_index != ref.table_index ||
        record->placement.access_pred != ref.access_pred) {
      continue;
    }
    // Cache ν(a = v_s(a)) per equality attribute once; subset ν values
    // are then products of cached factors instead of fresh hash lookups.
    LoadEqualityAttributes(*record, /*with_nu=*/true);
    // Expected checks per event this subscription costs where it is now.
    const double cur_cost =
        nu * CheckingCost(record->preds.size() - absorbed, cost_params_);
    // Cheap pruning: the most selective subset possible is the full
    // equality set; if even it cannot beat the current placement, no
    // subset can.
    double full_nu = 1.0;
    for (double p : eq_nu_) full_nu *= p;
    if (full_nu * CheckingCost(record->preds.size() - eq_attrs_.size(),
                               cost_params_) >=
        cur_cost) {
      continue;
    }
    bool voted = false;
    EnumerateMultiAttrSubsets(
        eq_attrs_.size(), std::min(kMaxSchemaSize, eq_attrs_.size()),
        kMaxSubsetsPerSubscription, [&](const size_t* pos, size_t k) {
          double subset_nu = 1.0;
          for (size_t i = 0; i < k; ++i) subset_nu *= eq_nu_[pos[i]];
          const double alt_cost =
              subset_nu *
              CheckingCost(record->preds.size() - k, cost_params_);
          if (alt_cost >= cur_cost) return;  // no saving: no vote
          PotentialTable& pot = PotentialFor(SubsetKey(pos, k));
          if (pot.has_table) return;
          pot.benefit += cur_cost - alt_cost;
          ++pot.votes;
          voted = true;
          // Register this cluster as a candidate source, once per table
          // and within the cap.
          if (source == 0xffffffffu) {
            source = static_cast<uint32_t>(vote_sources_.size());
            vote_sources_.push_back(ref);
          }
          if (pot.last_source != source &&
              pot.candidates.size() < kMaxCandidates) {
            pot.last_source = source;
            pot.candidates.push_back(source);
          }
        });
    if (voted) record->marked = true;
  }
  return rows.size();
}

void DynamicMatcher::CreateReadyTables() {
  while (true) {
    // Pick the ripest potential table: highest expected-saving headroom
    // over its own per-event probe overhead.
    PotentialTable* best = nullptr;
    AttributeSet best_schema;
    double best_headroom = 0;
    for (PotentialTable& pot : potential_) {
      if (pot.has_table || pot.votes == 0) continue;
      // The overhead is at least K_r; skip what cannot beat the best so far
      // before paying for the schema's μ.
      if (pot.benefit -
              options_.create_cost_factor * cost_params_.k_index_retrieve <=
          best_headroom) {
        continue;
      }
      const AttributeSet schema = pot.schema.ToSet();
      const double threshold =
          options_.create_cost_factor *
          TableOverheadCost(schema, stats_model_, cost_params_);
      const double headroom = pot.benefit - threshold;
      if (headroom >= 0 && headroom > best_headroom) {
        best_headroom = headroom;
        best = &pot;
        best_schema = schema;
      }
    }
    if (best == nullptr) return;
    // The entry stays, marked as a live table, so later votes for the
    // schema are recognised without a table lookup.
    best->has_table = true;
    best->benefit = 0;
    best->votes = 0;
    const std::vector<uint32_t> candidates = std::move(best->candidates);
    best->candidates.clear();
    GetOrCreateTable(best_schema);
    Count(&maintenance_stats_.tables_created, series_.tables_created, 1);
    for (uint32_t source : candidates) {
      // Copied: a distribution may append to vote_sources_.
      const ClusterRef ref = vote_sources_[source];
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
  // The schema is open for votes again.
  SchemaKey schema;
  schema.ids.fill(kInvalidAttributeId);
  if (table->schema().size() <= kMaxSchemaSize) {
    std::copy(table->schema().ids().begin(), table->schema().ids().end(),
              schema.ids.begin());
    if (PotentialTable* pot = FindPotential(schema)) pot->has_table = false;
  }
  Count(&maintenance_stats_.tables_deleted, series_.tables_deleted, 1);
  const bool was_in_maintenance = in_maintenance_;
  in_maintenance_ = true;
  Count(&maintenance_stats_.subscriptions_moved, series_.subscriptions_moved,
        DropTable(table_index));
  in_maintenance_ = was_in_maintenance;
}

}  // namespace vfps
