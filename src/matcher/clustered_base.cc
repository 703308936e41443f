// Copyright 2026 The vfps Authors.

#include "src/matcher/clustered_base.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <string>

#include "src/util/hash.h"
#include "src/util/macros.h"
#include "src/util/timer.h"

namespace vfps {

const std::vector<Value> ClusteredMatcherBase::kEmptyKey;

namespace {

/// Open-addressing memo slot mapping an (attribute, value) pair to its
/// entry in the chunk's distinct-pair list. Deduplicating the chunk's pairs
/// this way is O(pairs) — a comparison sort of the (attribute, value,
/// lane) triples costs more than the probes it saves.
struct PairMemoSlot {
  AttributeId attribute = 0;
  Value value = 0;
  uint32_t index = 0xFFFFFFFFu;
};
constexpr uint32_t kEmptyMemoSlot = 0xFFFFFFFFu;

/// One distinct (attribute, value) pair of a chunk with the lanes that
/// carry it and its memo slot (for O(distinct) cleanup after the chunk).
struct DistinctPair {
  AttributeId attribute;
  Value value;
  uint32_t slot;
  uint64_t mask[BatchResultVector::kMaxWordsPerLane];
};

/// One candidate cluster list of a chunk with the lane mask it applies to
/// (multi-attribute tables can send different lanes to different entries
/// of the same table).
struct BatchCandidate {
  const ClusterList* list;
  uint64_t mask[BatchResultVector::kMaxWordsPerLane];
};

}  // namespace

struct ClusteredMatcherBase::Work {
  uint64_t predicates = 0;
  uint64_t checks = 0;
  uint64_t clusters = 0;
  uint64_t matches = 0;
  int64_t phase1_ns = 0;
  int64_t phase2_ns = 0;
};

struct ClusteredMatcherBase::MatchContext {
  ResultVector results;
  // The current event's (Match) or chunk's (MatchBatch) values, from which
  // every table key is extracted into `key`.
  LaneValueCache lane_values;
  std::vector<Value> key;

  // Batch scratch.
  BatchResultVector batch_results;
  std::vector<PairMemoSlot> pair_memo;  // power-of-two open addressing
  std::vector<DistinctPair> distinct_pairs;
  std::vector<BatchCandidate> batch_candidates;

  /// Events matched, for ν sampling.
  uint64_t seen = 0;

  /// The cluster list `table` holds for the cached lane's key, or nullptr
  /// (also when the lane lacks a schema attribute).
  const ClusterList* ProbeLane(const MultiAttrHashTable& table, size_t lane) {
    if (!lane_values.ExtractKey(table.schema(), lane, &key)) return nullptr;
    return table.Probe(key);
  }

  size_t MemoryUsage() const {
    return results.MemoryUsage() + lane_values.MemoryUsage() +
           key.capacity() * sizeof(Value) + batch_results.MemoryUsage() +
           pair_memo.capacity() * sizeof(PairMemoSlot) +
           distinct_pairs.capacity() * sizeof(DistinctPair) +
           batch_candidates.capacity() * sizeof(BatchCandidate);
  }
};

ClusteredMatcherBase::ClusteredMatcherBase(bool use_prefetch,
                                           uint32_t observe_sample_rate)
    : use_prefetch_(use_prefetch),
      observe_sample_rate_(observe_sample_rate),
      ctx_(std::make_unique<MatchContext>()) {}

ClusteredMatcherBase::~ClusteredMatcherBase() = default;

// --- writer side ------------------------------------------------------------

Status ClusteredMatcherBase::AddSubscription(
    const Subscription& subscription) {
  MutexLock lock(writer_mu_);
  if (records_.contains(subscription.id())) {
    return Status::AlreadyExists("subscription id " +
                                 std::to_string(subscription.id()));
  }
  SubRecord record;
  InternPredicates(subscription, &record);
  auto [it, inserted] = records_.emplace(subscription.id(), std::move(record));
  (void)inserted;
  Place(subscription.id(), &it->second, InitialPlacement(it->second));
  AfterChange(nullptr);
  return Status::OK();
}

Status ClusteredMatcherBase::RemoveSubscription(SubscriptionId id) {
  MutexLock lock(writer_mu_);
  auto it = records_.find(id);
  if (it == records_.end()) {
    return Status::NotFound("subscription id " + std::to_string(id));
  }
  BeforeRemove(it->second);
  const Placement vacated = it->second.placement;
  Unplace(it->second, vacated, it->second.slot);
  ReleasePredicates(it->second);
  records_.erase(it);
  AfterChange(&vacated);
  return Status::OK();
}

void ClusteredMatcherBase::InternPredicates(const Subscription& s,
                                            SubRecord* record) {
  record->preds.reserve(s.size());
  // Equality predicates first (canonical order), then the rest: the cluster
  // columns inherit this order, so inequality cells are only consulted when
  // the equalities held (Section 6.2.1).
  for (int pass = 0; pass < 2; ++pass) {
    for (const Predicate& p : s.predicates()) {
      if (p.IsEquality() != (pass == 0)) continue;
      auto [pid, inserted] = predicate_table_.Intern(p);
      if (inserted) predicate_index_.Insert(p, pid);
      record->preds.push_back(pid);
    }
    if (pass == 0) {
      record->eq_count = static_cast<uint16_t>(record->preds.size());
    }
  }
}

void ClusteredMatcherBase::ReleasePredicates(const SubRecord& record) {
  for (PredicateId pid : record.preds) {
    const Predicate predicate = predicate_table_.Get(pid);
    if (predicate_table_.Release(pid)) {
      predicate_index_.Remove(predicate, pid);
    }
  }
}

Subscription ClusteredMatcherBase::ReconstructSubscription(
    SubscriptionId id, const SubRecord& record) const {
  std::vector<Predicate> preds;
  preds.reserve(record.preds.size());
  for (PredicateId pid : record.preds) {
    preds.push_back(predicate_table_.Get(pid));
  }
  return Subscription::Create(id, std::move(preds));
}

Value ClusteredMatcherBase::EqualityValueOf(const SubRecord& record,
                                            AttributeId a) const {
  for (uint16_t i = 0; i < record.eq_count; ++i) {
    const Predicate& p = predicate_table_.Get(record.preds[i]);
    if (p.attribute == a) return p.value;
  }
  VFPS_CHECK(false);  // caller guarantees an equality predicate on `a`
  return 0;
}

double ClusteredMatcherBase::NuUnderSchema(const SubRecord& record,
                                           const AttributeSet& schema) const {
  double nu = 1.0;
  for (AttributeId a : schema.ids()) {
    uint16_t i = 0;
    while (i < record.eq_count &&
           predicate_table_.Get(record.preds[i]).attribute != a) {
      ++i;
    }
    if (i == record.eq_count) return -1;
    const Predicate& p = predicate_table_.Get(record.preds[i]);
    nu *= stats_model_.ValueProbability(p.attribute, p.value);
  }
  return nu;
}

uint32_t ClusteredMatcherBase::GetOrCreateTable(const AttributeSet& schema) {
  VFPS_DCHECK(schema.size() >= 2);
  auto it = table_lookup_.find(schema);
  if (it != table_lookup_.end()) return it->second;
  const uint32_t index = table_count();
  tables_.push_back(std::make_unique<MultiAttrHashTable>(schema));
  table_lookup_.emplace(schema, index);
  return index;
}

uint32_t ClusteredMatcherBase::FindTable(const AttributeSet& schema) const {
  auto it = table_lookup_.find(schema);
  return it == table_lookup_.end() ? kFallbackTable : it->second;
}

void ClusteredMatcherBase::ExtractKeyFor(const SubRecord& record,
                                         uint32_t table_index,
                                         std::vector<Value>* key) const {
  key->clear();
  const MultiAttrHashTable* table = Table(table_index);
  VFPS_DCHECK(table != nullptr);
  for (AttributeId a : table->schema().ids()) {
    key->push_back(EqualityValueOf(record, a));
  }
}

void ClusteredMatcherBase::ComputeResidualSlots(
    const SubRecord& record, const Placement& placement,
    std::vector<PredicateId>* slots) const {
  slots->clear();
  if (placement.table_index == kSingletonTable) {
    for (PredicateId pid : record.preds) {
      if (pid != placement.access_pred) slots->push_back(pid);
    }
    return;
  }
  if (placement.table_index == kFallbackTable) {
    slots->assign(record.preds.begin(), record.preds.end());
    return;
  }
  const AttributeSet& schema = Table(placement.table_index)->schema();
  AttributeId prev_attr = kInvalidAttributeId;
  for (uint16_t i = 0; i < record.eq_count; ++i) {
    const Predicate& p = predicate_table_.Get(record.preds[i]);
    // The first equality predicate per attribute is the one absorbed by the
    // access predicate when the schema covers the attribute.
    const bool first_on_attr = p.attribute != prev_attr;
    prev_attr = p.attribute;
    if (first_on_attr && schema.Contains(p.attribute)) continue;
    slots->push_back(record.preds[i]);
  }
  for (size_t i = record.eq_count; i < record.preds.size(); ++i) {
    slots->push_back(record.preds[i]);
  }
}

void ClusteredMatcherBase::Place(SubscriptionId id, SubRecord* record,
                                 const Placement& placement) {
  record->placement = placement;
  ComputeResidualSlots(*record, placement, &scratch_slots_);
  switch (placement.table_index) {
    case kFallbackTable:
      record->slot = AddToList(&fallback_, id, scratch_slots_);
      return;
    case kSingletonTable: {
      VFPS_DCHECK(placement.access_pred != kInvalidPredicateId);
      if (placement.access_pred >= eq_lists_.size()) {
        eq_lists_.resize(size_t{placement.access_pred} + 1);
      }
      record->slot =
          AddToList(&eq_lists_[placement.access_pred], id, scratch_slots_);
      ++singleton_count_;
      const AttributeId attr =
          predicate_table_.Get(placement.access_pred).attribute;
      if (attr >= singleton_attr_count_.size()) {
        singleton_attr_count_.resize(attr + 1, 0);
      }
      ++singleton_attr_count_[attr];
      OnPlaced(placement, kEmptyKey);
      return;
    }
    default: {
      ExtractKeyFor(*record, placement.table_index, &scratch_key_);
      record->slot =
          Table(placement.table_index)->Add(scratch_key_, id, scratch_slots_);
      OnPlaced(placement, scratch_key_);
      return;
    }
  }
}

void ClusteredMatcherBase::Unplace(const SubRecord& record,
                                   const Placement& placement,
                                   ClusterSlot slot) {
  SubscriptionId moved;
  switch (placement.table_index) {
    case kFallbackTable:
      moved = RemoveFromList(&fallback_, slot);
      break;
    case kSingletonTable: {
      moved = RemoveFromList(&eq_lists_[placement.access_pred], slot);
      --singleton_count_;
      const AttributeId attr =
          predicate_table_.Get(placement.access_pred).attribute;
      VFPS_DCHECK(attr < singleton_attr_count_.size() &&
                  singleton_attr_count_[attr] > 0);
      --singleton_attr_count_[attr];
      break;
    }
    default: {
      MultiAttrHashTable* table = Table(placement.table_index);
      VFPS_CHECK(table != nullptr);
      ExtractKeyFor(record, placement.table_index, &scratch_key_);
      moved = table->Remove(scratch_key_, slot);
      break;
    }
  }
  if (moved != kInvalidSubscriptionId) {
    auto it = records_.find(moved);
    VFPS_CHECK(it != records_.end());
    it->second.slot = slot;
  }
}

void ClusteredMatcherBase::MoveAll(const std::vector<MoveTo>& moves) {
  if (moves.empty()) return;
  struct Source {
    Placement placement;
    ClusterSlot slot;
    SubscriptionId id;
  };
  std::vector<Source> sources;
  sources.reserve(moves.size());
  for (const MoveTo& move : moves) {
    SubRecord& record = records_.find(move.id)->second;
    sources.push_back(Source{record.placement, record.slot, move.id});
    Place(move.id, &record, move.to);
  }
  // Removing in descending row order means the row swapped into a vacated
  // slot is never a source row still to be removed: it is a placed row,
  // whose record Unplace patches.
  std::sort(sources.begin(), sources.end(),
            [](const Source& a, const Source& b) {
              return a.slot.row > b.slot.row;
            });
  for (const Source& source : sources) {
    Unplace(records_.find(source.id)->second, source.placement, source.slot);
  }
}

size_t ClusteredMatcherBase::DropTable(uint32_t t) {
  // Detached first, so ChooseBestPlacement skips it; its rows die with it,
  // so nothing is unplaced.
  const std::unique_ptr<MultiAttrHashTable> table = std::move(tables_[t]);
  VFPS_CHECK(table != nullptr);
  table_lookup_.erase(table->schema());
  std::vector<SubscriptionId> ids;
  ids.reserve(table->subscription_count());
  table->ForEachEntry([&](std::span<const Value>, const ClusterList& list) {
    list.ForEachId([&](SubscriptionId id) { ids.push_back(id); });
  });
  for (SubscriptionId id : ids) {
    SubRecord& record = records_.find(id)->second;
    Place(id, &record, ChooseBestPlacement(record));
  }
  return ids.size();
}

void ClusteredMatcherBase::ClearPlacements() {
  tables_.clear();
  table_lookup_.clear();
  eq_lists_.clear();
  singleton_count_ = 0;
  singleton_attr_count_.clear();
  fallback_.reset();
}

double ClusteredMatcherBase::PlacementCost(const SubRecord& record,
                                           const Placement& placement) const {
  switch (placement.table_index) {
    case kFallbackTable:
      return CheckingCost(record.preds.size(), cost_params_);
    case kSingletonTable: {
      const Predicate& p = predicate_table_.Get(placement.access_pred);
      return stats_model_.ValueProbability(p.attribute, p.value) *
             CheckingCost(record.preds.size() - 1, cost_params_);
    }
    default: {
      const AttributeSet& schema = Table(placement.table_index)->schema();
      return NuUnderSchema(record, schema) *
             CheckingCost(record.preds.size() - schema.size(), cost_params_);
    }
  }
}

ClusteredMatcherBase::Placement ClusteredMatcherBase::ChooseBestPlacement(
    const SubRecord& record) const {
  Placement best;  // fallback by default
  if (record.eq_count == 0) return best;
  double best_cost = std::numeric_limits<double>::infinity();
  // Singleton candidates: every equality predicate of the record.
  for (uint16_t i = 0; i < record.eq_count; ++i) {
    const PredicateId pid = record.preds[i];
    const Predicate& p = predicate_table_.Get(pid);
    const double cost =
        stats_model_.ValueProbability(p.attribute, p.value) *
        CheckingCost(record.preds.size() - 1, cost_params_);
    if (cost < best_cost) {
      best_cost = cost;
      best = Placement{kSingletonTable, pid};
    }
  }
  // Multi-attribute tables whose schema applies: the Bloom signature of
  // the record's equality attributes rejects most, and NuUnderSchema finds
  // the value of each schema attribute or proves one missing.
  if (table_count() == 0) return best;
  uint64_t eq_bloom = 0;
  for (uint16_t i = 0; i < record.eq_count; ++i) {
    eq_bloom |= AttributeSet::BloomBit(
        predicate_table_.Get(record.preds[i]).attribute);
  }
  for (uint32_t t = 0; t < table_count(); ++t) {
    const MultiAttrHashTable* table = Table(t);
    if (table == nullptr) continue;
    const AttributeSet& schema = table->schema();
    if ((schema.bloom() & eq_bloom) != schema.bloom()) continue;
    const double nu = NuUnderSchema(record, schema);
    if (nu < 0) continue;  // the schema is no option for this record
    const double cost =
        nu * CheckingCost(record.preds.size() - schema.size(), cost_params_);
    if (cost < best_cost) {
      best_cost = cost;
      best = Placement{t, kInvalidPredicateId};
    }
  }
  return best;
}

// --- reader side ------------------------------------------------------------

void ClusteredMatcherBase::ObserveSampled(const Event& event) {
  if (observe_sample_rate_ != 0 && ++ctx_->seen % observe_sample_rate_ == 0) {
    stats_model_.Observe(event);
  }
}

void ClusteredMatcherBase::Record(const Work& work, size_t events) {
  stats_.events += events;
  stats_.predicates_satisfied += work.predicates;
  stats_.subscription_checks += work.checks;
  stats_.clusters_scanned += work.clusters;
  stats_.matches += work.matches;
  stats_.phase1_seconds += static_cast<double>(work.phase1_ns) * 1e-9;
  stats_.phase2_seconds += static_cast<double>(work.phase2_ns) * 1e-9;
}

namespace {

/// Scans one candidate list for the current event, growing the result
/// vector first to cover the list's residual predicates.
inline void ScanList(const ClusterList& list, ResultVector* results,
                     bool use_prefetch, std::vector<SubscriptionId>* out,
                     uint64_t* checks, uint64_t* clusters) {
  results->EnsureCapacity(list.id_bound());
  *checks += list.CheckedRowsPerMatch();
  *clusters += list.cluster_count();
  list.Match(results->data(), use_prefetch, out);
}

}  // namespace

void ClusteredMatcherBase::Match(const Event& event,
                                 std::vector<SubscriptionId>* out) {
  out->clear();
  MatchContext* ctx = ctx_.get();
  Work work;
  Timer timer;
  ResultVector& results = ctx->results;
  results.Reset();
  predicate_index_.MatchEvent(event, &results);
  work.phase1_ns = timer.ElapsedNanos();
  work.predicates = results.set_count();

  timer.Reset();
  if (!tables_.empty()) ctx->lane_values.Fill({&event, 1});
  // Singleton access predicates: phase 1 already identified the satisfied
  // equality predicates; any of them carrying a cluster list is a candidate
  // (Figure 2: "if p is an access predicate for a clusters list lc then
  // candidate_C = candidate_C ∪ lc"). set_ids() is stable while lists grow
  // the cell array.
  for (PredicateId pid : results.set_ids()) {
    const ClusterList* list = SingletonList(pid);
    if (list == nullptr) continue;
    ScanList(*list, &results, use_prefetch_, out, &work.checks,
             &work.clusters);
  }
  // Multi-attribute hashing structures: one key extraction + probe each.
  for (const std::unique_ptr<MultiAttrHashTable>& table : tables_) {
    if (table == nullptr) continue;
    const ClusterList* list = ctx->ProbeLane(*table, 0);
    if (list == nullptr) continue;
    ScanList(*list, &results, use_prefetch_, out, &work.checks,
             &work.clusters);
  }
  if (fallback_ != nullptr) {
    ScanList(*fallback_, &results, use_prefetch_, out, &work.checks,
             &work.clusters);
  }
  work.phase2_ns = timer.ElapsedNanos();
  work.matches = out->size();

  Record(work, 1);
#if VFPS_TELEMETRY
  if (telemetry_ != nullptr) {
    telemetry_->RecordEvent(work.phase1_ns, work.phase2_ns, work.predicates,
                            work.clusters, work.checks, work.matches);
  }
#endif
  ObserveSampled(event);
  AfterMatch();
}

namespace {

/// Lanes set in a stripe/mask of `words` 64-bit words.
inline size_t PopcountMask(const uint64_t* mask, size_t words) {
  size_t total = 0;
  for (size_t w = 0; w < words; ++w) {
    total += static_cast<size_t>(std::popcount(mask[w]));
  }
  return total;
}

}  // namespace

void ClusteredMatcherBase::MatchBatch(std::span<const Event> events,
                                      BatchResult* out) {
  out->Reset(events.size());
  if (events.empty()) return;
  Timer batch_timer;
  Work work;
  for (size_t base = 0; base < events.size();
       base += BatchResultVector::kMaxLanes) {
    const size_t chunk =
        std::min(BatchResultVector::kMaxLanes, events.size() - base);
    MatchChunk(events.subspan(base, chunk), base, out, &work);
  }
  work.matches = out->total_matches();
  Record(work, events.size());
#if VFPS_TELEMETRY
  if (telemetry_ != nullptr) {
    telemetry_->RecordBatchWork(events.size(), work.predicates,
                                work.clusters, work.checks, work.matches);
    RecordBatchTelemetry(events.size(), batch_timer.ElapsedNanos());
  }
#endif
  for (const Event& event : events) ObserveSampled(event);
  AfterMatch();
}

void ClusteredMatcherBase::MatchChunk(std::span<const Event> events,
                                      size_t lane_base, BatchResult* out,
                                      Work* work) const {
  MatchContext* ctx = ctx_.get();
  const size_t lanes = events.size();
  Timer timer;
  ResultVector& results = ctx->results;
  BatchResultVector& block = ctx->batch_results;
  block.Reset(lanes, results.capacity());
  const size_t words = block.words_per_lane();

  // Phase 1, batched: deduplicate the chunk's (attribute, value) pairs
  // through the open-addressing memo so every distinct pair is probed
  // against the predicate indexes exactly once, then commit the satisfied
  // predicates to all lanes carrying the pair in one SetMask.
  size_t total_pairs = 0;
  for (size_t e = 0; e < lanes; ++e) total_pairs += events[e].pairs().size();
  size_t memo_size = 64;
  while (memo_size < total_pairs * 2) memo_size *= 2;
  std::vector<PairMemoSlot>& memo = ctx->pair_memo;
  if (memo.size() < memo_size) memo.assign(memo_size, PairMemoSlot{});
  const size_t memo_mask = memo.size() - 1;
  std::vector<DistinctPair>& distinct = ctx->distinct_pairs;
  distinct.clear();
  for (size_t e = 0; e < lanes; ++e) {
    const uint64_t lane_bit = uint64_t{1} << (e % 64);
    const size_t lane_word = e / 64;
    for (const EventPair& pair : events[e].pairs()) {
      size_t s = Mix64(static_cast<uint64_t>(pair.attribute) *
                           0x9E3779B97F4A7C15ull ^
                       static_cast<uint64_t>(pair.value)) &
                 memo_mask;
      while (true) {
        PairMemoSlot& slot = memo[s];
        if (slot.index == kEmptyMemoSlot) {
          slot.attribute = pair.attribute;
          slot.value = pair.value;
          slot.index = static_cast<uint32_t>(distinct.size());
          DistinctPair dp{pair.attribute, pair.value,
                          static_cast<uint32_t>(s), {}};
          dp.mask[lane_word] = lane_bit;
          distinct.push_back(dp);
          break;
        }
        if (slot.attribute == pair.attribute && slot.value == pair.value) {
          distinct[slot.index].mask[lane_word] |= lane_bit;
          break;
        }
        s = (s + 1) & memo_mask;
      }
    }
  }
  for (const DistinctPair& dp : distinct) {
    results.Reset();
    predicate_index_.MatchPair(dp.attribute, dp.value, &results);
    block.EnsureCapacity(results.capacity());
    for (PredicateId pid : results.set_ids()) block.SetMask(pid, dp.mask);
    memo[dp.slot].index = kEmptyMemoSlot;
  }
  results.Reset();
  work->phase1_ns += timer.ElapsedNanos();
  for (PredicateId pid : block.set_ids()) {
    work->predicates += PopcountMask(block.stripe(pid), words);
  }

  timer.Reset();
  // Phase 2, batched: for each candidate cluster list, scan its columns
  // once while testing every alive lane (loop order inverted vs Match).
  auto scan = [&](const ClusterList& list, const uint64_t* alive) {
    block.EnsureCapacity(list.id_bound());
    work->checks += list.CheckedRowsPerMatch() * PopcountMask(alive, words);
    work->clusters += list.cluster_count();
    list.MatchBatch(block, alive, use_prefetch_, lane_base, out);
  };
  // Singleton access predicates: the predicate's own stripe is the alive
  // mask of the lanes it admits (copied: growing the block moves stripes).
  uint64_t alive[BatchResultVector::kMaxWordsPerLane];
  for (PredicateId pid : block.set_ids()) {
    const ClusterList* list = SingletonList(pid);
    if (list == nullptr) continue;
    std::copy_n(block.stripe(pid), words, alive);
    scan(*list, alive);
  }
  // Multi-attribute hashing structures: probe per lane (keys differ per
  // event) from the chunk's value cache, then group lanes by the cluster
  // list they landed on so each list is still scanned only once.
  std::vector<BatchCandidate>& candidates = ctx->batch_candidates;
  if (!tables_.empty()) ctx->lane_values.Fill(events);
  for (const std::unique_ptr<MultiAttrHashTable>& table : tables_) {
    if (table == nullptr) continue;
    candidates.clear();
    for (size_t e = 0; e < lanes; ++e) {
      const ClusterList* list = ctx->ProbeLane(*table, e);
      if (list == nullptr) continue;
      BatchCandidate* group = nullptr;
      for (BatchCandidate& c : candidates) {
        if (c.list == list) {
          group = &c;
          break;
        }
      }
      if (group == nullptr) {
        candidates.push_back(BatchCandidate{list, {}});
        group = &candidates.back();
      }
      group->mask[e / 64] |= uint64_t{1} << (e % 64);
    }
    for (const BatchCandidate& c : candidates) scan(*c.list, c.mask);
  }
  // Fallback list: every lane is alive.
  for (size_t w = 0; w < words; ++w) alive[w] = ~uint64_t{0};
  if (lanes % 64 != 0) alive[words - 1] = (uint64_t{1} << (lanes % 64)) - 1;
  if (fallback_ != nullptr) scan(*fallback_, alive);
  work->phase2_ns += timer.ElapsedNanos();
}

// --- introspection ----------------------------------------------------------

void ClusteredMatcherBase::AttachTelemetry(MetricsRegistry* registry) {
  Matcher::AttachTelemetry(registry);
#if VFPS_TELEMETRY
  if (registry == nullptr) return;
  registry->RegisterGauge("vfps_matcher_tables", [this] {
    MutexLock lock(writer_mu_);
    return static_cast<int64_t>(table_lookup_.size());
  });
#endif
}

size_t ClusteredMatcherBase::subscription_count() const {
  MutexLock lock(writer_mu_);
  return records_.size();
}

size_t ClusteredMatcherBase::fallback_count() const {
  MutexLock lock(writer_mu_);
  return fallback_ == nullptr ? 0 : fallback_->subscription_count();
}

size_t ClusteredMatcherBase::singleton_placed_count() const {
  MutexLock lock(writer_mu_);
  return singleton_count_;
}

std::vector<AttributeSet> ClusteredMatcherBase::TableSchemas() const {
  MutexLock lock(writer_mu_);
  std::vector<AttributeSet> schemas;
  for (uint32_t t = 0; t < table_count(); ++t) {
    if (const MultiAttrHashTable* table = Table(t)) {
      schemas.push_back(table->schema());
    }
  }
  return schemas;
}

size_t ClusteredMatcherBase::MemoryUsage() const {
  MutexLock lock(writer_mu_);
  size_t total = predicate_table_.MemoryUsage() +
                 predicate_index_.MemoryUsage() + stats_model_.MemoryUsage();
  if (fallback_ != nullptr) {
    total += sizeof(ClusterList) + fallback_->MemoryUsage();
  }
  total += sizeof(MatchContext) + ctx_->MemoryUsage();
  total += eq_lists_.capacity() * sizeof(std::unique_ptr<ClusterList>);
  for (const std::unique_ptr<ClusterList>& list : eq_lists_) {
    if (list != nullptr) total += sizeof(ClusterList) + list->MemoryUsage();
  }
  total += tables_.capacity() * sizeof(std::unique_ptr<MultiAttrHashTable>);
  for (const std::unique_ptr<MultiAttrHashTable>& table : tables_) {
    if (table != nullptr) {
      total += sizeof(MultiAttrHashTable) + table->MemoryUsage();
    }
  }
  total += table_lookup_.bucket_count() * sizeof(void*) +
           table_lookup_.size() *
               (sizeof(AttributeSet) + sizeof(uint32_t) + 2 * sizeof(void*));
  total += records_.bucket_count() * sizeof(void*);
  for (const auto& [id, record] : records_) {
    (void)id;
    total += sizeof(std::pair<SubscriptionId, SubRecord>) +
             record.preds.capacity() * sizeof(PredicateId);
  }
  return total;
}

}  // namespace vfps
