// Copyright 2026 The vfps Authors.

#include "src/matcher/clustered_base.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <optional>
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

/// A counter with a single writer (the reader holding the context's pin)
/// and occasional aggregating readers.
class ReaderCounter {
 public:
  void Add(uint64_t delta) {
    // sync-relaxed-ok: single-writer counter; stats() only sums it and
    // nothing is published through it.
    value_.store(value_.load(std::memory_order_relaxed) + delta,
                 std::memory_order_relaxed);  // sync-relaxed-ok: as above
  }
  uint64_t Get() const { return value_.load(); }
  void Reset() { value_.store(0); }

 private:
  std::atomic<uint64_t> value_{0};
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

struct ClusteredMatcherBase::ReaderContext {
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

  ReaderCounter events, predicates, checks, clusters, matches, phase1_ns,
      phase2_ns;

  /// ν sampling: events matched by this reader, and (concurrent build) the
  /// latest sampled event awaiting the writer. The flag hands `sample`
  /// back and forth: the reader fills it only while clear, the writer
  /// folds and clears it.
  uint64_t seen = 0;
  Event sample;
  std::atomic<bool> sample_ready{false};

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
                                           uint32_t observe_sample_rate,
                                           bool concurrent)
    : publisher_(concurrent ? std::make_unique<EpochPublisher>() : nullptr),
      predicate_index_(publisher_.get()),
      use_prefetch_(use_prefetch),
      observe_sample_rate_(observe_sample_rate) {}

ClusteredMatcherBase::~ClusteredMatcherBase() {
  // Run the pending deleters while the predicate table they recycle ids
  // into is still alive (no reader is pinned at destruction).
  if (publisher_ != nullptr) publisher_->manager()->TryReclaim();
}

// --- writer side ------------------------------------------------------------

Status ClusteredMatcherBase::AddSubscription(
    const Subscription& subscription) {
  MutexLock lock(writer_mu_);
  if (records_.contains(subscription.id())) {
    return Status::AlreadyExists("subscription id " +
                                 std::to_string(subscription.id()));
  }
  FoldSampledEvents();
  SubRecord record;
  InternPredicates(subscription, &record);
  auto [it, inserted] = records_.emplace(subscription.id(), std::move(record));
  (void)inserted;
  Place(subscription.id(), &it->second, InitialPlacement(it->second));
  AfterChange(nullptr);
  if (publisher_ != nullptr) publisher_->manager()->TryReclaim();
  return Status::OK();
}

Status ClusteredMatcherBase::RemoveSubscription(SubscriptionId id) {
  MutexLock lock(writer_mu_);
  auto it = records_.find(id);
  if (it == records_.end()) {
    return Status::NotFound("subscription id " + std::to_string(id));
  }
  FoldSampledEvents();
  BeforeRemove(it->second);
  const Placement vacated = it->second.placement;
  // The row goes first, then the predicates it referenced (a reader never
  // finds a row whose predicate bits can no longer be set).
  Unplace(it->second, vacated, it->second.slot);
  ReleasePredicates(it->second);
  records_.erase(it);
  AfterChange(&vacated);
  if (publisher_ != nullptr) publisher_->manager()->TryReclaim();
  return Status::OK();
}

void ClusteredMatcherBase::FoldSampledEvents() {
  if (publisher_ == nullptr) return;
  contexts_.ForEach([this](ReaderContext* ctx) {
    if (ctx->sample_ready.load()) {
      stats_model_.Observe(ctx->sample);
      ctx->sample_ready.store(false);
    }
  });
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
    if (publisher_ == nullptr) {
      if (predicate_table_.Release(pid)) {
        predicate_index_.Remove(predicate, pid);
      }
    } else if (predicate_table_.ReleaseKeepId(pid)) {
      // A reader on an older plane may still set this id's bit, so the id
      // is reused only once those readers unpin.
      predicate_index_.Remove(predicate, pid);
      publisher_->manager()->Retire(
          [this, pid] { predicate_table_.RecycleId(pid); });
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
  auto* table = new MultiAttrHashTable(schema);
  // Publish the (empty) table before the count that lets readers reach it.
  published_tables_.Publish(index, table, manager());
  table_count_.store(index + 1);
  tables_.push_back(table);
  live_tables_.fetch_add(1);
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
      record->slot =
          AddToList(&fallback_, id, scratch_slots_, publisher_.get());
      return;
    case kSingletonTable: {
      VFPS_DCHECK(placement.access_pred != kInvalidPredicateId);
      record->slot = AddToList(eq_lists_.Slot(placement.access_pred), id,
                               scratch_slots_, publisher_.get());
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
          Table(placement.table_index)
              ->Add(scratch_key_, id, scratch_slots_, publisher_.get());
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
      moved = RemoveFromList(&fallback_, slot, publisher_.get());
      break;
    case kSingletonTable: {
      moved = RemoveFromList(eq_lists_.Slot(placement.access_pred), slot,
                             publisher_.get());
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
      moved = table->Remove(scratch_key_, slot, publisher_.get());
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
  move_seq_.fetch_add(1);
  {
    EpochPublisher::Batch batch(publisher_.get());
    for (const MoveTo& move : moves) {
      SubRecord& record = records_.find(move.id)->second;
      sources.push_back(Source{record.placement, record.slot, move.id});
      Place(move.id, &record, move.to);
    }
  }
  // Every reader pinned before this point may have loaded a source list
  // before its target gained the row; once they drain, all readers see
  // the targets, and the source rows can go.
  if (publisher_ != nullptr) publisher_->manager()->SynchronizeReaders();
  // Removing in descending row order means the row swapped into a vacated
  // slot is never a source row still to be removed: it is a placed row,
  // whose record Unplace patches.
  std::sort(sources.begin(), sources.end(),
            [](const Source& a, const Source& b) {
              return a.slot.row > b.slot.row;
            });
  {
    EpochPublisher::Batch batch(publisher_.get());
    for (const Source& source : sources) {
      Unplace(records_.find(source.id)->second, source.placement,
              source.slot);
    }
  }
  move_seq_.fetch_add(1);
}

size_t ClusteredMatcherBase::DropTable(uint32_t t) {
  MultiAttrHashTable* table = Table(t);
  VFPS_CHECK(table != nullptr);
  // Detached from the writer's view (ChooseBestPlacement skips it) while
  // readers still reach it.
  tables_[t] = nullptr;
  live_tables_.fetch_sub(1);
  table_lookup_.erase(table->schema());
  std::vector<SubscriptionId> ids;
  ids.reserve(table->subscription_count());
  table->ForEachEntry([&](std::span<const Value>, const ClusterList& list) {
    list.ForEachId([&](SubscriptionId id) { ids.push_back(id); });
  });
  // Re-place everything elsewhere while the table stays published, drain
  // the readers that might not see the new rows, then drop the table (its
  // rows die with it, so nothing is unplaced).
  move_seq_.fetch_add(1);
  {
    EpochPublisher::Batch batch(publisher_.get());
    for (SubscriptionId id : ids) {
      SubRecord& record = records_.find(id)->second;
      Place(id, &record, ChooseBestPlacement(record));
    }
  }
  if (publisher_ != nullptr) publisher_->manager()->SynchronizeReaders();
  published_tables_.Publish(t, nullptr, manager());
  move_seq_.fetch_add(1);
  return ids.size();
}

void ClusteredMatcherBase::ClearPlacements() {
  VFPS_CHECK(!concurrent());
  for (uint32_t t = 0; t < table_count(); ++t) {
    published_tables_.Publish(t, nullptr, nullptr);
  }
  table_count_.store(0);
  tables_.clear();
  live_tables_.store(0);
  table_lookup_.clear();
  for (PredicateId pid = 0; pid < predicate_table_.capacity(); ++pid) {
    if (eq_lists_.Load(pid) != nullptr) eq_lists_.Publish(pid, nullptr, nullptr);
  }
  singleton_count_ = 0;
  singleton_attr_count_.clear();
  fallback_.Publish(nullptr, nullptr);
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
    const MultiAttrHashTable* table = tables_[t];
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

ClusteredMatcherBase::ReaderContext* ClusteredMatcherBase::Context(
    std::optional<EpochManager::PinGuard>* pin) {
  size_t slot = 0;
  if (publisher_ != nullptr) {
    pin->emplace(publisher_->manager());
    slot = (*pin)->slot();
  }
  return contexts_.GetOrCreate(slot, [] { return new ReaderContext; });
}

void ClusteredMatcherBase::ObserveSampled(const Event& event,
                                          ReaderContext* ctx) {
  if (observe_sample_rate_ == 0 || ++ctx->seen % observe_sample_rate_ != 0) {
    return;
  }
  if (publisher_ == nullptr) {
    stats_model_.Observe(event);
  } else if (!ctx->sample_ready.load()) {
    // Readers never touch the statistics: hand the event to the writer,
    // which folds it at its next mutation (when placement reads ν).
    ctx->sample = event;
    ctx->sample_ready.store(true);
  }
}

void ClusteredMatcherBase::Record(ReaderContext* ctx, const Work& work,
                                  size_t events) {
  ctx->events.Add(events);
  ctx->predicates.Add(work.predicates);
  ctx->checks.Add(work.checks);
  ctx->clusters.Add(work.clusters);
  ctx->matches.Add(work.matches);
  ctx->phase1_ns.Add(static_cast<uint64_t>(work.phase1_ns));
  ctx->phase2_ns.Add(static_cast<uint64_t>(work.phase2_ns));
}

namespace {

/// Scans one candidate list for the current event, growing the result
/// vector first when the list is newer than the phase-1 view.
inline void ScanList(const ClusterList& list, ResultVector* results,
                     bool use_prefetch, std::vector<SubscriptionId>* out,
                     uint64_t* checks, uint64_t* clusters) {
  results->EnsureCapacity(list.id_bound());
  *checks += list.CheckedRowsPerMatch();
  *clusters += list.cluster_count();
  list.Match(results->data(), use_prefetch, out);
}

/// Sort + unique: a reader overlapping a placement move may see one
/// subscription in both its source and target lists.
inline void Dedup(std::vector<SubscriptionId>* ids) {
  std::sort(ids->begin(), ids->end());
  ids->erase(std::unique(ids->begin(), ids->end()), ids->end());
}

}  // namespace

void ClusteredMatcherBase::Match(const Event& event,
                                 std::vector<SubscriptionId>* out) {
  out->clear();
  std::optional<EpochManager::PinGuard> pin;
  ReaderContext* ctx = Context(&pin);
  const uint64_t moves_before = move_seq_.load();
  Work work;
  Timer timer;
  ResultVector& results = ctx->results;
  results.Reset();
  predicate_index_.MatchEvent(event, &results);
  work.phase1_ns = timer.ElapsedNanos();
  work.predicates = results.set_count();

  timer.Reset();
  const uint32_t tables = table_count_.load();
  if (tables != 0) ctx->lane_values.Fill({&event, 1});
  // Singleton access predicates: phase 1 already identified the satisfied
  // equality predicates; any of them carrying a cluster list is a candidate
  // (Figure 2: "if p is an access predicate for a clusters list lc then
  // candidate_C = candidate_C ∪ lc"). set_ids() is stable while lists grow
  // the cell array.
  for (PredicateId pid : results.set_ids()) {
    const ClusterList* list = eq_lists_.Load(pid);
    if (list == nullptr) continue;
    ScanList(*list, &results, use_prefetch_, out, &work.checks,
             &work.clusters);
  }
  // Multi-attribute hashing structures: one key extraction + probe each.
  for (uint32_t t = 0; t < tables; ++t) {
    const MultiAttrHashTable* table = published_tables_.Load(t);
    if (table == nullptr) continue;
    const ClusterList* list = ctx->ProbeLane(*table, 0);
    if (list == nullptr) continue;
    ScanList(*list, &results, use_prefetch_, out, &work.checks,
             &work.clusters);
  }
  if (const ClusterList* fallback = fallback_.Load()) {
    ScanList(*fallback, &results, use_prefetch_, out, &work.checks,
             &work.clusters);
  }
  const uint64_t moves_after = move_seq_.load();
  if (moves_after != moves_before || (moves_before & 1) != 0) Dedup(out);
  work.phase2_ns = timer.ElapsedNanos();
  work.matches = out->size();

  Record(ctx, work, 1);
#if VFPS_TELEMETRY
  if (telemetry_ != nullptr) {
    telemetry_->RecordEvent(work.phase1_ns, work.phase2_ns, work.predicates,
                            work.clusters, work.checks, work.matches);
  }
#endif
  ObserveSampled(event, ctx);
  if (publisher_ == nullptr) AfterMatch();
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
  std::optional<EpochManager::PinGuard> pin;
  ReaderContext* ctx = Context(&pin);
  const uint64_t moves_before = move_seq_.load();
  Timer batch_timer;
  Work work;
  for (size_t base = 0; base < events.size();
       base += BatchResultVector::kMaxLanes) {
    const size_t chunk =
        std::min(BatchResultVector::kMaxLanes, events.size() - base);
    MatchChunk(ctx, events.subspan(base, chunk), base, out, &work);
  }
  const uint64_t moves_after = move_seq_.load();
  if (moves_after != moves_before || (moves_before & 1) != 0) {
    for (size_t e = 0; e < events.size(); ++e) Dedup(out->mutable_matches(e));
  }
  work.matches = out->total_matches();
  Record(ctx, work, events.size());
#if VFPS_TELEMETRY
  if (telemetry_ != nullptr) {
    telemetry_->RecordBatchWork(events.size(), work.predicates,
                                work.clusters, work.checks, work.matches);
    RecordBatchTelemetry(events.size(), batch_timer.ElapsedNanos());
  }
#endif
  for (const Event& event : events) ObserveSampled(event, ctx);
  if (publisher_ == nullptr) AfterMatch();
}

void ClusteredMatcherBase::MatchChunk(ReaderContext* ctx,
                                      std::span<const Event> events,
                                      size_t lane_base, BatchResult* out,
                                      Work* work) const {
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
    const ClusterList* list = eq_lists_.Load(pid);
    if (list == nullptr) continue;
    std::copy_n(block.stripe(pid), words, alive);
    scan(*list, alive);
  }
  // Multi-attribute hashing structures: probe per lane (keys differ per
  // event) from the chunk's value cache, then group lanes by the cluster
  // list they landed on so each list is still scanned only once.
  std::vector<BatchCandidate>& candidates = ctx->batch_candidates;
  const uint32_t tables = table_count_.load();
  if (tables != 0) ctx->lane_values.Fill(events);
  for (uint32_t t = 0; t < tables; ++t) {
    const MultiAttrHashTable* table = published_tables_.Load(t);
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
  if (const ClusterList* fallback = fallback_.Load()) scan(*fallback, alive);
  work->phase2_ns += timer.ElapsedNanos();
}

// --- introspection ----------------------------------------------------------

const MatcherStats& ClusteredMatcherBase::stats() const {
  MatcherStats sum;
  uint64_t phase1_ns = 0, phase2_ns = 0;
  contexts_.ForEach([&](const ReaderContext* ctx) {
    sum.events += ctx->events.Get();
    sum.predicates_satisfied += ctx->predicates.Get();
    sum.subscription_checks += ctx->checks.Get();
    sum.clusters_scanned += ctx->clusters.Get();
    sum.matches += ctx->matches.Get();
    phase1_ns += ctx->phase1_ns.Get();
    phase2_ns += ctx->phase2_ns.Get();
  });
  sum.phase1_seconds = static_cast<double>(phase1_ns) * 1e-9;
  sum.phase2_seconds = static_cast<double>(phase2_ns) * 1e-9;
  stats_snapshot_ = sum;
  return stats_snapshot_;
}

void ClusteredMatcherBase::ResetStats() {
  contexts_.ForEach([](ReaderContext* ctx) {
    for (ReaderCounter* c :
         {&ctx->events, &ctx->predicates, &ctx->checks, &ctx->clusters,
          &ctx->matches, &ctx->phase1_ns, &ctx->phase2_ns}) {
      c->Reset();
    }
  });
}

void ClusteredMatcherBase::AttachTelemetry(MetricsRegistry* registry) {
  Matcher::AttachTelemetry(registry);
  if (registry == nullptr) return;
#if VFPS_TELEMETRY
  registry->RegisterGauge("vfps_matcher_tables", [this] {
    return static_cast<int64_t>(live_tables_.load());
  });
#endif
  if (publisher_ == nullptr) return;
  // Epoch-domain health gauges (docs/OBSERVABILITY.md). Sampled with the
  // registry lock released, so limbo_depth's brief lock is rank-legal.
  const EpochManager* epoch = publisher_->manager();
  registry->RegisterGauge("vfps_epoch_pinned_readers", [epoch] {
    return static_cast<int64_t>(epoch->pinned_readers());
  });
  registry->RegisterGauge("vfps_epoch_limbo_depth", [epoch] {
    return static_cast<int64_t>(epoch->limbo_depth());
  });
  registry->RegisterGauge("vfps_epoch_reclaimed_total", [epoch] {
    return static_cast<int64_t>(epoch->reclaimed_total());
  });
}

size_t ClusteredMatcherBase::subscription_count() const {
  MutexLock lock(writer_mu_);
  return records_.size();
}

size_t ClusteredMatcherBase::fallback_count() const {
  MutexLock lock(writer_mu_);
  const ClusterList* fallback = fallback_.Load();
  return fallback == nullptr ? 0 : fallback->subscription_count();
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
  if (const ClusterList* fallback = fallback_.Load()) {
    total += sizeof(ClusterList) + fallback->MemoryUsage();
  }
  // Reader scratch is private to its pinned reader; only a serial
  // matcher's single context can be measured without a race.
  if (publisher_ == nullptr) {
    contexts_.ForEach([&](const ReaderContext* ctx) {
      total += sizeof(ReaderContext) + ctx->MemoryUsage();
    });
  }
  total += predicate_table_.capacity() * sizeof(EpochPtr<ClusterList>);
  for (PredicateId pid = 0; pid < predicate_table_.capacity(); ++pid) {
    const ClusterList* list = eq_lists_.Load(pid);
    if (list != nullptr) total += sizeof(ClusterList) + list->MemoryUsage();
  }
  total += table_count() * sizeof(EpochPtr<MultiAttrHashTable>);
  for (uint32_t t = 0; t < table_count(); ++t) {
    if (const MultiAttrHashTable* table = Table(t)) {
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
