// Copyright 2026 The vfps Authors.

#include "src/cluster/cluster_list.h"

#include <cstdio>

#include "src/util/macros.h"

/// Reports the first violated invariant (with context) and returns false
/// from the enclosing CheckInvariants. Local to invariant walks.
#define VFPS_INVARIANT(cond, ...)             \
  do {                                        \
    if (!(cond)) {                            \
      std::fprintf(stderr, __VA_ARGS__);      \
      std::fprintf(stderr, " [%s]\n", #cond); \
      return false;                           \
    }                                         \
  } while (0)

namespace vfps {

ClusterSlot ClusterList::Add(SubscriptionId id,
                             std::span<const PredicateId> slots) {
  const auto size = static_cast<uint32_t>(slots.size());
  if (size >= by_size_.size()) by_size_.resize(size + 1);
  std::unique_ptr<Cluster>& cluster = by_size_[size];
  if (cluster == nullptr) {
    cluster = std::make_unique<Cluster>(size);
    ++cluster_count_;
  }
  const size_t row = cluster->Add(id, slots);
  ++count_;
  for (PredicateId pid : slots) {
    if (pid >= id_bound_) id_bound_ = size_t{pid} + 1;
  }
  VFPS_DCHECK_INVARIANT(CheckInvariants());
  return ClusterSlot{size, row};
}

SubscriptionId ClusterList::Remove(ClusterSlot slot) {
  VFPS_CHECK(slot.size < by_size_.size() && by_size_[slot.size] != nullptr);
  std::unique_ptr<Cluster>& cluster = by_size_[slot.size];
  const SubscriptionId moved = cluster->RemoveAt(slot.row);
  --count_;
  if (cluster->empty()) {
    cluster.reset();
    --cluster_count_;
  }
  VFPS_DCHECK_INVARIANT(CheckInvariants());
  return moved;
}

ClusterSlot AddToList(std::unique_ptr<ClusterList>* list, SubscriptionId id,
                      std::span<const PredicateId> slots) {
  if (*list == nullptr) *list = std::make_unique<ClusterList>();
  return (*list)->Add(id, slots);
}

SubscriptionId RemoveFromList(std::unique_ptr<ClusterList>* list,
                              ClusterSlot slot) {
  VFPS_CHECK(*list != nullptr);
  const SubscriptionId moved = (*list)->Remove(slot);
  if ((*list)->empty()) list->reset();
  return moved;
}

bool ClusterList::CheckInvariants() const {
  size_t total = 0;
  size_t allocated = 0;
  for (size_t s = 0; s < by_size_.size(); ++s) {
    const Cluster* cluster = by_size_[s].get();
    if (cluster == nullptr) continue;
    ++allocated;
    VFPS_INVARIANT(cluster->size() == s,
                   "ClusterList: slot %zu holds a cluster of size %u", s,
                   cluster->size());
    VFPS_INVARIANT(!cluster->empty(),
                   "ClusterList: empty cluster retained at size %zu "
                   "(Remove must release it)",
                   s);
    if (!cluster->CheckInvariants()) return false;
    total += cluster->count();
  }
  VFPS_INVARIANT(total == count_,
                 "ClusterList: clusters hold %zu subscriptions, count "
                 "is %zu",
                 total, count_);
  VFPS_INVARIANT(allocated == cluster_count_,
                 "ClusterList: %zu clusters allocated, cluster_count_ "
                 "is %zu",
                 allocated, cluster_count_);
  return true;
}

void ClusterList::Match(const uint8_t* results, bool use_prefetch,
                        std::vector<SubscriptionId>* out) const {
  for (const auto& cluster : by_size_) {
    if (cluster != nullptr) cluster->Match(results, use_prefetch, out);
  }
}

void ClusterList::MatchBatch(const BatchResultVector& block,
                             const uint64_t* alive, bool use_prefetch,
                             size_t lane_base, BatchResult* out) const {
  for (const auto& cluster : by_size_) {
    if (cluster != nullptr) {
      cluster->MatchBatch(block, alive, use_prefetch, lane_base, out);
    }
  }
}

size_t ClusterList::CheckedRowsPerMatch() const {
  size_t rows = 0;
  for (const auto& cluster : by_size_) {
    if (cluster != nullptr && cluster->size() > 0) rows += cluster->count();
  }
  return rows;
}

size_t ClusterList::MemoryUsage() const {
  size_t total = by_size_.capacity() * sizeof(void*);
  for (const auto& cluster : by_size_) {
    if (cluster != nullptr) total += sizeof(Cluster) + cluster->MemoryUsage();
  }
  return total;
}

}  // namespace vfps
