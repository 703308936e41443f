// Copyright 2026 The vfps Authors.
// A cluster list: all subscriptions sharing one access predicate, grouped
// into per-size clusters (Figure 1 shows one such list hanging off an
// access predicate). "Inside the cluster list, subscriptions are grouped in
// subscription clusters according to their size."

#ifndef VFPS_CLUSTER_CLUSTER_LIST_H_
#define VFPS_CLUSTER_CLUSTER_LIST_H_

#include <memory>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/core/types.h"

namespace vfps {

/// Location of one subscription inside a ClusterList, kept by matchers to
/// support O(1) deletion (§2.3: "Deletions can be made fast by maintaining
/// for each subscription the identifier of the cluster that contains it").
struct ClusterSlot {
  uint32_t size = 0;  // which cluster within the list
  size_t row = 0;     // row within that cluster
};

/// Per-size clusters under a single access predicate.
class ClusterList {
 public:
  ClusterList() = default;

  /// Adds a subscription with the given residual predicate slots (already
  /// equality-first ordered). Returns its location.
  ClusterSlot Add(SubscriptionId id, std::span<const PredicateId> slots);

  /// Removes the subscription at `slot`. Returns the id whose location
  /// changed to `slot` as a side effect (swap-with-last inside the
  /// cluster), or kInvalidSubscriptionId if none did.
  SubscriptionId Remove(ClusterSlot slot);

  /// Matches every cluster of the list against the result vector.
  void Match(const uint8_t* results, bool use_prefetch,
             std::vector<SubscriptionId>* out) const;

  /// Batch analogue of Match: scans every cluster once for all batch lanes
  /// set in `alive` (see Cluster::MatchBatch).
  void MatchBatch(const BatchResultVector& block, const uint64_t* alive,
                  bool use_prefetch, size_t lane_base,
                  BatchResult* out) const;

  /// Total subscriptions across all sizes (|c| summed).
  size_t subscription_count() const { return count_; }
  bool empty() const { return count_ == 0; }

  /// One past the largest residual predicate id any row has held: a result
  /// vector of at least this capacity covers every cell a Match over the
  /// list reads (rows may test predicates on attributes the event lacks,
  /// which phase 1 never sized the vector for). Never shrinks.
  size_t id_bound() const { return id_bound_; }

  /// Allocated per-size clusters (the clusters a Match call scans).
  /// Maintained incrementally so the match loop's telemetry does not walk
  /// by_size_.
  size_t cluster_count() const { return cluster_count_; }

  /// Rows that a Match call will test (the paper's "number of subscription
  /// checks" — size-0 rows are matches, not checks).
  size_t CheckedRowsPerMatch() const;

  /// Calls fn(SubscriptionId) for every row, cluster by cluster.
  template <typename Fn>
  void ForEachId(Fn&& fn) const {
    for (const auto& cluster : by_size_) {
      if (cluster == nullptr) continue;
      for (size_t row = 0; row < cluster->count(); ++row) {
        fn(cluster->id_at(row));
      }
    }
  }

  /// Approximate heap footprint in bytes.
  size_t MemoryUsage() const;

  /// Validates the per-size grouping invariants: every allocated cluster
  /// is non-empty (empty ones are released on Remove), stores
  /// subscriptions of exactly its slot's size, and the per-cluster counts
  /// sum to subscription_count(). Recurses into Cluster::CheckInvariants.
  /// Prints the first violation and returns false.
  bool CheckInvariants() const;

 private:
  std::vector<std::unique_ptr<Cluster>> by_size_;
  size_t count_ = 0;
  size_t cluster_count_ = 0;
  size_t id_bound_ = 0;
};

/// The two mutations of an owned cluster list, shared by every list a
/// clustered matcher owns (singleton, table entry, fallback): a missing
/// list is created, an emptied one is released.

/// Adds `id` with residual `slots`; returns its row.
ClusterSlot AddToList(std::unique_ptr<ClusterList>* list, SubscriptionId id,
                      std::span<const PredicateId> slots);

/// Removes the row at `slot`; returns the id relocated into it (see
/// ClusterList::Remove).
SubscriptionId RemoveFromList(std::unique_ptr<ClusterList>* list,
                              ClusterSlot slot);

}  // namespace vfps

#endif  // VFPS_CLUSTER_CLUSTER_LIST_H_
