// Copyright 2026 The vfps Authors.

#include "src/cluster/cluster.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <unordered_set>

#include "src/cluster/kernels.h"

/// Reports the first violated invariant (with context) and returns false
/// from the enclosing CheckInvariants. Local to invariant walks.
#define VFPS_INVARIANT(cond, ...)                 \
  do {                                            \
    if (!(cond)) {                                \
      std::fprintf(stderr, __VA_ARGS__);          \
      std::fprintf(stderr, " [%s]\n", #cond);     \
      return false;                               \
    }                                             \
  } while (0)

namespace vfps {

Cluster::Cluster(uint32_t size) : size_(size) {}

void Cluster::Grow(size_t min_capacity) {
  size_t new_capacity = capacity_ == 0 ? kClusterUnfold : capacity_ * 2;
  while (new_capacity < min_capacity) new_capacity *= 2;
  std::vector<PredicateId> new_columns(new_capacity * size_);
  for (uint32_t c = 0; c < size_; ++c) {
    std::copy(columns_.begin() + c * capacity_,
              columns_.begin() + c * capacity_ + count_,
              new_columns.begin() + c * new_capacity);
  }
  columns_ = std::move(new_columns);
  capacity_ = new_capacity;
  ids_.reserve(new_capacity);
}

size_t Cluster::Add(SubscriptionId id, std::span<const PredicateId> slots) {
  VFPS_CHECK(slots.size() == size_);
  if (count_ == capacity_) Grow(count_ + 1);
  for (uint32_t c = 0; c < size_; ++c) {
    columns_[c * capacity_ + count_] = slots[c];
  }
  ids_.push_back(id);
  size_t row = count_++;
  VFPS_DCHECK_INVARIANT(CheckInvariants());
  return row;
}

SubscriptionId Cluster::RemoveAt(size_t row) {
  VFPS_DCHECK(row < count_);
  size_t last = count_ - 1;
  if (row != last) {
    for (uint32_t c = 0; c < size_; ++c) {
      columns_[c * capacity_ + row] = columns_[c * capacity_ + last];
    }
    ids_[row] = ids_[last];
  }
  ids_.pop_back();
  --count_;
  VFPS_DCHECK_INVARIANT(CheckInvariants());
  return row != count_ ? ids_[row] : kInvalidSubscriptionId;
}

bool Cluster::CheckInvariants() const {
  VFPS_INVARIANT(count_ <= capacity_,
                 "Cluster(size=%u): count %zu exceeds capacity %zu", size_,
                 count_, capacity_);
  VFPS_INVARIANT(ids_.size() == count_,
                 "Cluster(size=%u): subscription line holds %zu ids, "
                 "count is %zu",
                 size_, ids_.size(), count_);
  VFPS_INVARIANT(columns_.size() == capacity_ * size_,
                 "Cluster(size=%u): columnar storage holds %zu cells, "
                 "expected capacity * size = %zu",
                 size_, columns_.size(), capacity_ * size_);
  // Invariant builds check after every mutation: small clusters (most of
  // them) look for duplicates without allocating.
  constexpr size_t kScanLimit = 32;
  std::unordered_set<SubscriptionId> seen;
  if (count_ > kScanLimit) seen.reserve(count_);
  for (size_t j = 0; j < count_; ++j) {
    VFPS_INVARIANT(ids_[j] != kInvalidSubscriptionId,
                   "Cluster(size=%u): invalid id at row %zu", size_, j);
    const bool fresh =
        count_ > kScanLimit
            ? seen.insert(ids_[j]).second
            : std::find(ids_.begin(), ids_.begin() + j, ids_[j]) ==
                  ids_.begin() + j;
    VFPS_INVARIANT(fresh,
                   "Cluster(size=%u): duplicate subscription %llu at "
                   "row %zu",
                   size_, static_cast<unsigned long long>(ids_[j]), j);
  }
  return true;
}

void Cluster::Match(const uint8_t* results, bool use_prefetch,
                    std::vector<SubscriptionId>* out) const {
  if (count_ == 0) return;
  if (size_ == 0) {
    // Size-0 fast path: the access predicate was the whole subscription.
    out->insert(out->end(), ids_.begin(), ids_.end());
    return;
  }
  // Build the per-column base pointer array the kernels index through.
  const PredicateId* col_ptrs[kMaxSpecializedSize];
  const PredicateId** cols;
  std::vector<const PredicateId*> big_cols;
  if (size_ <= kMaxSpecializedSize) {
    cols = col_ptrs;
  } else {
    big_cols.resize(size_);
    cols = big_cols.data();
  }
  for (uint32_t c = 0; c < size_; ++c) cols[c] = &columns_[c * capacity_];

  ActiveClusterKernels().match(size_, results, cols, ids_.data(), count_,
                               use_prefetch, out);
}

void Cluster::MatchBatch(const BatchResultVector& block,
                         const uint64_t* alive, bool use_prefetch,
                         size_t lane_base, BatchResult* out) const {
  if (count_ == 0) return;
  if (size_ == 0) {
    // Size-0 fast path: every alive lane gets the whole subscription line.
    const size_t words = block.words_per_lane();
    for (size_t w = 0; w < words; ++w) {
      uint64_t bits = alive[w];
      while (bits != 0) {
        const size_t lane =
            w * 64 + static_cast<size_t>(std::countr_zero(bits));
        std::vector<SubscriptionId>* row =
            out->mutable_matches(lane_base + lane);
        row->insert(row->end(), ids_.begin(), ids_.end());
        bits &= bits - 1;
      }
    }
    return;
  }
  const PredicateId* col_ptrs[kMaxSpecializedSize];
  const PredicateId** cols;
  std::vector<const PredicateId*> big_cols;
  if (size_ <= kMaxSpecializedSize) {
    cols = col_ptrs;
  } else {
    big_cols.resize(size_);
    cols = big_cols.data();
  }
  for (uint32_t c = 0; c < size_; ++c) cols[c] = &columns_[c * capacity_];

  ActiveClusterKernels().match_batch(block, alive, cols, size_, ids_.data(),
                                     count_, lane_base, use_prefetch, out);
}

}  // namespace vfps
