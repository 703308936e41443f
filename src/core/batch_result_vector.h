// Copyright 2026 The vfps Authors.
// The batched predicate result block: the batch analogue of ResultVector.
// Instead of one byte per predicate, each predicate owns a *stripe* of
// lane bits — bit e of the stripe says whether event e of the batch
// satisfies the predicate. Stripes are stored contiguously
// (words_[pid * words_per_lane_ + w]) so the batch cluster kernels can AND
// whole stripes together: one column touch serves every event of the
// batch. Reset walks a dirty-predicate list, so clearing between batches
// is O(satisfied predicates), matching ResultVector's discipline.

#ifndef VFPS_CORE_BATCH_RESULT_VECTOR_H_
#define VFPS_CORE_BATCH_RESULT_VECTOR_H_

#include <cstdint>
#include <vector>

#include "src/core/types.h"
#include "src/util/macros.h"
#include "src/util/simd.h"

namespace vfps {

/// Per-batch predicate truth stripes with O(set stripes) reset.
class BatchResultVector {
 public:
  /// Largest batch chunk a block can hold; callers split bigger batches.
  static constexpr size_t kMaxLanes = 256;
  /// Stripe width in 64-bit words for kMaxLanes lanes.
  static constexpr size_t kMaxWordsPerLane = kMaxLanes / 64;

  /// Prepares the block for a batch chunk of `lanes` events over at least
  /// `capacity` predicates, clearing every stripe. A stripe-width change
  /// relocates every stripe, so it re-lays-out and zero-fills; capacity
  /// growth only zero-fills the newly added stripes (vector::resize
  /// value-initializes exactly that region) and keeps the O(set stripes)
  /// dirty-list reset for the existing ones.
  void Reset(size_t lanes, size_t capacity) {
    VFPS_DCHECK(lanes > 0 && lanes <= kMaxLanes);
    lanes_ = lanes;
    const size_t words_per_lane = (lanes + 63) / 64;
    if (words_per_lane != words_per_lane_) {
      words_per_lane_ = words_per_lane;
      if (capacity > capacity_) capacity_ = capacity;
      words_.assign(capacity_ * words_per_lane_, 0);
      touched_.assign(capacity_, 0);
      dirty_.clear();
      return;
    }
    EnsureCapacity(capacity);
    for (PredicateId id : dirty_) {
      simd::ZeroWords(&words_[id * words_per_lane_], words_per_lane_);
      touched_[id] = 0;
    }
    dirty_.clear();
  }

  /// Grows the block to at least `capacity` predicates mid-chunk: existing
  /// stripes keep their bits, new ones are clear.
  void EnsureCapacity(size_t capacity) {
    if (capacity > capacity_) {
      capacity_ = capacity;
      words_.resize(capacity_ * words_per_lane_, 0);
      touched_.resize(capacity_, 0);
    }
  }

  /// Marks predicate `id` satisfied by event `lane` of the batch.
  void Set(PredicateId id, size_t lane) {
    VFPS_DCHECK(id < capacity_);
    VFPS_DCHECK(lane < lanes_);
    Touch(id);
    words_[id * words_per_lane_ + lane / 64] |= uint64_t{1} << (lane % 64);
  }

  /// ORs a whole lane mask (words_per_lane() words) into predicate `id`'s
  /// stripe. Used by phase 1 to commit one distinct (attribute, value)
  /// probe to every batch lane carrying that value at once.
  void SetMask(PredicateId id, const uint64_t* mask) {
    VFPS_DCHECK(id < capacity_);
    Touch(id);
    simd::OrWords(&words_[id * words_per_lane_], mask, words_per_lane_);
  }

  /// True iff predicate `id` is satisfied by event `lane`.
  bool Test(PredicateId id, size_t lane) const {
    VFPS_DCHECK(id < capacity_);
    VFPS_DCHECK(lane < lanes_);
    return (words_[id * words_per_lane_ + lane / 64] >>
            (lane % 64)) & uint64_t{1};
  }

  /// Predicate `id`'s stripe: words_per_lane() words, bit e = lane e.
  const uint64_t* stripe(PredicateId id) const {
    VFPS_DCHECK(id < capacity_);
    return &words_[id * words_per_lane_];
  }

  /// Stripe width in words for the current batch chunk.
  size_t words_per_lane() const { return words_per_lane_; }

  /// Lanes in the current batch chunk.
  size_t lanes() const { return lanes_; }

  /// Number of predicate cells.
  size_t capacity() const { return capacity_; }

  /// Predicates satisfied by at least one lane, in first-set order.
  const std::vector<PredicateId>& set_ids() const { return dirty_; }

  /// Approximate heap footprint in bytes.
  size_t MemoryUsage() const {
    return words_.capacity() * sizeof(uint64_t) +
           touched_.capacity() * sizeof(uint8_t) +
           dirty_.capacity() * sizeof(PredicateId);
  }

 private:
  void Touch(PredicateId id) {
    if (touched_[id] == 0) {
      touched_[id] = 1;
      dirty_.push_back(id);
    }
  }

  std::vector<uint64_t> words_;
  std::vector<uint8_t> touched_;
  std::vector<PredicateId> dirty_;
  size_t words_per_lane_ = 0;
  size_t lanes_ = 0;
  size_t capacity_ = 0;
};

}  // namespace vfps

#endif  // VFPS_CORE_BATCH_RESULT_VECTOR_H_
