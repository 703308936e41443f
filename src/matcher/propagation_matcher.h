// Copyright 2026 The vfps Authors.
// The propagation algorithm (Section 6): clusters are keyed by a single
// equality predicate — the "natural" clustering whose access structures
// coincide with the equality predicate index. Each subscription is placed
// under its most selective equality predicate; subscriptions without
// equality predicates go to the always-checked fallback list. Built with
// and without prefetching, this is the paper's `propagation` /
// `propagation-wp` pair.

#ifndef VFPS_MATCHER_PROPAGATION_MATCHER_H_
#define VFPS_MATCHER_PROPAGATION_MATCHER_H_

#include "src/matcher/clustered_base.h"

namespace vfps {

/// Single-equality-access-predicate clustered matcher.
class PropagationMatcher : public ClusteredMatcherBase {
 public:
  /// `use_prefetch` selects the prefetching cluster kernels
  /// (propagation-wp) or the plain ones (propagation).
  /// `observe_sample_rate`: every k-th event updates the ν statistics used
  /// to pick access predicates for later insertions (0 disables).
  explicit PropagationMatcher(bool use_prefetch = true,
                              uint32_t observe_sample_rate = 16);

  const char* name() const override {
    return use_prefetch_ ? "propagation-wp" : "propagation";
  }

 protected:
  /// The most selective single equality predicate (never a table).
  Placement InitialPlacement(const SubRecord& record) const override;
};

}  // namespace vfps

#endif  // VFPS_MATCHER_PROPAGATION_MATCHER_H_
