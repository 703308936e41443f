// Copyright 2026 The vfps Authors.

#include "src/matcher/propagation_matcher.h"

#include <limits>

namespace vfps {

PropagationMatcher::PropagationMatcher(bool use_prefetch,
                                       uint32_t observe_sample_rate)
    : ClusteredMatcherBase(use_prefetch, observe_sample_rate) {}

ClusteredMatcherBase::Placement PropagationMatcher::InitialPlacement(
    const SubRecord& record) const {
  // Access predicate: the most selective single equality predicate. With no
  // statistics yet, all ν estimates tie and the first equality predicate in
  // canonical order wins, which keeps placement deterministic. The
  // propagation algorithm never uses multi-attribute tables, so
  // ChooseBestPlacement (which would consider them) is intentionally not
  // used here.
  Placement placement;  // fallback by default
  double best_nu = std::numeric_limits<double>::infinity();
  for (uint16_t i = 0; i < record.eq_count; ++i) {
    const Predicate& p = predicate_table_.Get(record.preds[i]);
    const double nu = stats_model_.ValueProbability(p.attribute, p.value);
    if (nu < best_nu) {
      best_nu = nu;
      placement = Placement{kSingletonTable, record.preds[i]};
    }
  }
  return placement;
}

}  // namespace vfps
