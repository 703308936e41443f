// Copyright 2026 The vfps Authors.

#include "src/matcher/static_matcher.h"

#include <vector>

namespace vfps {

StaticMatcher::StaticMatcher(GreedyOptions greedy_options, bool use_prefetch,
                             uint32_t observe_sample_rate)
    : ClusteredMatcherBase(use_prefetch, observe_sample_rate),
      greedy_options_(greedy_options) {}

void StaticMatcher::MaterializeConfiguration(
    const ClusteringConfiguration& config) {
  // Singleton schemas of the configuration need no structure: their cluster
  // lists hang off the equality predicate index. Only multi-attribute
  // schemas become hash tables.
  for (const AttributeSet& schema : config.schemas) {
    if (schema.size() >= 2) GetOrCreateTable(schema);
  }
  estimated_cost_ = config.estimated_cost;
}

Status StaticMatcher::Build(std::span<const Subscription> subs) {
  {
    MutexLock lock(writer_mu_);
    GreedyOptimizer optimizer(&stats_model_, cost_params_, greedy_options_);
    MaterializeConfiguration(optimizer.Compute(subs));
  }
  for (const Subscription& s : subs) {
    VFPS_RETURN_NOT_OK(AddSubscription(s));
  }
  return Status::OK();
}

void StaticMatcher::Rebuild() {
  MutexLock lock(writer_mu_);
  // Reconstruct the stored subscriptions, tear down placement (but not the
  // interned predicates), recompute the configuration and re-place.
  std::vector<Subscription> subs;
  subs.reserve(records_.size());
  for (const auto& [id, record] : records_) {
    subs.push_back(ReconstructSubscription(id, record));
  }
  ClearPlacements();

  GreedyOptimizer optimizer(&stats_model_, cost_params_, greedy_options_);
  MaterializeConfiguration(optimizer.Compute(subs));
  for (const Subscription& s : subs) {
    auto it = records_.find(s.id());
    VFPS_DCHECK(it != records_.end());
    Place(s.id(), &it->second, ChooseBestPlacement(it->second));
  }
}

}  // namespace vfps
