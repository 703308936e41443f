// Copyright 2026 The vfps Authors.
// The static algorithm (Sections 3 and 6): the greedy cost-based optimizer
// computes a hashing configuration schema for the full subscription set,
// the matcher materializes the multi-attribute tables, and every
// subscription is assigned to its best access predicate under that fixed
// configuration. Later insertions are placed under the best *existing*
// schema — an existing multi-attribute table, or a singleton access
// predicate (always available via the equality predicate index). The
// configuration itself never changes unless Rebuild() is called — this is
// also the "no change" strategy of Figure 4.

#ifndef VFPS_MATCHER_STATIC_MATCHER_H_
#define VFPS_MATCHER_STATIC_MATCHER_H_

#include <span>

#include "src/cost/greedy_optimizer.h"
#include "src/matcher/clustered_base.h"

namespace vfps {

/// Cost-based statically clustered matcher.
class StaticMatcher : public ClusteredMatcherBase {
 public:
  /// Statistics should be seeded (or events replayed) through
  /// mutable_statistics() before Build(), since the optimizer's ν and μ
  /// estimates come from there.
  explicit StaticMatcher(GreedyOptions greedy_options = {},
                         bool use_prefetch = true,
                         uint32_t observe_sample_rate = 16);

  const char* name() const override { return "static"; }

  /// Runs the greedy optimizer over `subs`, creates the configuration
  /// tables, and loads every subscription. Fails on duplicate ids.
  Status Build(std::span<const Subscription> subs);

  /// Recomputes the configuration from the currently stored subscriptions
  /// and the current statistics, then re-places everything. This is the
  /// paper's "periodically recomputing from scratch" alternative to the
  /// dynamic algorithm. Serial matchers only.
  void Rebuild();

  /// Cost estimated by the optimizer at the last Build()/Rebuild().
  double estimated_cost() const { return estimated_cost_; }

 private:
  /// Creates the tables for a configuration.
  void MaterializeConfiguration(const ClusteringConfiguration& config);

  GreedyOptions greedy_options_;
  double estimated_cost_ = 0;
};

}  // namespace vfps

#endif  // VFPS_MATCHER_STATIC_MATCHER_H_
