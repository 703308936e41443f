// Copyright 2026 The vfps Authors.
// Online statistics over the event stream. The cost-based clustering of
// Section 3 and the dynamic maintenance of Section 4 both need two
// estimates: ν(p), the probability that an incoming event satisfies an
// access predicate p, and μ(H), the probability that an event's schema
// includes the schema of hashing structure H. Both are derived here from
// per-attribute presence counts and per-value frequency counts, under the
// paper's attribute-independence assumption, with exponential decay so the
// estimates track drifting event patterns (the Figure 4 experiments).

#ifndef VFPS_COST_EVENT_STATISTICS_H_
#define VFPS_COST_EVENT_STATISTICS_H_

#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/core/attribute_set.h"
#include "src/core/event.h"
#include "src/core/predicate.h"
#include "src/core/subscription.h"
#include "src/core/types.h"

namespace vfps {

/// Decayed counting statistics over observed events.
class EventStatistics {
 public:
  /// `decay_window`: after this many observed events, all counts are halved
  /// (so the effective memory is ~2x the window). 0 disables decay.
  explicit EventStatistics(uint64_t decay_window = 1 << 16)
      : decay_window_(decay_window) {}

  /// Folds one event into the statistics.
  void Observe(const Event& event);

  /// Registers `weight` pseudo-events as observed (call once per synthetic
  /// seeding batch, before describing attributes with
  /// SeedAttributeUniform).
  void SeedPseudoEvents(double weight);

  /// Describes attribute `a` within a previously registered pseudo-event
  /// batch of the given `weight`: present with probability `p_present` and,
  /// when present, uniformly distributed over [lo, hi]. Lets benches and
  /// the static optimizer describe a workload without replaying events.
  void SeedAttributeUniform(AttributeId a, Value lo, Value hi,
                            double p_present, double weight);

  /// Total weight observed (events + seeded pseudo-events), after decay.
  double total_weight() const { return total_weight_; }

  /// Events folded by Observe since construction (not decayed).
  uint64_t observed_count() const { return observed_count_; }

  /// True once SeedPseudoEvents described the workload up front.
  bool seeded() const { return seeded_; }

  /// Observed events per decay halving (0: no decay).
  uint64_t decay_window() const { return decay_window_; }

  /// P(an event carries attribute `a`).
  double PresenceProbability(AttributeId a) const;

  /// ν(a = v): P(an event carries the pair (a, v)).
  double ValueProbability(AttributeId a, Value v) const;

  /// ν(p) for an arbitrary predicate.
  double NuPredicate(const Predicate& p) const;

  /// ν of the conjunction (A1 = v1) AND ... over `schema` with `values`
  /// (attribute independence): the selectivity of an access predicate.
  double NuConjunction(const AttributeSet& schema,
                       std::span<const Value> values) const;

  /// ν of the access predicate formed by s's equality values over `schema`.
  /// Requires schema ⊆ s.equality_attributes().
  double NuSubscriptionSchema(const Subscription& s,
                              const AttributeSet& schema) const;

  /// μ(H): P(event schema includes `schema`).
  double MuSchema(const AttributeSet& schema) const;

  /// Approximate heap footprint in bytes.
  size_t MemoryUsage() const;

 private:
  struct AttrStats {
    double present = 0;  // decayed count of events carrying the attribute
    std::unordered_map<Value, double> value_counts;
    // Analytic uniform component from SeedUniform.
    double uniform_mass = 0;
    Value uniform_lo = 0;
    Value uniform_hi = 0;
  };

  const AttrStats* Find(AttributeId a) const {
    if (a >= by_attribute_.size()) return nullptr;
    return by_attribute_[a].get();
  }
  AttrStats* GetOrCreate(AttributeId a);

  /// P(value matches | attribute present), for NuPredicate.
  static double MatchGivenPresent(const AttrStats& s, const Predicate& p);
  /// Weight of value `v` including the uniform seeded component.
  static double ValueWeight(const AttrStats& s, Value v);

  void Decay();

  std::vector<std::unique_ptr<AttrStats>> by_attribute_;
  double total_weight_ = 0;
  uint64_t observed_count_ = 0;
  bool seeded_ = false;
  uint64_t observed_since_decay_ = 0;
  uint64_t decay_window_;
};

}  // namespace vfps

#endif  // VFPS_COST_EVENT_STATISTICS_H_
