// Copyright 2026 The vfps Authors.

#include "src/cost/event_statistics.h"

#include <algorithm>

#include "src/util/macros.h"

namespace vfps {

namespace {
/// Floor applied to every probability estimate. A ν of exactly zero would
/// make a cluster look free to access forever even if event patterns
/// change, so estimates are clamped away from 0 and 1.
constexpr double kMinProbability = 1e-9;
constexpr double kMaxProbability = 1.0;

double Clamp(double p) {
  return std::min(kMaxProbability, std::max(kMinProbability, p));
}
}  // namespace

EventStatistics::AttrStats* EventStatistics::GetOrCreate(AttributeId a) {
  if (a >= by_attribute_.size()) by_attribute_.resize(a + 1);
  if (by_attribute_[a] == nullptr) {
    by_attribute_[a] = std::make_unique<AttrStats>();
  }
  return by_attribute_[a].get();
}

void EventStatistics::Observe(const Event& event) {
  for (const EventPair& pair : event.pairs()) {
    AttrStats* s = GetOrCreate(pair.attribute);
    s->present += 1;
    s->value_counts[pair.value] += 1;
  }
  total_weight_ += 1;
  ++observed_count_;
  if (decay_window_ != 0 && ++observed_since_decay_ >= decay_window_) {
    Decay();
    observed_since_decay_ = 0;
  }
}

void EventStatistics::SeedPseudoEvents(double weight) {
  VFPS_CHECK(weight > 0);
  total_weight_ += weight;
  seeded_ = true;
}

void EventStatistics::SeedAttributeUniform(AttributeId a, Value lo, Value hi,
                                           double p_present, double weight) {
  VFPS_CHECK(lo <= hi && weight > 0 && p_present >= 0 && p_present <= 1);
  AttrStats* s = GetOrCreate(a);
  s->present += weight * p_present;
  if (s->uniform_mass == 0) {
    s->uniform_lo = lo;
    s->uniform_hi = hi;
  } else {
    // Merge ranges conservatively; repeated seeding with different ranges
    // widens the uniform support.
    s->uniform_lo = std::min(s->uniform_lo, lo);
    s->uniform_hi = std::max(s->uniform_hi, hi);
  }
  s->uniform_mass += weight * p_present;
}

void EventStatistics::Decay() {
  total_weight_ *= 0.5;
  for (auto& s : by_attribute_) {
    if (s == nullptr) continue;
    s->present *= 0.5;
    s->uniform_mass *= 0.5;
    for (auto it = s->value_counts.begin(); it != s->value_counts.end();) {
      it->second *= 0.5;
      if (it->second < 1e-3) {
        it = s->value_counts.erase(it);
      } else {
        ++it;
      }
    }
  }
}

double EventStatistics::PresenceProbability(AttributeId a) const {
  const AttrStats* s = Find(a);
  if (s == nullptr || total_weight_ <= 0) {
    // Unknown attribute: assume present so untracked predicates are never
    // considered free.
    return kMaxProbability;
  }
  return Clamp(s->present / total_weight_);
}

double EventStatistics::ValueWeight(const AttrStats& s, Value v) {
  double w = 0;
  auto it = s.value_counts.find(v);
  if (it != s.value_counts.end()) w += it->second;
  if (s.uniform_mass > 0 && v >= s.uniform_lo && v <= s.uniform_hi) {
    w += s.uniform_mass /
         static_cast<double>(s.uniform_hi - s.uniform_lo + 1);
  }
  return w;
}

double EventStatistics::ValueProbability(AttributeId a, Value v) const {
  const AttrStats* s = Find(a);
  if (s == nullptr || total_weight_ <= 0) return kMaxProbability;
  // Half a count of smoothing so an unseen value keeps a nonzero ν.
  double w = std::max(ValueWeight(*s, v), 0.5);
  return Clamp(w / total_weight_);
}

double EventStatistics::MatchGivenPresent(const AttrStats& s,
                                          const Predicate& p) {
  if (s.present <= 0) return 1.0;
  double matched = 0;
  for (const auto& [v, w] : s.value_counts) {
    if (p.Matches(v)) matched += w;
  }
  if (s.uniform_mass > 0) {
    // Count the in-range values matching p analytically.
    const double per_value =
        s.uniform_mass / static_cast<double>(s.uniform_hi - s.uniform_lo + 1);
    int64_t lo = s.uniform_lo, hi = s.uniform_hi;
    int64_t n = 0;
    switch (p.op) {
      case RelOp::kLt:
        n = std::max<int64_t>(0, std::min(hi, p.value - 1) - lo + 1);
        break;
      case RelOp::kLe:
        n = std::max<int64_t>(0, std::min(hi, p.value) - lo + 1);
        break;
      case RelOp::kGt:
        n = std::max<int64_t>(0, hi - std::max(lo, p.value + 1) + 1);
        break;
      case RelOp::kGe:
        n = std::max<int64_t>(0, hi - std::max(lo, p.value) + 1);
        break;
      case RelOp::kEq:
        n = (p.value >= lo && p.value <= hi) ? 1 : 0;
        break;
      case RelOp::kNe:
        n = (hi - lo + 1) - ((p.value >= lo && p.value <= hi) ? 1 : 0);
        break;
    }
    matched += per_value * static_cast<double>(n);
  }
  return Clamp(matched / s.present);
}

double EventStatistics::NuPredicate(const Predicate& p) const {
  const AttrStats* s = Find(p.attribute);
  if (s == nullptr || total_weight_ <= 0) return kMaxProbability;
  if (p.op == RelOp::kEq) return ValueProbability(p.attribute, p.value);
  return Clamp(PresenceProbability(p.attribute) * MatchGivenPresent(*s, p));
}

double EventStatistics::NuConjunction(const AttributeSet& schema,
                                      std::span<const Value> values) const {
  VFPS_DCHECK(schema.size() == values.size());
  double nu = 1.0;
  for (size_t i = 0; i < schema.size(); ++i) {
    nu *= ValueProbability(schema.ids()[i], values[i]);
  }
  return Clamp(nu);
}

double EventStatistics::NuSubscriptionSchema(const Subscription& s,
                                             const AttributeSet& schema) const {
  double nu = 1.0;
  for (AttributeId a : schema.ids()) {
    nu *= ValueProbability(a, s.EqualityValue(a));
  }
  return Clamp(nu);
}

double EventStatistics::MuSchema(const AttributeSet& schema) const {
  double mu = 1.0;
  for (AttributeId a : schema.ids()) mu *= PresenceProbability(a);
  return Clamp(mu);
}

size_t EventStatistics::MemoryUsage() const {
  size_t total = by_attribute_.capacity() * sizeof(void*);
  for (const auto& s : by_attribute_) {
    if (s == nullptr) continue;
    total += sizeof(AttrStats);
    total += s->value_counts.size() *
                 (sizeof(Value) + sizeof(double) + 2 * sizeof(void*)) +
             s->value_counts.bucket_count() * sizeof(void*);
  }
  return total;
}

}  // namespace vfps
