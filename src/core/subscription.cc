// Copyright 2026 The vfps Authors.

#include "src/core/subscription.h"

#include <algorithm>

#include "src/util/macros.h"

namespace vfps {

Subscription Subscription::Create(SubscriptionId id,
                                  std::vector<Predicate> predicates) {
  Subscription s;
  s.id_ = id;
  std::sort(predicates.begin(), predicates.end());
  predicates.erase(std::unique(predicates.begin(), predicates.end()),
                   predicates.end());
  s.predicates_ = std::move(predicates);

  std::vector<AttributeId> eq_attrs;
  std::vector<AttributeId> all_attrs;
  for (const Predicate& p : s.predicates_) {
    all_attrs.push_back(p.attribute);
    if (p.IsEquality()) {
      s.equality_predicates_.push_back(p);
      eq_attrs.push_back(p.attribute);
    }
  }
  s.equality_attributes_ = AttributeSet(std::move(eq_attrs));
  s.attributes_ = AttributeSet(std::move(all_attrs));
  return s;
}

Value Subscription::EqualityValue(AttributeId attribute) const {
  for (const Predicate& p : equality_predicates_) {
    if (p.attribute == attribute) return p.value;
  }
  VFPS_CHECK(false);  // caller must ensure the attribute has an = predicate
  return 0;
}

bool Subscription::Matches(const Event& event) const {
  for (const Predicate& p : predicates_) {
    std::optional<Value> v = event.Find(p.attribute);
    if (!v.has_value() || !p.Matches(*v)) return false;
  }
  return true;
}

std::string Subscription::ToString() const {
  std::string out = "s";
  out.append(std::to_string(id_)).append(":");
  for (size_t i = 0; i < predicates_.size(); ++i) {
    out += (i == 0) ? " " : " AND ";
    out += predicates_[i].ToString();
  }
  return out;
}

}  // namespace vfps
