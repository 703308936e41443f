// Copyright 2026 The vfps Authors.

#include "src/core/event.h"

#include <algorithm>

#include "src/util/macros.h"

namespace vfps {

namespace {
// A function object, not a function pointer, so std::sort inlines it.
struct PairAttrLess {
  bool operator()(const EventPair& a, const EventPair& b) const {
    return a.attribute < b.attribute;
  }
};
}  // namespace

Event::Event(std::vector<EventPair> pairs) : pairs_(std::move(pairs)) {
  std::sort(pairs_.begin(), pairs_.end(), PairAttrLess());
  std::vector<AttributeId> attrs;
  attrs.reserve(pairs_.size());
  for (const EventPair& p : pairs_) attrs.push_back(p.attribute);
  schema_ = AttributeSet(std::move(attrs));
}

Result<Event> Event::Create(std::vector<EventPair> pairs) {
  Event e(std::move(pairs));
  for (size_t i = 1; i < e.pairs_.size(); ++i) {
    if (e.pairs_[i].attribute == e.pairs_[i - 1].attribute) {
      return Status::InvalidArgument(
          "event has two pairs for attribute " +
          std::to_string(e.pairs_[i].attribute));
    }
  }
  return e;
}

Event Event::CreateUnchecked(std::vector<EventPair> pairs) {
  Event e(std::move(pairs));
  for (size_t i = 1; i < e.pairs_.size(); ++i) {
    VFPS_DCHECK(e.pairs_[i].attribute != e.pairs_[i - 1].attribute);
  }
  return e;
}

std::optional<Value> Event::Find(AttributeId attribute) const {
  auto it = std::lower_bound(pairs_.begin(), pairs_.end(),
                             EventPair{attribute, 0}, PairAttrLess());
  if (it == pairs_.end() || it->attribute != attribute) return std::nullopt;
  return it->value;
}

std::string Event::ToString() const {
  std::string out = "(";
  for (size_t i = 0; i < pairs_.size(); ++i) {
    if (i > 0) out += ", ";
    out.append("a").append(std::to_string(pairs_[i].attribute));
    out.append("=").append(std::to_string(pairs_[i].value));
  }
  out += ")";
  return out;
}

}  // namespace vfps
