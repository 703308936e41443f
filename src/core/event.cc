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

Status Event::SortAndCheck() {
  // Parsed and generated events arrive sorted or nearly so: insertion sort
  // is linear on such input. Long events fall back to std::sort, so no
  // input can make this quadratic.
  constexpr size_t kInsertionSortMax = 64;
  if (pairs_.size() <= kInsertionSortMax) {
    for (size_t i = 1; i < pairs_.size(); ++i) {
      const EventPair p = pairs_[i];
      size_t j = i;
      for (; j > 0 && p.attribute < pairs_[j - 1].attribute; --j) {
        pairs_[j] = pairs_[j - 1];
      }
      pairs_[j] = p;
    }
  } else {
    std::sort(pairs_.begin(), pairs_.end(), PairAttrLess());
  }
  for (size_t i = 1; i < pairs_.size(); ++i) {
    if (pairs_[i].attribute == pairs_[i - 1].attribute) {
      return Status::InvalidArgument("event has two pairs for attribute " +
                                     std::to_string(pairs_[i].attribute));
    }
  }
  return Status::OK();
}

Result<Event> Event::Create(std::vector<EventPair> pairs) {
  Event e;
  e.pairs_ = std::move(pairs);
  VFPS_RETURN_NOT_OK(e.SortAndCheck());
  return e;
}

Event Event::CreateUnchecked(std::vector<EventPair> pairs) {
  Event e;
  e.pairs_ = std::move(pairs);
  VFPS_CHECK(e.SortAndCheck().ok());
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
