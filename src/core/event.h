// Copyright 2026 The vfps Authors.
// An event is a set of (attribute, value) pairs, at most one pair per
// attribute (Section 1.1).

#ifndef VFPS_CORE_EVENT_H_
#define VFPS_CORE_EVENT_H_

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/core/types.h"
#include "src/util/status.h"

namespace vfps {

/// One attribute/value pair of an event.
struct EventPair {
  AttributeId attribute;
  Value value;

  bool operator==(const EventPair& o) const {
    return attribute == o.attribute && value == o.value;
  }
};

/// An immutable event. Pairs are stored sorted by attribute so that value
/// lookup is a binary search and the event schema is directly an ordered
/// attribute sequence. Rebuild() refills an event in place, so a reader
/// that parses a stream of events into the same few Event objects stops
/// allocating once their storage has grown.
class Event {
 public:
  Event() = default;

  /// Builds an event from pairs. Returns InvalidArgument if two pairs share
  /// an attribute.
  static Result<Event> Create(std::vector<EventPair> pairs);

  /// Builds an event, aborting on duplicate attributes. For tests and
  /// generators that construct pairs they know are unique.
  static Event CreateUnchecked(std::vector<EventPair> pairs);

  /// Replaces the pairs with those `fill` appends to an empty vector that
  /// reuses this event's storage. `fill` returns a Status; on error, or if
  /// two pairs share an attribute (InvalidArgument), the event is left
  /// empty and the error returned.
  template <typename Fill>
  Status Rebuild(Fill&& fill) {
    pairs_.clear();
    Status status = fill(&pairs_);
    if (status.ok()) status = SortAndCheck();
    if (!status.ok()) pairs_.clear();
    return status;
  }

  /// Number of pairs (the paper's n_A for generated events).
  size_t size() const { return pairs_.size(); }
  bool empty() const { return pairs_.empty(); }

  /// Pairs sorted by attribute id.
  const std::vector<EventPair>& pairs() const { return pairs_; }

  /// Value for `attribute`, or nullopt if the event has no such pair.
  std::optional<Value> Find(AttributeId attribute) const;

  /// Debug representation like "(a0=3, a4=17)".
  std::string ToString() const;

 private:
  /// Sorts pairs_ by attribute; InvalidArgument on a repeated attribute.
  Status SortAndCheck();

  std::vector<EventPair> pairs_;
};

}  // namespace vfps

#endif  // VFPS_CORE_EVENT_H_
