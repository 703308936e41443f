// Copyright 2026 The vfps Authors.
// Small ordered sets of attribute ids. These are the "schemas" of the paper:
// the schema of an event, of an access predicate, and of a multi-attribute
// hashing structure are all attribute sets, and schema-based clustering is
// driven by subset tests between them.

#ifndef VFPS_CORE_ATTRIBUTE_SET_H_
#define VFPS_CORE_ATTRIBUTE_SET_H_

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "src/core/types.h"
#include "src/util/hash.h"
#include "src/util/macros.h"

namespace vfps {

/// An immutable-after-build sorted set of AttributeIds with a 64-bit Bloom
/// signature for fast subset rejection. Subset tests are the hot operation:
/// for every event the matchers must find all hashing structures whose
/// schema is included in the event schema.
class AttributeSet {
 public:
  AttributeSet() = default;

  /// Builds from any list of ids; duplicates are removed.
  explicit AttributeSet(std::vector<AttributeId> ids) : ids_(std::move(ids)) {
    Normalize();
  }
  AttributeSet(std::initializer_list<AttributeId> ids)
      : ids_(ids) {
    Normalize();
  }

  /// Number of attributes in the set.
  size_t size() const { return ids_.size(); }
  bool empty() const { return ids_.empty(); }

  /// Sorted, duplicate-free ids.
  const std::vector<AttributeId>& ids() const { return ids_; }

  /// The 64-bit Bloom signature: bit (a & 63) for every member a.
  uint64_t bloom() const { return bloom_; }
  static uint64_t BloomBit(AttributeId a) { return 1ULL << (a & 63); }

  /// Membership test (binary search).
  bool Contains(AttributeId a) const {
    return std::binary_search(ids_.begin(), ids_.end(), a);
  }

  /// True iff every attribute of *this occurs in `other`. The Bloom mask
  /// rejects most negatives in one AND; positives fall back to a merge walk.
  bool IsSubsetOf(const AttributeSet& other) const {
    if (ids_.size() > other.ids_.size()) return false;
    if ((bloom_ & other.bloom_) != bloom_) return false;
    return std::includes(other.ids_.begin(), other.ids_.end(), ids_.begin(),
                         ids_.end());
  }

  /// Adds one attribute (keeps the set sorted). Returns false if present.
  bool Insert(AttributeId a) {
    auto it = std::lower_bound(ids_.begin(), ids_.end(), a);
    if (it != ids_.end() && *it == a) return false;
    ids_.insert(it, a);
    bloom_ |= BloomBit(a);
    return true;
  }

  /// Set union.
  AttributeSet Union(const AttributeSet& other) const {
    std::vector<AttributeId> out;
    out.reserve(ids_.size() + other.ids_.size());
    std::set_union(ids_.begin(), ids_.end(), other.ids_.begin(),
                   other.ids_.end(), std::back_inserter(out));
    return AttributeSet(std::move(out));
  }

  bool operator==(const AttributeSet& other) const {
    return ids_ == other.ids_;
  }
  bool operator!=(const AttributeSet& other) const { return !(*this == other); }
  /// Lexicographic order so AttributeSet can key ordered containers.
  bool operator<(const AttributeSet& other) const { return ids_ < other.ids_; }

  /// Stable 64-bit hash of the set contents.
  uint64_t Hash() const {
    uint64_t h = 0x5e7f5e7fULL;
    for (AttributeId a : ids_) h = HashCombine(h, a);
    return h;
  }

  /// Debug representation like "{1,4,7}".
  std::string ToString() const {
    std::string out = "{";
    for (size_t i = 0; i < ids_.size(); ++i) {
      if (i > 0) out += ",";
      out += std::to_string(ids_[i]);
    }
    out += "}";
    return out;
  }

 private:
  void Normalize() {
    std::sort(ids_.begin(), ids_.end());
    ids_.erase(std::unique(ids_.begin(), ids_.end()), ids_.end());
    bloom_ = 0;
    for (AttributeId a : ids_) bloom_ |= BloomBit(a);
  }

  std::vector<AttributeId> ids_;
  uint64_t bloom_ = 0;
};

/// std::hash adapter so AttributeSet can key unordered containers.
struct AttributeSetHash {
  size_t operator()(const AttributeSet& s) const {
    return static_cast<size_t>(s.Hash());
  }
};

}  // namespace vfps

#endif  // VFPS_CORE_ATTRIBUTE_SET_H_
