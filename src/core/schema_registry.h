// Copyright 2026 The vfps Authors.
// Maps human-readable attribute names and string values to the dense
// integer ids / integer values the matching engine operates on. This is the
// friendly front door used by the examples and the Broker; the core engine
// never sees strings.

#ifndef VFPS_CORE_SCHEMA_REGISTRY_H_
#define VFPS_CORE_SCHEMA_REGISTRY_H_

#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/core/types.h"
#include "src/util/status.h"

namespace vfps {

/// Bidirectional name <-> id mapping for attributes, plus interning of
/// string attribute values into integer Values.
///
/// String values are assigned ids in first-seen order, so `=` and `!=`
/// behave exactly as string equality. Range operators over interned strings
/// compare interning order, not lexicographic order; applications needing
/// ordered string semantics should map values themselves.
class SchemaRegistry {
 public:
  /// Id for `name`, creating a fresh attribute on first use.
  AttributeId InternAttribute(std::string_view name);

  /// Id for `name` if known, kInvalidAttributeId otherwise.
  AttributeId FindAttribute(std::string_view name) const;

  /// Name of `id`. Requires a previously interned id.
  const std::string& AttributeName(AttributeId id) const;

  /// Number of distinct attributes interned (the paper's n_t).
  size_t attribute_count() const { return attribute_names_.size(); }

  /// Integer value standing for string value `text`, interned on first use.
  Value InternValue(std::string_view text);

  /// Integer for `text` if interned; NotFound otherwise. Useful for events:
  /// a string value never seen in any subscription cannot match any
  /// equality predicate.
  Result<Value> FindValue(std::string_view text) const;

  /// The string interned as `value`, or empty if `value` was never interned
  /// (e.g. it is a plain numeric value).
  const std::string& ValueText(Value value) const;

 private:
  /// Hashes std::string and std::string_view alike, so lookups by a view
  /// into the input build no std::string.
  struct NameHash {
    using is_transparent = void;
    size_t operator()(std::string_view name) const {
      return std::hash<std::string_view>{}(name);
    }
  };
  template <typename V>
  using NameMap = std::unordered_map<std::string, V, NameHash, std::equal_to<>>;

  NameMap<AttributeId> attribute_ids_;
  std::vector<std::string> attribute_names_;
  NameMap<Value> value_ids_;
  std::vector<std::string> value_texts_;
};

}  // namespace vfps

#endif  // VFPS_CORE_SCHEMA_REGISTRY_H_
