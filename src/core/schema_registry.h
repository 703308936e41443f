// Copyright 2026 The vfps Authors.
// Maps human-readable attribute names and string values to the dense
// integer ids / integer values the matching engine operates on. This is the
// friendly front door used by the examples and the Broker; the core engine
// never sees strings.

#ifndef VFPS_CORE_SCHEMA_REGISTRY_H_
#define VFPS_CORE_SCHEMA_REGISTRY_H_

#include <cstdint>
#include <string>
#include <string_view>
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

  /// FindAttribute, trying `guess` before hashing: a reader that expects
  /// names in registry order (an event listing its attributes sorted, as
  /// the one before it did) guesses the previous id + 1.
  AttributeId FindAttribute(std::string_view name, AttributeId guess) const {
    if (guess < attribute_names_.size() &&
        attribute_names_[guess].size() == name.size() &&
        std::char_traits<char>::compare(attribute_names_[guess].data(),
                                        name.data(), name.size()) == 0) {
      return guess;
    }
    return FindAttribute(name);
  }

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

  /// The same lookup without building an error: false if `text` was never
  /// interned (the event path asks this of every unseen string).
  bool FindValue(std::string_view text, Value* value) const;

  /// The string interned as `value`, or empty if `value` was never interned
  /// (e.g. it is a plain numeric value).
  const std::string& ValueText(Value value) const;

 private:
  /// Open-addressing hash index from a name to its position in a name
  /// vector (attribute_names_ or value_texts_). A lookup hashes the view
  /// once, probes a flat power-of-two table and compares in place: no
  /// per-name node, no modulo.
  class NameIndex {
   public:
    /// Position of `name` in `names`, or -1.
    int64_t Find(std::string_view name,
                 const std::vector<std::string>& names) const;
    /// Records `names.back()` at position names.size() - 1.
    void InsertLast(const std::vector<std::string>& names);

   private:
    static uint64_t Hash(std::string_view name);
    void Place(uint64_t hash, uint32_t position);

    /// Slot: high 32 bits of the name's hash, low 32 bits position + 1;
    /// 0 is empty. Kept at most half full.
    std::vector<uint64_t> slots_;
    size_t size_ = 0;
  };

  NameIndex attribute_index_;
  std::vector<std::string> attribute_names_;
  NameIndex value_index_;
  std::vector<std::string> value_texts_;
};

}  // namespace vfps

#endif  // VFPS_CORE_SCHEMA_REGISTRY_H_
