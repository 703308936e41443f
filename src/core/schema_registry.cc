// Copyright 2026 The vfps Authors.

#include "src/core/schema_registry.h"

#include "src/util/macros.h"

namespace vfps {

AttributeId SchemaRegistry::InternAttribute(std::string_view name) {
  auto it = attribute_ids_.find(name);
  if (it != attribute_ids_.end()) return it->second;
  AttributeId id = static_cast<AttributeId>(attribute_names_.size());
  attribute_names_.emplace_back(name);
  attribute_ids_.emplace(attribute_names_.back(), id);
  return id;
}

AttributeId SchemaRegistry::FindAttribute(std::string_view name) const {
  auto it = attribute_ids_.find(name);
  return it == attribute_ids_.end() ? kInvalidAttributeId : it->second;
}

const std::string& SchemaRegistry::AttributeName(AttributeId id) const {
  VFPS_CHECK(id < attribute_names_.size());
  return attribute_names_[id];
}

Value SchemaRegistry::InternValue(std::string_view text) {
  auto it = value_ids_.find(text);
  if (it != value_ids_.end()) return it->second;
  Value id = static_cast<Value>(value_texts_.size());
  value_texts_.emplace_back(text);
  value_ids_.emplace(value_texts_.back(), id);
  return id;
}

Result<Value> SchemaRegistry::FindValue(std::string_view text) const {
  auto it = value_ids_.find(text);
  if (it == value_ids_.end()) {
    return Status::NotFound("string value never interned: " +
                            std::string(text));
  }
  return it->second;
}

const std::string& SchemaRegistry::ValueText(Value value) const {
  static const std::string kEmpty;
  if (value < 0 || static_cast<size_t>(value) >= value_texts_.size()) {
    return kEmpty;
  }
  return value_texts_[static_cast<size_t>(value)];
}

}  // namespace vfps
