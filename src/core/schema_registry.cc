// Copyright 2026 The vfps Authors.

#include "src/core/schema_registry.h"

#include "src/util/macros.h"

namespace vfps {

namespace {

/// Byte comparison inline: names are a few bytes, shorter than a memcmp
/// call's own overhead.
bool SameName(const std::string& a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < b.size(); ++i) {
    if (a[i] != b[i]) return false;
  }
  return true;
}

}  // namespace

uint64_t SchemaRegistry::NameIndex::Hash(std::string_view name) {
  // Eight bytes at a time through a multiply-xorshift mix (the splitmix64
  // finalizer's constants); names are short, so this is one or two rounds.
  constexpr uint64_t kMul = 0xbf58476d1ce4e5b9ULL;
  uint64_t h = 0x9e3779b97f4a7c15ULL ^ name.size();
  const char* p = name.data();
  size_t left = name.size();
  while (left > 0) {
    uint64_t word = 0;
    const size_t n = left < 8 ? left : 8;
    for (size_t i = 0; i < n; ++i) {
      word |= static_cast<uint64_t>(static_cast<unsigned char>(p[i]))
              << (8 * i);
    }
    h = (h ^ word) * kMul;
    h ^= h >> 31;
    p += n;
    left -= n;
  }
  h *= 0x94d049bb133111ebULL;
  return h ^ (h >> 29);
}

int64_t SchemaRegistry::NameIndex::Find(
    std::string_view name, const std::vector<std::string>& names) const {
  if (slots_.empty()) return -1;
  const uint64_t hash = Hash(name);
  const uint64_t tag = hash >> 32;
  const size_t mask = slots_.size() - 1;
  for (size_t i = hash & mask;; i = (i + 1) & mask) {
    const uint64_t slot = slots_[i];
    if (slot == 0) return -1;
    if ((slot >> 32) == tag) {
      const uint32_t position = static_cast<uint32_t>(slot) - 1;
      if (SameName(names[position], name)) return position;
    }
  }
}

void SchemaRegistry::NameIndex::Place(uint64_t hash, uint32_t position) {
  const size_t mask = slots_.size() - 1;
  size_t i = hash & mask;
  while (slots_[i] != 0) i = (i + 1) & mask;
  slots_[i] = (hash >> 32 << 32) | (static_cast<uint64_t>(position) + 1);
}

void SchemaRegistry::NameIndex::InsertLast(
    const std::vector<std::string>& names) {
  VFPS_CHECK(names.size() < (uint64_t{1} << 32));
  if (2 * (size_ + 1) > slots_.size()) {
    slots_.assign(slots_.empty() ? 16 : 2 * slots_.size(), 0);
    for (uint32_t p = 0; p + 1 < names.size(); ++p) {
      Place(Hash(names[p]), p);
    }
  }
  Place(Hash(names.back()), static_cast<uint32_t>(names.size() - 1));
  ++size_;
}

AttributeId SchemaRegistry::InternAttribute(std::string_view name) {
  const int64_t found = attribute_index_.Find(name, attribute_names_);
  if (found >= 0) return static_cast<AttributeId>(found);
  attribute_names_.emplace_back(name);
  attribute_index_.InsertLast(attribute_names_);
  return static_cast<AttributeId>(attribute_names_.size() - 1);
}

AttributeId SchemaRegistry::FindAttribute(std::string_view name) const {
  const int64_t found = attribute_index_.Find(name, attribute_names_);
  return found < 0 ? kInvalidAttributeId : static_cast<AttributeId>(found);
}

const std::string& SchemaRegistry::AttributeName(AttributeId id) const {
  VFPS_CHECK(id < attribute_names_.size());
  return attribute_names_[id];
}

Value SchemaRegistry::InternValue(std::string_view text) {
  const int64_t found = value_index_.Find(text, value_texts_);
  if (found >= 0) return found;
  value_texts_.emplace_back(text);
  value_index_.InsertLast(value_texts_);
  return static_cast<Value>(value_texts_.size() - 1);
}

Result<Value> SchemaRegistry::FindValue(std::string_view text) const {
  Value value;
  if (!FindValue(text, &value)) {
    return Status::NotFound("string value never interned: " +
                            std::string(text));
  }
  return value;
}

bool SchemaRegistry::FindValue(std::string_view text, Value* value) const {
  const int64_t found = value_index_.Find(text, value_texts_);
  if (found < 0) return false;
  *value = found;
  return true;
}

const std::string& SchemaRegistry::ValueText(Value value) const {
  static const std::string kEmpty;
  if (value < 0 || static_cast<size_t>(value) >= value_texts_.size()) {
    return kEmpty;
  }
  return value_texts_[static_cast<size_t>(value)];
}

}  // namespace vfps
