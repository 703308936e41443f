// Copyright 2026 The vfps Authors.
// Parser for the subscription expression language: arbitrary boolean
// combinations of (attribute op value) comparisons are normalized to
// disjunctive normal form — the subscription language the paper's prototype
// supports ("a subscription language consisting of disjunctive normal form
// conditions on events", Section 7). Each DNF disjunct becomes one
// conjunctive subscription for the matching engine.
//
//   price <= 400 AND (from = 'NYC' OR from = 'EWR') AND NOT to = 'LAX'
//
// String values are interned through a SchemaRegistry and support = / !=
// only; integers support all six comparison operators.

#ifndef VFPS_LANG_PARSER_H_
#define VFPS_LANG_PARSER_H_

#include <string_view>
#include <vector>

#include "src/core/event.h"
#include "src/core/predicate.h"
#include "src/core/schema_registry.h"
#include "src/util/status.h"

namespace vfps {

/// Limits guarding against DNF blowup (the expansion of n conjoined
/// disjunctions is exponential).
struct ParseOptions {
  /// Maximum number of disjuncts after DNF expansion.
  size_t max_disjuncts = 64;
  /// Maximum predicates per disjunct.
  size_t max_conjunction_size = 64;
};

/// A parsed condition: a disjunction of conjunctions of predicates.
struct ParsedCondition {
  std::vector<std::vector<Predicate>> disjuncts;
};

/// Parses a boolean condition into DNF. Attribute names and string values
/// are interned into `schema` in input order, once the whole text has
/// lexed: text that fails to lex interns nothing, and its lex error is
/// reported even when a parse error comes earlier. NOT is pushed down to
/// the comparisons (De Morgan), so the result contains only positive
/// predicate lists.
Result<ParsedCondition> ParseCondition(std::string_view text,
                                       SchemaRegistry* schema,
                                       const ParseOptions& options = {});

/// Parses an event written as comma-separated pairs:
///   "movie = 'groundhog day', price = 8, theater = 'odeon'"
/// Only '=' is legal in events. Duplicate attributes are rejected. Names
/// are interned as ParseCondition interns them.
Result<Event> ParseEvent(std::string_view text, SchemaRegistry* schema);

/// The same parse into `*event`, reusing its storage (Event::Rebuild): a
/// caller that parses a stream into the same events allocates nothing per
/// event once every name is known. On error `*event` is left empty.
Status ParseEvent(std::string_view text, SchemaRegistry* schema,
                  Event* event);

}  // namespace vfps

#endif  // VFPS_LANG_PARSER_H_
