// Copyright 2026 The vfps Authors.

#include "src/lang/parser.h"

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/lang/lexer.h"
#include "src/util/macros.h"

namespace vfps {

namespace {

/// Boolean expression tree over comparisons, kept flat: every node of one
/// parse lives in one vector and names its first child and next sibling
/// by index, so a conjunction of n comparisons allocates no node of its
/// own. Internal to the parser; the public result is the flattened DNF.
struct ExprNode {
  enum class Kind : uint8_t { kComparison, kAnd, kOr, kNot };
  Kind kind;
  uint32_t comparison = 0;  // kComparison only: index into the comparisons
  int32_t first_child = -1;
  int32_t next_sibling = -1;
};

// Parse errors both parsers report.
constexpr const char* kStringOpError =
    "string values support only = and != (interned order is not "
    "lexicographic)";
constexpr const char* kValueError = "expected value after operator";

Status ParseError(size_t offset, std::string_view what) {
  return Status::InvalidArgument(std::string("parse error at offset ")
                                     .append(std::to_string(offset))
                                     .append(": ")
                                     .append(what));
}

/// One parsed comparison, still in the input's words.
struct Comparison {
  std::string_view attribute;
  RelOp op;
  Token value;  // kInteger or kString
};

/// Interns a comparison's names: the string value first, then the
/// attribute, the order the registry numbers them in.
Predicate InternComparison(const Comparison& c, SchemaRegistry* schema) {
  const Value value = c.value.kind == TokenKind::kString
                          ? schema->InternValue(c.value.text)
                          : c.value.integer;
  return Predicate(schema->InternAttribute(c.attribute), c.op, value);
}

/// The comparison operator a token stands for; false if it is none.
bool ToRelOp(TokenKind kind, RelOp* op) {
  switch (kind) {
    case TokenKind::kLt:
      *op = RelOp::kLt;
      return true;
    case TokenKind::kLe:
      *op = RelOp::kLe;
      return true;
    case TokenKind::kEq:
      *op = RelOp::kEq;
      return true;
    case TokenKind::kNe:
      *op = RelOp::kNe;
      return true;
    case TokenKind::kGe:
      *op = RelOp::kGe;
      return true;
    case TokenKind::kGt:
      *op = RelOp::kGt;
      return true;
    default:
      return false;
  }
}

/// An event pair whose names were not in the registry when it was parsed:
/// they are interned once the whole text has lexed.
struct UnresolvedPair {
  size_t index;  // into the event's pairs
  Comparison comparison;
  bool attribute_known;
  bool value_known;
};

/// Recursive-descent parser for conditions, pulling tokens from a Lexer.
/// Names are interned only once the input has lexed to its end: the
/// registry is untouched by input that fails to lex, and a lex error
/// anywhere outranks a parse error.
class Parser {
 public:
  Parser(std::string_view text, SchemaRegistry* schema)
      : lexer_(text), schema_(schema), text_size_(text.size()) {
    Advance();
  }

  /// Parses a whole condition into nodes(), returning its root.
  Status ParseCondition(int32_t* root) {
    // The shortest comparison plus separator ("a=1 ") is four bytes: room
    // for every comparison of a short text, and for 64 of a long one.
    const size_t expected = std::min<size_t>((text_size_ + 1) / 4, 64);
    comparisons_.reserve(expected);
    nodes_.reserve(2 * expected);
    VFPS_RETURN_NOT_OK(ParseOr(root));
    return ExpectEnd();
  }

  /// Settles a parse that ended with `parse_status`. A failed parse stops
  /// early, so the rest of the input is lexed first: a lex error there is
  /// what the caller must report, and nothing may be interned. Otherwise
  /// every comparison is interned into `*predicates`, in input order.
  Status FinishCondition(const Status& parse_status,
                         std::vector<Predicate>* predicates) {
    VFPS_RETURN_NOT_OK(parse_status.ok() ? lexer_.status() : lexer_.Finish());
    predicates->reserve(comparisons_.size());
    for (const Comparison& c : comparisons_) {
      predicates->push_back(InternComparison(c, schema_));
    }
    return parse_status;
  }

  const std::vector<ExprNode>& nodes() const { return nodes_; }

 private:
  const Token& Peek() const { return token_; }
  void Advance() { token_ = lexer_.Next(); }

  Status Error(const std::string& what) const {
    return ParseError(Peek().offset, what);
  }

  /// Error if anything but kEnd remains.
  Status ExpectEnd() const {
    if (Peek().kind != TokenKind::kEnd) {
      return Error("unexpected " + std::string(TokenKindToString(Peek().kind)));
    }
    return Status::OK();
  }

  /// Parses one comparison, IDENT op value.
  Status ParseComparison(Comparison* c) {
    if (Peek().kind != TokenKind::kIdentifier) {
      return Error("expected attribute name, got " +
                   std::string(TokenKindToString(Peek().kind)));
    }
    c->attribute = Peek().text;
    Advance();
    if (!ToRelOp(Peek().kind, &c->op)) {
      return Error(std::string("expected comparison operator after '")
                       .append(c->attribute)
                       .append("'"));
    }
    Advance();
    if (Peek().kind == TokenKind::kString) {
      if (c->op != RelOp::kEq && c->op != RelOp::kNe) {
        return Error(kStringOpError);
      }
    } else if (Peek().kind != TokenKind::kInteger) {
      return Error(kValueError);
    }
    c->value = Peek();
    Advance();
    return Status::OK();
  }

  int32_t AddNode(ExprNode::Kind kind, int32_t first_child = -1) {
    ExprNode node{};
    node.kind = kind;
    node.first_child = first_child;
    nodes_.push_back(node);
    return static_cast<int32_t>(nodes_.size() - 1);
  }

  /// Parses `term (op term)*` into `*out`: the lone term itself, or a
  /// `kind` node over all of them.
  template <Status (Parser::*kTerm)(int32_t*)>
  Status ParseNary(TokenKind op, ExprNode::Kind kind, int32_t* out) {
    VFPS_RETURN_NOT_OK((this->*kTerm)(out));
    if (Peek().kind != op) return Status::OK();
    const int32_t first = *out;
    int32_t last = first;
    while (Peek().kind == op) {
      Advance();
      int32_t next;
      VFPS_RETURN_NOT_OK((this->*kTerm)(&next));
      nodes_[last].next_sibling = next;
      last = next;
    }
    *out = AddNode(kind, first);
    return Status::OK();
  }

  Status ParseOr(int32_t* out) {
    return ParseNary<&Parser::ParseAnd>(TokenKind::kOr, ExprNode::Kind::kOr,
                                        out);
  }

  Status ParseAnd(int32_t* out) {
    return ParseNary<&Parser::ParseUnary>(TokenKind::kAnd,
                                          ExprNode::Kind::kAnd, out);
  }

  Status ParseUnary(int32_t* out) {
    if (Peek().kind == TokenKind::kNot) {
      Advance();
      int32_t operand;
      VFPS_RETURN_NOT_OK(ParseUnary(&operand));
      *out = AddNode(ExprNode::Kind::kNot, operand);
      return Status::OK();
    }
    if (Peek().kind == TokenKind::kLParen) {
      Advance();
      VFPS_RETURN_NOT_OK(ParseOr(out));
      if (Peek().kind != TokenKind::kRParen) {
        return Error("expected ')'");
      }
      Advance();
      return Status::OK();
    }
    Comparison c;
    VFPS_RETURN_NOT_OK(ParseComparison(&c));
    comparisons_.push_back(c);
    *out = AddNode(ExprNode::Kind::kComparison);
    nodes_.back().comparison = static_cast<uint32_t>(comparisons_.size() - 1);
    return Status::OK();
  }

  Lexer lexer_;
  Token token_;
  SchemaRegistry* schema_;
  size_t text_size_;
  std::vector<Comparison> comparisons_;
  std::vector<ExprNode> nodes_;
};

/// Parses an event, comma-separated '=' pairs up to the end of input, in
/// one pass over the text:
///
///   event := [ pair { ',' pair } ]    pair := NAME '=' value
///
/// Each token is matched in place by the Lexer's own scanners (lex::), so
/// the tokens are those of the grammar ParseCondition uses. A failure
/// hands the text from the failing token on to a Lexer, which names the
/// token and lexes the rest, and the same rules settle it: a lex error
/// anywhere outranks a parse error and interns nothing; a parse error
/// interns the pairs before it. Names the registry already holds are
/// looked up as they are parsed; the others are interned, in input order,
/// once the whole text has lexed.
class EventParser {
 public:
  EventParser(std::string_view text, SchemaRegistry* schema,
              std::vector<EventPair>* pairs)
      : text_(text), schema_(schema), pairs_(pairs) {}

  Status Parse() {
    // The shortest pair plus separator ("a=1,") is four bytes. A reused
    // event already has the room.
    pairs_->reserve(std::min<size_t>((text_.size() + 1) / 4, 64));
    const char* const end = text_.data() + text_.size();
    const char* p = lex::SkipSpace(text_.data(), end);
    if (p == end) return Status::OK();
    while (true) {
      Comparison c;
      TokenKind kind = TokenKind::kEnd;
      const char* q = lex::ScanWord(p, end, &kind);
      if (q == p || kind != TokenKind::kIdentifier) {
        return Fail(p, "expected attribute name, got ", /*name_token=*/true);
      }
      c.attribute = std::string_view(p, static_cast<size_t>(q - p));
      p = lex::SkipSpace(q, end);
      // '=' is the only operator an event may use, but the others still
      // parse, so the error names them.
      q = lex::ScanPunct(p, end, &kind);
      if (q == nullptr || q == p || !ToRelOp(kind, &c.op)) {
        return Fail(p, std::string("expected comparison operator after '")
                           .append(c.attribute)
                           .append("'"));
      }
      p = lex::SkipSpace(q, end);
      c.value.offset = Offset(p);
      c.value.kind = TokenKind::kInteger;
      q = lex::ScanInteger(p, end, &c.value.integer);
      if (q == p) {
        c.value.kind = TokenKind::kString;
        q = lex::ScanString(p, end, &c.value.text);
      }
      if (q == nullptr || q == p) return Fail(p, kValueError);
      if (c.value.kind == TokenKind::kString && c.op != RelOp::kEq &&
          c.op != RelOp::kNe) {
        return Fail(p, kStringOpError);
      }
      Resolve(c);
      p = lex::SkipSpace(q, end);
      if (c.op != RelOp::kEq) {
        return Fail(p, Status::InvalidArgument(
                           "events use '=' pairs only, got operator " +
                           std::string(RelOpToString(c.op))));
      }
      if (p == end) break;
      q = lex::ScanPunct(p, end, &kind);
      if (q == nullptr || q == p || kind != TokenKind::kComma) {
        return Fail(p, "unexpected ", /*name_token=*/true);
      }
      p = lex::SkipSpace(q, end);
      if (p == end) {
        return Fail(p, Status::InvalidArgument(
                           "trailing ',' without a following pair"));
      }
    }
    InternUnresolved();
    return Status::OK();
  }

 private:
  size_t Offset(const char* p) const {
    return static_cast<size_t>(p - text_.data());
  }

  /// Fails with parse error `what` at the token at `p`, followed by the
  /// token's kind if `name_token`.
  Status Fail(const char* p, std::string what, bool name_token = false) {
    const Token t = Lexer(text_, Offset(p)).Next();
    if (name_token) what += TokenKindToString(t.kind);
    return Fail(p, ParseError(t.offset, what));
  }

  /// Settles a parse that failed with `parse_error` at byte `p`: the rest
  /// of the text is lexed, and a lex error there is the outcome; otherwise
  /// the pairs parsed so far are interned.
  Status Fail(const char* p, Status parse_error) {
    VFPS_RETURN_NOT_OK(Lexer(text_, Offset(p)).Finish());
    InternUnresolved();
    return parse_error;
  }

  /// Appends `c` as a pair, looking its names up in the registry; a name
  /// it does not hold yet leaves the pair to InternUnresolved().
  void Resolve(const Comparison& c) {
    bool value_known = true;
    Value value = c.value.integer;
    if (c.value.kind == TokenKind::kString) {
      value_known = schema_->FindValue(c.value.text, &value);
    }
    const AttributeId attribute =
        schema_->FindAttribute(c.attribute, guess_);
    guess_ = attribute + 1;
    const bool attribute_known = attribute != kInvalidAttributeId;
    if (!value_known || !attribute_known) {
      unresolved_.push_back(
          UnresolvedPair{pairs_->size(), c, attribute_known, value_known});
    }
    pairs_->push_back(EventPair{attribute, value});
  }

  /// Interns the names Resolve() did not find, in input order, so the
  /// registry numbers them as if every name had been interned where it
  /// stood.
  void InternUnresolved() {
    for (const UnresolvedPair& u : unresolved_) {
      const Predicate p = InternComparison(u.comparison, schema_);
      EventPair& pair = (*pairs_)[u.index];
      if (!u.value_known) pair.value = p.value;
      if (!u.attribute_known) pair.attribute = p.attribute;
    }
  }

  std::string_view text_;
  SchemaRegistry* schema_;
  std::vector<EventPair>* pairs_;
  std::vector<UnresolvedPair> unresolved_;
  /// The attribute id the next pair likely names (see FindAttribute).
  AttributeId guess_ = 0;
};

/// The comparison operator of a negated comparison.
RelOp NegateOp(RelOp op) {
  switch (op) {
    case RelOp::kLt:
      return RelOp::kGe;
    case RelOp::kLe:
      return RelOp::kGt;
    case RelOp::kEq:
      return RelOp::kNe;
    case RelOp::kNe:
      return RelOp::kEq;
    case RelOp::kGe:
      return RelOp::kLt;
    case RelOp::kGt:
      return RelOp::kLe;
  }
  return op;
}

Status TooManyDisjuncts(const ParseOptions& options) {
  return Status::ResourceExhausted("condition expands to more than " +
                                   std::to_string(options.max_disjuncts) +
                                   " DNF disjuncts");
}

Status ConjunctionTooLong(const ParseOptions& options) {
  return Status::ResourceExhausted(
      "conjunction longer than " +
      std::to_string(options.max_conjunction_size) + " predicates");
}

/// Expands the tree under `node` to DNF with size guards, appending its
/// disjuncts to `*out`. NOT is pushed down on the way (De Morgan):
/// `negated` says whether an odd number of NOTs wraps the node.
class DnfBuilder {
 public:
  DnfBuilder(const std::vector<ExprNode>& nodes,
             const std::vector<Predicate>& predicates,
             const ParseOptions& options)
      : nodes_(nodes), predicates_(predicates), options_(options) {}

  Status Expand(int32_t node, bool negated,
                std::vector<std::vector<Predicate>>* out) const {
    const ExprNode& n = Strip(&node, &negated);
    if (n.kind == ExprNode::Kind::kComparison) {
      out->push_back({Leaf(n, negated)});
      return Status::OK();
    }
    // Negation swaps the connective.
    if ((n.kind == ExprNode::Kind::kAnd) == negated) {
      for (int32_t c = n.first_child; c >= 0; c = nodes_[c].next_sibling) {
        VFPS_RETURN_NOT_OK(Expand(c, negated, out));
        if (out->size() > options_.max_disjuncts) {
          return TooManyDisjuncts(options_);
        }
      }
      return Status::OK();
    }
    // Cross product of the children's DNFs.
    std::vector<std::vector<Predicate>> acc(1);
    size_t children = 0;
    for (int32_t c = n.first_child; c >= 0; c = nodes_[c].next_sibling) {
      ++children;
    }
    acc[0].reserve(children);
    for (int32_t c = n.first_child; c >= 0; c = nodes_[c].next_sibling) {
      int32_t child = c;
      bool child_negated = negated;
      const ExprNode& cn = Strip(&child, &child_negated);
      if (cn.kind == ExprNode::Kind::kComparison) {
        // A comparison's DNF is the one predicate: extend in place.
        const Predicate p = Leaf(cn, child_negated);
        for (size_t i = 0; i < acc.size(); ++i) {
          acc[i].push_back(p);
          if (acc[i].size() > options_.max_conjunction_size) {
            return ConjunctionTooLong(options_);
          }
          if (i + 1 > options_.max_disjuncts) {
            return TooManyDisjuncts(options_);
          }
        }
        continue;
      }
      std::vector<std::vector<Predicate>> child_dnf;
      VFPS_RETURN_NOT_OK(Expand(child, child_negated, &child_dnf));
      std::vector<std::vector<Predicate>> next;
      next.reserve(acc.size() * child_dnf.size());
      for (const auto& left : acc) {
        for (const auto& right : child_dnf) {
          std::vector<Predicate> merged = left;
          merged.insert(merged.end(), right.begin(), right.end());
          if (merged.size() > options_.max_conjunction_size) {
            return ConjunctionTooLong(options_);
          }
          next.push_back(std::move(merged));
          if (next.size() > options_.max_disjuncts) {
            return TooManyDisjuncts(options_);
          }
        }
      }
      acc = std::move(next);
    }
    if (out->empty()) {
      out->swap(acc);
    } else {
      out->insert(out->end(), std::make_move_iterator(acc.begin()),
                  std::make_move_iterator(acc.end()));
    }
    if (out->size() > options_.max_disjuncts) {
      return TooManyDisjuncts(options_);
    }
    return Status::OK();
  }

 private:
  /// Skips NOT nodes from `*node`, flipping `*negated` for each.
  const ExprNode& Strip(int32_t* node, bool* negated) const {
    while (nodes_[*node].kind == ExprNode::Kind::kNot) {
      *negated = !*negated;
      *node = nodes_[*node].first_child;
    }
    return nodes_[*node];
  }

  Predicate Leaf(const ExprNode& n, bool negated) const {
    Predicate p = predicates_[n.comparison];
    if (negated) p.op = NegateOp(p.op);
    return p;
  }

  const std::vector<ExprNode>& nodes_;
  const std::vector<Predicate>& predicates_;
  const ParseOptions& options_;
};

}  // namespace

Result<ParsedCondition> ParseCondition(std::string_view text,
                                       SchemaRegistry* schema,
                                       const ParseOptions& options) {
  Parser parser(text, schema);
  int32_t root = -1;
  const Status status = parser.ParseCondition(&root);
  std::vector<Predicate> predicates;
  VFPS_RETURN_NOT_OK(parser.FinishCondition(status, &predicates));
  ParsedCondition condition;
  VFPS_RETURN_NOT_OK(DnfBuilder(parser.nodes(), predicates, options)
                         .Expand(root, /*negated=*/false,
                                 &condition.disjuncts));
  return condition;
}

Status ParseEvent(std::string_view text, SchemaRegistry* schema,
                  Event* event) {
  return event->Rebuild([&](std::vector<EventPair>* pairs) {
    return EventParser(text, schema, pairs).Parse();
  });
}

Result<Event> ParseEvent(std::string_view text, SchemaRegistry* schema) {
  Event event;
  VFPS_RETURN_NOT_OK(ParseEvent(text, schema, &event));
  return event;
}

}  // namespace vfps
