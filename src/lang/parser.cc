// Copyright 2026 The vfps Authors.

#include "src/lang/parser.h"

#include <algorithm>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/lang/lexer.h"
#include "src/util/macros.h"

namespace vfps {

namespace {

/// Boolean expression tree over comparisons. Internal to the parser; the
/// public result is the flattened DNF.
struct ExprNode {
  enum class Kind { kComparison, kAnd, kOr, kNot };
  Kind kind;
  size_t comparison = 0;  // kComparison only: index into the predicates
  std::vector<std::unique_ptr<ExprNode>> children;
};

using NodePtr = std::unique_ptr<ExprNode>;

NodePtr MakeComparison(size_t comparison) {
  auto node = std::make_unique<ExprNode>();
  node->kind = ExprNode::Kind::kComparison;
  node->comparison = comparison;
  return node;
}

NodePtr MakeNary(ExprNode::Kind kind, std::vector<NodePtr> children) {
  if (children.size() == 1) return std::move(children[0]);
  auto node = std::make_unique<ExprNode>();
  node->kind = kind;
  node->children = std::move(children);
  return node;
}

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

/// One parsed comparison, still in the input's words.
struct Comparison {
  std::string_view attribute;
  RelOp op;
  Token value;  // kInteger or kString
};

/// Recursive-descent parser pulling tokens from a Lexer. Comparisons are
/// kept as views into the input and interned only by Intern(), once the
/// input has lexed to its end: the registry is untouched by input that
/// fails to lex, and a lex error anywhere outranks a parse error.
class Parser {
 public:
  Parser(std::string_view text, SchemaRegistry* schema)
      : lexer_(text), schema_(schema) {
    // The shortest comparison plus separator ("a=1 ") is four bytes: room
    // for every comparison of a short text, and for 64 of a long one.
    comparisons_.reserve(std::min<size_t>((text.size() + 1) / 4, 64));
    Advance();
  }

  Result<NodePtr> ParseExpression() { return ParseOr(); }

  /// Error if anything but kEnd remains.
  Status ExpectEnd() const {
    if (Peek().kind != TokenKind::kEnd) {
      return Error("unexpected " + std::string(TokenKindToString(Peek().kind)));
    }
    return Status::OK();
  }

  const Token& Peek() const { return token_; }
  void Advance() { token_ = lexer_.Next(); }

  Status Error(const std::string& what) const {
    return Status::InvalidArgument("parse error at offset " +
                                   std::to_string(Peek().offset) + ": " +
                                   what);
  }

  /// Parses one comparison, IDENT op value, onto comparisons().
  Status ParseComparison() {
    if (Peek().kind != TokenKind::kIdentifier) {
      return Error("expected attribute name, got " +
                   std::string(TokenKindToString(Peek().kind)));
    }
    const std::string_view attribute = Peek().text;
    Advance();
    RelOp op;
    switch (Peek().kind) {
      case TokenKind::kLt:
        op = RelOp::kLt;
        break;
      case TokenKind::kLe:
        op = RelOp::kLe;
        break;
      case TokenKind::kEq:
        op = RelOp::kEq;
        break;
      case TokenKind::kNe:
        op = RelOp::kNe;
        break;
      case TokenKind::kGe:
        op = RelOp::kGe;
        break;
      case TokenKind::kGt:
        op = RelOp::kGt;
        break;
      default:
        return Error(std::string("expected comparison operator after '")
                         .append(attribute)
                         .append("'"));
    }
    Advance();
    if (Peek().kind == TokenKind::kString) {
      if (op != RelOp::kEq && op != RelOp::kNe) {
        return Error(
            "string values support only = and != (interned order is not "
            "lexicographic)");
      }
    } else if (Peek().kind != TokenKind::kInteger) {
      return Error("expected value after operator");
    }
    comparisons_.push_back(Comparison{attribute, op, Peek()});
    Advance();
    return Status::OK();
  }

  /// Parses an event: comma-separated '=' pairs up to the end of input.
  Status ParsePairs() {
    while (Peek().kind != TokenKind::kEnd) {
      VFPS_RETURN_NOT_OK(ParseComparison());
      const RelOp op = comparisons_.back().op;
      if (op != RelOp::kEq) {
        return Status::InvalidArgument(
            "events use '=' pairs only, got operator " +
            std::string(RelOpToString(op)));
      }
      if (Peek().kind != TokenKind::kComma) break;
      Advance();
      if (Peek().kind == TokenKind::kEnd) {
        return Status::InvalidArgument(
            "trailing ',' without a following pair");
      }
    }
    return ExpectEnd();
  }

  /// Settles a parse that ended with `parse_status`. A failed parse stops
  /// early, so the rest of the input is lexed first: a lex error there
  /// is what the caller must report, and nothing may be interned.
  Status LexStatus(const Status& parse_status) {
    if (!parse_status.ok()) {
      while (Peek().kind != TokenKind::kEnd &&
             Peek().kind != TokenKind::kError) {
        Advance();
      }
    }
    return lexer_.status();
  }

  /// The comparisons parsed so far, in input order.
  const std::vector<Comparison>& comparisons() const { return comparisons_; }

  /// Interns a comparison's names: the string value first, then the
  /// attribute, the order the registry numbers them in.
  Predicate Intern(const Comparison& c) {
    const Value value = c.value.kind == TokenKind::kString
                            ? schema_->InternValue(c.value.text)
                            : c.value.integer;
    return Predicate(schema_->InternAttribute(c.attribute), c.op, value);
  }

 private:
  Result<NodePtr> ParseOr() {
    std::vector<NodePtr> terms;
    Result<NodePtr> first = ParseAnd();
    if (!first.ok()) return first;
    terms.push_back(std::move(first).value());
    while (Peek().kind == TokenKind::kOr) {
      Advance();
      Result<NodePtr> next = ParseAnd();
      if (!next.ok()) return next;
      terms.push_back(std::move(next).value());
    }
    return MakeNary(ExprNode::Kind::kOr, std::move(terms));
  }

  Result<NodePtr> ParseAnd() {
    std::vector<NodePtr> terms;
    Result<NodePtr> first = ParseUnary();
    if (!first.ok()) return first;
    terms.push_back(std::move(first).value());
    while (Peek().kind == TokenKind::kAnd) {
      Advance();
      Result<NodePtr> next = ParseUnary();
      if (!next.ok()) return next;
      terms.push_back(std::move(next).value());
    }
    return MakeNary(ExprNode::Kind::kAnd, std::move(terms));
  }

  Result<NodePtr> ParseUnary() {
    if (Peek().kind == TokenKind::kNot) {
      Advance();
      Result<NodePtr> operand = ParseUnary();
      if (!operand.ok()) return operand;
      auto node = std::make_unique<ExprNode>();
      node->kind = ExprNode::Kind::kNot;
      node->children.push_back(std::move(operand).value());
      return NodePtr(std::move(node));
    }
    if (Peek().kind == TokenKind::kLParen) {
      Advance();
      Result<NodePtr> inner = ParseOr();
      if (!inner.ok()) return inner;
      if (Peek().kind != TokenKind::kRParen) {
        return Error("expected ')'");
      }
      Advance();
      return inner;
    }
    VFPS_RETURN_NOT_OK(ParseComparison());
    return MakeComparison(comparisons_.size() - 1);
  }

  Lexer lexer_;
  Token token_;
  std::vector<Comparison> comparisons_;
  SchemaRegistry* schema_;
};

/// Pushes NOT down to the comparisons (negation normal form), negating
/// the operators in `predicates`. `negated` says whether an odd number of
/// NOTs wraps the node.
NodePtr ToNnf(NodePtr node, bool negated, std::vector<Predicate>* predicates) {
  switch (node->kind) {
    case ExprNode::Kind::kComparison:
      if (negated) {
        Predicate& p = (*predicates)[node->comparison];
        p.op = NegateOp(p.op);
      }
      return node;
    case ExprNode::Kind::kNot:
      return ToNnf(std::move(node->children[0]), !negated, predicates);
    case ExprNode::Kind::kAnd:
    case ExprNode::Kind::kOr: {
      // De Morgan: negation swaps the connective.
      const bool is_and = (node->kind == ExprNode::Kind::kAnd);
      node->kind = (is_and != negated) ? ExprNode::Kind::kAnd
                                       : ExprNode::Kind::kOr;
      for (NodePtr& child : node->children) {
        child = ToNnf(std::move(child), negated, predicates);
      }
      return node;
    }
  }
  return node;
}

/// Expands an NNF tree over `predicates` to DNF with size guards.
Status ToDnf(const ExprNode& node, const std::vector<Predicate>& predicates,
             const ParseOptions& options,
             std::vector<std::vector<Predicate>>* out) {
  switch (node.kind) {
    case ExprNode::Kind::kComparison:
      out->push_back({predicates[node.comparison]});
      return Status::OK();
    case ExprNode::Kind::kOr: {
      for (const NodePtr& child : node.children) {
        VFPS_RETURN_NOT_OK(ToDnf(*child, predicates, options, out));
        if (out->size() > options.max_disjuncts) {
          return Status::ResourceExhausted(
              "condition expands to more than " +
              std::to_string(options.max_disjuncts) + " DNF disjuncts");
        }
      }
      return Status::OK();
    }
    case ExprNode::Kind::kAnd: {
      // Cross product of the children's DNFs.
      std::vector<std::vector<Predicate>> acc{{}};
      for (const NodePtr& child : node.children) {
        std::vector<std::vector<Predicate>> child_dnf;
        VFPS_RETURN_NOT_OK(ToDnf(*child, predicates, options, &child_dnf));
        std::vector<std::vector<Predicate>> next;
        next.reserve(acc.size() * child_dnf.size());
        for (const auto& left : acc) {
          for (const auto& right : child_dnf) {
            std::vector<Predicate> merged = left;
            merged.insert(merged.end(), right.begin(), right.end());
            if (merged.size() > options.max_conjunction_size) {
              return Status::ResourceExhausted(
                  "conjunction longer than " +
                  std::to_string(options.max_conjunction_size) +
                  " predicates");
            }
            next.push_back(std::move(merged));
            if (next.size() > options.max_disjuncts) {
              return Status::ResourceExhausted(
                  "condition expands to more than " +
                  std::to_string(options.max_disjuncts) + " DNF disjuncts");
            }
          }
        }
        acc = std::move(next);
      }
      out->insert(out->end(), std::make_move_iterator(acc.begin()),
                  std::make_move_iterator(acc.end()));
      if (out->size() > options.max_disjuncts) {
        return Status::ResourceExhausted(
            "condition expands to more than " +
            std::to_string(options.max_disjuncts) + " DNF disjuncts");
      }
      return Status::OK();
    }
    case ExprNode::Kind::kNot:
      return Status::Internal("NOT survived NNF conversion");
  }
  return Status::Internal("unknown expression node kind");
}

}  // namespace

Result<ParsedCondition> ParseCondition(std::string_view text,
                                       SchemaRegistry* schema,
                                       const ParseOptions& options) {
  Parser parser(text, schema);
  Result<NodePtr> tree = parser.ParseExpression();
  const Status status = tree.ok() ? parser.ExpectEnd() : tree.status();
  VFPS_RETURN_NOT_OK(parser.LexStatus(status));
  std::vector<Predicate> predicates;
  predicates.reserve(parser.comparisons().size());
  for (const Comparison& c : parser.comparisons()) {
    predicates.push_back(parser.Intern(c));
  }
  VFPS_RETURN_NOT_OK(status);

  NodePtr nnf =
      ToNnf(std::move(tree).value(), /*negated=*/false, &predicates);
  ParsedCondition condition;
  VFPS_RETURN_NOT_OK(ToDnf(*nnf, predicates, options, &condition.disjuncts));
  return condition;
}

Result<Event> ParseEvent(std::string_view text, SchemaRegistry* schema) {
  Parser parser(text, schema);
  const Status status = parser.ParsePairs();
  VFPS_RETURN_NOT_OK(parser.LexStatus(status));
  std::vector<EventPair> pairs;
  pairs.reserve(parser.comparisons().size());
  for (const Comparison& c : parser.comparisons()) {
    const Predicate p = parser.Intern(c);
    pairs.push_back(EventPair{p.attribute, p.value});
  }
  VFPS_RETURN_NOT_OK(status);
  return Event::Create(std::move(pairs));
}

}  // namespace vfps
