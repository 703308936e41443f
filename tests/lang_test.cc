// Copyright 2026 The vfps Authors.
// Tests for the subscription expression language: lexer, parser, NOT
// pushdown, DNF expansion with limits, event parsing, and a differential
// property test (parsed DNF vs direct boolean evaluation on random events).

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "src/lang/lexer.h"
#include "src/lang/parser.h"
#include "src/util/rng.h"

namespace vfps {
namespace {

// --- Lexer --------------------------------------------------------------------

TEST(LexerTest, TokenizesAllKinds) {
  auto r = Lex("price <= 400 AND (from = 'NYC' || to != \"LAX\") , not <>");
  ASSERT_TRUE(r.ok());
  const std::vector<Token>& t = r.value();
  std::vector<TokenKind> kinds;
  for (const Token& token : t) kinds.push_back(token.kind);
  EXPECT_EQ(kinds, (std::vector<TokenKind>{
                       TokenKind::kIdentifier, TokenKind::kLe,
                       TokenKind::kInteger, TokenKind::kAnd,
                       TokenKind::kLParen, TokenKind::kIdentifier,
                       TokenKind::kEq, TokenKind::kString, TokenKind::kOr,
                       TokenKind::kIdentifier, TokenKind::kNe,
                       TokenKind::kString, TokenKind::kRParen,
                       TokenKind::kComma, TokenKind::kNot, TokenKind::kNe,
                       TokenKind::kEnd}));
  EXPECT_EQ(t[0].text, "price");
  EXPECT_EQ(t[2].integer, 400);
  EXPECT_EQ(t[7].text, "NYC");
}

TEST(LexerTest, NegativeNumbersAndOperators) {
  auto r = Lex("x = -42 && y >= 7 ! z == 3");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value()[2].integer, -42);
  EXPECT_EQ(r.value()[3].kind, TokenKind::kAnd);
  EXPECT_EQ(r.value()[7].kind, TokenKind::kNot);
  EXPECT_EQ(r.value()[9].kind, TokenKind::kEq);
}

TEST(LexerTest, Errors) {
  EXPECT_FALSE(Lex("x = 'unterminated").ok());
  EXPECT_FALSE(Lex("x # 3").ok());
  EXPECT_FALSE(Lex("x & y").ok());
  EXPECT_FALSE(Lex("x = 99999999999999999999999").ok());
}

TEST(LexerTest, KeywordsCaseInsensitive) {
  auto r = Lex("a = 1 and b = 2 Or NOT c = 3");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value()[3].kind, TokenKind::kAnd);
  EXPECT_EQ(r.value()[7].kind, TokenKind::kOr);
  EXPECT_EQ(r.value()[8].kind, TokenKind::kNot);
}

// --- ParseCondition -------------------------------------------------------------

TEST(ParseConditionTest, SimpleConjunction) {
  SchemaRegistry schema;
  auto r = ParseCondition("price <= 400 AND from = 'NYC'", &schema);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.value().disjuncts.size(), 1u);
  const auto& conj = r.value().disjuncts[0];
  ASSERT_EQ(conj.size(), 2u);
  EXPECT_EQ(conj[0].attribute, schema.FindAttribute("price"));
  EXPECT_EQ(conj[0].op, RelOp::kLe);
  EXPECT_EQ(conj[0].value, 400);
  EXPECT_EQ(conj[1].op, RelOp::kEq);
  EXPECT_EQ(conj[1].value, schema.FindValue("NYC").value());
}

TEST(ParseConditionTest, DisjunctionDistributes) {
  SchemaRegistry schema;
  // (a OR b) AND (c OR d) -> 4 disjuncts.
  auto r = ParseCondition("(a = 1 OR a = 2) AND (b = 3 OR b = 4)", &schema);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().disjuncts.size(), 4u);
  for (const auto& conj : r.value().disjuncts) {
    EXPECT_EQ(conj.size(), 2u);
  }
}

TEST(ParseConditionTest, NotPushdown) {
  SchemaRegistry schema;
  // NOT (a < 5 OR b >= 3) == a >= 5 AND b < 3.
  auto r = ParseCondition("NOT (a < 5 OR b >= 3)", &schema);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.value().disjuncts.size(), 1u);
  const auto& conj = r.value().disjuncts[0];
  ASSERT_EQ(conj.size(), 2u);
  EXPECT_EQ(conj[0].op, RelOp::kGe);
  EXPECT_EQ(conj[0].value, 5);
  EXPECT_EQ(conj[1].op, RelOp::kLt);
  EXPECT_EQ(conj[1].value, 3);
}

TEST(ParseConditionTest, DoubleNegation) {
  SchemaRegistry schema;
  auto r = ParseCondition("NOT NOT a = 1", &schema);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.value().disjuncts.size(), 1u);
  EXPECT_EQ(r.value().disjuncts[0][0].op, RelOp::kEq);
}

TEST(ParseConditionTest, NotOverAndBecomesOr) {
  SchemaRegistry schema;
  auto r = ParseCondition("NOT (a = 1 AND b = 2)", &schema);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().disjuncts.size(), 2u);  // a != 1 OR b != 2
  EXPECT_EQ(r.value().disjuncts[0][0].op, RelOp::kNe);
}

TEST(ParseConditionTest, PrecedenceAndBindsTighter) {
  SchemaRegistry schema;
  // a OR b AND c == a OR (b AND c): 2 disjuncts.
  auto r = ParseCondition("a = 1 OR b = 2 AND c = 3", &schema);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.value().disjuncts.size(), 2u);
  EXPECT_EQ(r.value().disjuncts[0].size(), 1u);
  EXPECT_EQ(r.value().disjuncts[1].size(), 2u);
}

TEST(ParseConditionTest, DnfLimitEnforced) {
  SchemaRegistry schema;
  // 2^8 = 256 disjuncts > default limit 64.
  std::string text;
  for (int i = 0; i < 8; ++i) {
    if (i > 0) text += " AND ";
    text += "(a" + std::to_string(i) + " = 1 OR a" + std::to_string(i) +
            " = 2)";
  }
  auto r = ParseCondition(text, &schema);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
}

TEST(ParseConditionTest, SyntaxErrors) {
  SchemaRegistry schema;
  EXPECT_FALSE(ParseCondition("", &schema).ok());
  EXPECT_FALSE(ParseCondition("price <=", &schema).ok());
  EXPECT_FALSE(ParseCondition("price 400", &schema).ok());
  EXPECT_FALSE(ParseCondition("(a = 1", &schema).ok());
  EXPECT_FALSE(ParseCondition("a = 1 b = 2", &schema).ok());
  EXPECT_FALSE(ParseCondition("a = 1 AND", &schema).ok());
  EXPECT_FALSE(ParseCondition("= 4", &schema).ok());
  // Ordered comparison on a string value is rejected.
  EXPECT_FALSE(ParseCondition("name < 'abc'", &schema).ok());
}

TEST(ParseConditionTest, StringNegationSurvivesNot) {
  SchemaRegistry schema;
  // NOT name = 'x' becomes name != 'x' (legal for strings).
  auto r = ParseCondition("NOT name = 'x'", &schema);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().disjuncts[0][0].op, RelOp::kNe);
}

// --- ParseEvent ------------------------------------------------------------------

TEST(ParseEventTest, ParsesPairs) {
  SchemaRegistry schema;
  auto r = ParseEvent("movie = 'groundhog day', price = 8", &schema);
  ASSERT_TRUE(r.ok());
  const Event& e = r.value();
  EXPECT_EQ(e.size(), 2u);
  EXPECT_EQ(e.Find(schema.FindAttribute("price")), 8);
  EXPECT_EQ(e.Find(schema.FindAttribute("movie")),
            schema.FindValue("groundhog day").value());
}

TEST(ParseEventTest, EmptyEventIsLegal) {
  SchemaRegistry schema;
  auto r = ParseEvent("", &schema);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().empty());
}

TEST(ParseEventTest, RejectsNonEqualityAndDuplicates) {
  SchemaRegistry schema;
  EXPECT_FALSE(ParseEvent("price < 8", &schema).ok());
  EXPECT_FALSE(ParseEvent("a = 1, a = 2", &schema).ok());
  EXPECT_FALSE(ParseEvent("a = 1 b = 2", &schema).ok());
  EXPECT_FALSE(ParseEvent("a = 1,", &schema).ok());
}

// --- Differential property test -------------------------------------------------
//
// Random expressions are generated alongside a direct evaluator; the parsed
// DNF evaluated disjunct-by-disjunct must agree with the direct evaluation
// on random events.

struct RandomExpr {
  std::string text;
  // Direct evaluator over the generated tree, by construction.
  std::function<bool(const Event&)> eval;
};

RandomExpr GenExpr(Rng* rng, int depth, SchemaRegistry* schema) {
  if (depth == 0 || rng->Chance(0.4)) {
    AttributeId attr = static_cast<AttributeId>(rng->Below(4));
    RelOp op = static_cast<RelOp>(rng->Below(6));
    Value v = rng->Range(1, 6);
    const std::string name = std::string("a").append(std::to_string(attr));
    Predicate p(schema->InternAttribute(name), op, v);
    std::string text = name;
    text.append(" ").append(RelOpToString(p.op)).append(" ");
    text.append(std::to_string(v));
    return RandomExpr{text, [p](const Event& e) {
                        auto val = e.Find(p.attribute);
                        return val.has_value() && p.Matches(*val);
                      }};
  }
  switch (rng->Below(3)) {
    case 0: {
      RandomExpr l = GenExpr(rng, depth - 1, schema);
      RandomExpr r = GenExpr(rng, depth - 1, schema);
      return RandomExpr{"(" + l.text + " AND " + r.text + ")",
                        [le = l.eval, re = r.eval](const Event& e) {
                          return le(e) && re(e);
                        }};
    }
    case 1: {
      RandomExpr l = GenExpr(rng, depth - 1, schema);
      RandomExpr r = GenExpr(rng, depth - 1, schema);
      return RandomExpr{"(" + l.text + " OR " + r.text + ")",
                        [le = l.eval, re = r.eval](const Event& e) {
                          return le(e) || re(e);
                        }};
    }
    default: {
      RandomExpr inner = GenExpr(rng, depth - 1, schema);
      // NOTE: NOT in this language is boolean negation over the comparison
      // results; a missing attribute makes a comparison false, so NOT of it
      // is true in direct evaluation. DNF pushdown instead negates the
      // operator, which still requires the attribute to be present. To keep
      // the differential test exact, events below always carry all
      // attributes.
      return RandomExpr{"NOT " + inner.text,
                        [ie = inner.eval](const Event& e) { return !ie(e); }};
    }
  }
}

TEST(ParseConditionTest, DifferentialAgainstDirectEvaluation) {
  Rng rng(2024);
  for (int trial = 0; trial < 200; ++trial) {
    SchemaRegistry schema;
    RandomExpr expr = GenExpr(&rng, 3, &schema);
    ParseOptions options;
    options.max_disjuncts = 4096;
    options.max_conjunction_size = 256;
    auto parsed = ParseCondition(expr.text, &schema, options);
    ASSERT_TRUE(parsed.ok()) << expr.text << ": "
                             << parsed.status().ToString();
    for (int e = 0; e < 20; ++e) {
      // Full-schema events (see the NOT note above).
      std::vector<EventPair> pairs;
      for (AttributeId a = 0; a < 4; ++a) {
        AttributeId id =
            schema.FindAttribute(std::string("a").append(std::to_string(a)));
        if (id == kInvalidAttributeId) continue;
        pairs.push_back({id, rng.Range(1, 6)});
      }
      Event event = Event::CreateUnchecked(std::move(pairs));
      bool direct = expr.eval(event);
      bool dnf = false;
      for (const auto& conj : parsed.value().disjuncts) {
        bool all = true;
        for (const Predicate& p : conj) {
          auto v = event.Find(p.attribute);
          all = all && v.has_value() && p.Matches(*v);
        }
        dnf = dnf || all;
      }
      ASSERT_EQ(dnf, direct) << expr.text << " on " << event.ToString();
    }
  }
}

}  // namespace
}  // namespace vfps
