// Copyright 2026 The vfps Authors.
// Tests for subscription normalization: interval reasoning per attribute,
// unsatisfiability detection, and the equivalence property (a normalized
// conjunction matches exactly the same events as the original).

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "src/core/normalize.h"
#include "src/pubsub/broker.h"
#include "src/util/rng.h"

namespace vfps {
namespace {

std::vector<Predicate> Sorted(std::vector<Predicate> v) {
  std::sort(v.begin(), v.end());
  return v;
}

TEST(NormalizeTest, RedundantBoundsCollapse) {
  auto r = NormalizeConjunction({Predicate(0, RelOp::kGt, 3),
                                 Predicate(0, RelOp::kGt, 5),
                                 Predicate(0, RelOp::kGe, 2)});
  ASSERT_FALSE(r.unsatisfiable);
  EXPECT_EQ(r.predicates, (std::vector<Predicate>{{0, RelOp::kGe, 6}}));
}

TEST(NormalizeTest, TightIntervalBecomesEquality) {
  auto r = NormalizeConjunction(
      {Predicate(0, RelOp::kGt, 3), Predicate(0, RelOp::kLt, 5)});
  ASSERT_FALSE(r.unsatisfiable);
  EXPECT_EQ(r.predicates, (std::vector<Predicate>{{0, RelOp::kEq, 4}}));

  auto closed = NormalizeConjunction(
      {Predicate(0, RelOp::kGe, 4), Predicate(0, RelOp::kLe, 4)});
  ASSERT_FALSE(closed.unsatisfiable);
  EXPECT_EQ(closed.predicates, (std::vector<Predicate>{{0, RelOp::kEq, 4}}));
}

TEST(NormalizeTest, EqualityAbsorbsConsistentBounds) {
  auto r = NormalizeConjunction(
      {Predicate(0, RelOp::kEq, 3), Predicate(0, RelOp::kLt, 10),
       Predicate(0, RelOp::kNe, 7)});
  ASSERT_FALSE(r.unsatisfiable);
  EXPECT_EQ(r.predicates, (std::vector<Predicate>{{0, RelOp::kEq, 3}}));
}

TEST(NormalizeTest, UnsatisfiableCases) {
  EXPECT_TRUE(NormalizeConjunction({Predicate(0, RelOp::kLt, 3),
                                    Predicate(0, RelOp::kGt, 5)})
                  .unsatisfiable);
  EXPECT_TRUE(NormalizeConjunction({Predicate(0, RelOp::kEq, 3),
                                    Predicate(0, RelOp::kEq, 4)})
                  .unsatisfiable);
  EXPECT_TRUE(NormalizeConjunction({Predicate(0, RelOp::kEq, 3),
                                    Predicate(0, RelOp::kNe, 3)})
                  .unsatisfiable);
  EXPECT_TRUE(NormalizeConjunction({Predicate(0, RelOp::kEq, 9),
                                    Predicate(0, RelOp::kLt, 5)})
                  .unsatisfiable);
  // a in {4} with 4 excluded.
  EXPECT_TRUE(NormalizeConjunction({Predicate(0, RelOp::kGt, 3),
                                    Predicate(0, RelOp::kLt, 5),
                                    Predicate(0, RelOp::kNe, 4)})
                  .unsatisfiable);
}

TEST(NormalizeTest, ExcludedEdgeTightensBound) {
  // a >= 3 AND a != 3 AND a != 4  ->  a >= 5.
  auto r = NormalizeConjunction(
      {Predicate(0, RelOp::kGe, 3), Predicate(0, RelOp::kNe, 3),
       Predicate(0, RelOp::kNe, 4)});
  ASSERT_FALSE(r.unsatisfiable);
  EXPECT_EQ(r.predicates, (std::vector<Predicate>{{0, RelOp::kGe, 5}}));
}

TEST(NormalizeTest, InteriorExclusionsKept) {
  auto r = NormalizeConjunction(
      {Predicate(0, RelOp::kGe, 1), Predicate(0, RelOp::kLe, 9),
       Predicate(0, RelOp::kNe, 5), Predicate(0, RelOp::kNe, 20)});
  ASSERT_FALSE(r.unsatisfiable);
  // The out-of-range exclusion (20) disappears; the interior one stays.
  EXPECT_EQ(Sorted(r.predicates),
            Sorted({{0, RelOp::kLe, 9},
                    {0, RelOp::kNe, 5},
                    {0, RelOp::kGe, 1}}));
}

TEST(NormalizeTest, MultipleAttributesIndependent) {
  auto r = NormalizeConjunction(
      {Predicate(0, RelOp::kGt, 3), Predicate(1, RelOp::kEq, 7),
       Predicate(0, RelOp::kGt, 4)});
  ASSERT_FALSE(r.unsatisfiable);
  EXPECT_EQ(Sorted(r.predicates),
            Sorted({{0, RelOp::kGe, 5}, {1, RelOp::kEq, 7}}));
}

TEST(NormalizeTest, ExtremeValuesHandled) {
  constexpr Value kMin = std::numeric_limits<Value>::min();
  constexpr Value kMax = std::numeric_limits<Value>::max();
  // Nothing is < min or > max.
  EXPECT_TRUE(
      NormalizeConjunction({Predicate(0, RelOp::kLt, kMin)}).unsatisfiable);
  EXPECT_TRUE(
      NormalizeConjunction({Predicate(0, RelOp::kGt, kMax)}).unsatisfiable);
  // <= max alone is a pure presence test... which this language cannot
  // drop: the predicate is kept.
  auto r = NormalizeConjunction({Predicate(0, RelOp::kLe, kMax)});
  ASSERT_FALSE(r.unsatisfiable);
  EXPECT_EQ(r.predicates.size(), 1u);
}

TEST(NormalizeTest, EmptyConjunction) {
  auto r = NormalizeConjunction({});
  EXPECT_FALSE(r.unsatisfiable);
  EXPECT_TRUE(r.predicates.empty());
}

TEST(NormalizeTest, NormalizeSubscriptionKeepsId) {
  Subscription s = Subscription::Create(
      42, {Predicate(0, RelOp::kGt, 3), Predicate(0, RelOp::kGt, 5)});
  bool unsat = true;
  Subscription n = NormalizeSubscription(s, &unsat);
  EXPECT_FALSE(unsat);
  EXPECT_EQ(n.id(), 42u);
  EXPECT_EQ(n.size(), 1u);
}

// Equivalence property: original and normalized conjunctions match the
// same events; unsatisfiable conjunctions match nothing.
TEST(NormalizeTest, EquivalenceUnderRandomConjunctions) {
  Rng rng(314);
  constexpr Value kDomain = 8;  // small domain provokes tight intervals
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<Predicate> preds;
    const size_t n = 1 + rng.Below(5);
    for (size_t i = 0; i < n; ++i) {
      preds.emplace_back(static_cast<AttributeId>(rng.Below(3)),
                         static_cast<RelOp>(rng.Below(6)),
                         rng.Range(1, kDomain));
    }
    NormalizedConjunction norm = NormalizeConjunction(preds);
    Subscription original = Subscription::Create(1, preds);
    Subscription reduced =
        Subscription::Create(1, norm.predicates);

    for (int e = 0; e < 40; ++e) {
      std::vector<EventPair> pairs;
      for (AttributeId a = 0; a < 3; ++a) {
        if (rng.Chance(0.85)) pairs.push_back({a, rng.Range(0, kDomain + 1)});
      }
      Event event = Event::CreateUnchecked(std::move(pairs));
      const bool want = original.Matches(event);
      if (norm.unsatisfiable) {
        ASSERT_FALSE(want) << original.ToString() << " matched "
                           << event.ToString()
                           << " but was declared unsatisfiable";
      } else {
        ASSERT_EQ(reduced.Matches(event), want)
            << original.ToString() << " vs " << reduced.ToString() << " on "
            << event.ToString();
      }
    }
    // Normalization never grows the predicate set.
    if (!norm.unsatisfiable) {
      ASSERT_LE(reduced.size(), original.size());
    }
  }
}

// Broker integration: unsatisfiable disjuncts are never registered.
TEST(NormalizeTest, BrokerSkipsUnsatisfiableDisjuncts) {
  Broker broker;
  int hits = 0;
  auto sub = broker.SubscribeExpression(
      "(price < 3 AND price > 5) OR price = 7",
      [&](const Notification&) { ++hits; });
  ASSERT_TRUE(sub.ok());
  // Only the satisfiable disjunct is in the matcher.
  EXPECT_EQ(broker.matcher().subscription_count(), 1u);
  ASSERT_TRUE(broker.PublishExpression("price = 7").ok());
  EXPECT_EQ(hits, 1);

  // Fully unsatisfiable subscription: registered, never fires.
  auto dead = broker.SubscribeExpression("x = 1 AND x = 2",
                                         [&](const Notification&) {
                                           ++hits;
                                         });
  ASSERT_TRUE(dead.ok());
  EXPECT_EQ(broker.matcher().subscription_count(), 1u);
  ASSERT_TRUE(broker.PublishExpression("x = 1").ok());
  ASSERT_TRUE(broker.PublishExpression("x = 2").ok());
  EXPECT_EQ(hits, 1);
  // Unsubscribing it is still fine.
  EXPECT_TRUE(broker.Unsubscribe(dead.value()).ok());
}

TEST(NormalizeTest, BrokerNormalizationReducesStoredPredicates) {
  // The broker always normalizes: x > 3 AND x > 5 is stored as x > 5.
  Broker broker;
  auto p1 = broker.Pred("x", ">", 3);
  auto p2 = broker.Pred("x", ">", 5);
  ASSERT_TRUE(broker.Subscribe({p1.value(), p2.value()}, nullptr).ok());
  auto r = broker.PublishExpression("x = 6");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().matches, 1u);
}

}  // namespace
}  // namespace vfps
