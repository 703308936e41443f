// Copyright 2026 The vfps Authors.
// Tests for the core data model: predicates, attribute sets, events,
// subscriptions, the predicate table, result vector, and schema registry.

#include <gtest/gtest.h>

#include <vector>

#include "src/core/attribute_set.h"
#include "src/core/event.h"
#include "src/core/predicate.h"
#include "src/core/predicate_table.h"
#include "src/core/result_vector.h"
#include "src/core/schema_registry.h"
#include "src/core/subscription.h"

namespace vfps {
namespace {

// --- Predicate ---------------------------------------------------------------

TEST(PredicateTest, MatchesAllOperators) {
  EXPECT_TRUE(Predicate(0, RelOp::kLt, 10).Matches(9));
  EXPECT_FALSE(Predicate(0, RelOp::kLt, 10).Matches(10));
  EXPECT_TRUE(Predicate(0, RelOp::kLe, 10).Matches(10));
  EXPECT_FALSE(Predicate(0, RelOp::kLe, 10).Matches(11));
  EXPECT_TRUE(Predicate(0, RelOp::kEq, 10).Matches(10));
  EXPECT_FALSE(Predicate(0, RelOp::kEq, 10).Matches(9));
  EXPECT_TRUE(Predicate(0, RelOp::kNe, 10).Matches(9));
  EXPECT_FALSE(Predicate(0, RelOp::kNe, 10).Matches(10));
  EXPECT_TRUE(Predicate(0, RelOp::kGe, 10).Matches(10));
  EXPECT_FALSE(Predicate(0, RelOp::kGe, 10).Matches(9));
  EXPECT_TRUE(Predicate(0, RelOp::kGt, 10).Matches(11));
  EXPECT_FALSE(Predicate(0, RelOp::kGt, 10).Matches(10));
}

TEST(PredicateTest, NegativeValues) {
  EXPECT_TRUE(Predicate(0, RelOp::kLt, -5).Matches(-6));
  EXPECT_TRUE(Predicate(0, RelOp::kGe, -5).Matches(-5));
  EXPECT_FALSE(Predicate(0, RelOp::kGt, -5).Matches(-5));
}

TEST(PredicateTest, EqualityHashOrdering) {
  Predicate a(1, RelOp::kEq, 5), b(1, RelOp::kEq, 5), c(1, RelOp::kEq, 6);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(a.Hash(), b.Hash());
  EXPECT_NE(a.Hash(), c.Hash());
  EXPECT_LT(a, c);
  Predicate d(0, RelOp::kGt, 5);
  EXPECT_LT(d, a);  // attribute dominates
}

TEST(PredicateTest, ToStringShowsOperator) {
  EXPECT_EQ(Predicate(3, RelOp::kLe, 17).ToString(), "a3 <= 17");
  EXPECT_EQ(Predicate(0, RelOp::kNe, 2).ToString(), "a0 != 2");
}

// --- AttributeSet --------------------------------------------------------------

TEST(AttributeSetTest, NormalizesSortedUnique) {
  AttributeSet s({5, 1, 3, 1, 5});
  EXPECT_EQ(s.size(), 3u);
  EXPECT_EQ(s.ids(), (std::vector<AttributeId>{1, 3, 5}));
}

TEST(AttributeSetTest, SubsetRelation) {
  AttributeSet small{1, 3};
  AttributeSet big{1, 2, 3, 4};
  AttributeSet other{1, 5};
  EXPECT_TRUE(small.IsSubsetOf(big));
  EXPECT_FALSE(big.IsSubsetOf(small));
  EXPECT_FALSE(other.IsSubsetOf(big));
  EXPECT_TRUE(AttributeSet{}.IsSubsetOf(big));
  EXPECT_TRUE(big.IsSubsetOf(big));
}

TEST(AttributeSetTest, SubsetWithBloomAliases) {
  // Attributes 64 apart share a bloom bit; the merge walk must still give
  // the right answer.
  AttributeSet a{0};
  AttributeSet b{64};
  EXPECT_FALSE(a.IsSubsetOf(b));
  EXPECT_FALSE(b.IsSubsetOf(a));
  AttributeSet both{0, 64};
  EXPECT_TRUE(a.IsSubsetOf(both));
  EXPECT_TRUE(b.IsSubsetOf(both));
}

TEST(AttributeSetTest, InsertKeepsOrder) {
  AttributeSet s;
  EXPECT_TRUE(s.Insert(5));
  EXPECT_TRUE(s.Insert(1));
  EXPECT_FALSE(s.Insert(5));
  EXPECT_EQ(s.ids(), (std::vector<AttributeId>{1, 5}));
  EXPECT_TRUE(s.Contains(1));
  EXPECT_FALSE(s.Contains(2));
}

TEST(AttributeSetTest, UnionHashEquality) {
  AttributeSet a{1, 2};
  AttributeSet b{2, 3};
  EXPECT_EQ(a.Union(b), (AttributeSet{1, 2, 3}));
  EXPECT_EQ((AttributeSet{2, 1}).Hash(), a.Hash());
  EXPECT_NE(a.Hash(), b.Hash());
  EXPECT_EQ(a.ToString(), "{1,2}");
}

// --- Event ------------------------------------------------------------------------

TEST(EventTest, CreateSortsPairsByAttribute) {
  auto r = Event::Create({{7, 70}, {2, 20}, {5, 50}});
  ASSERT_TRUE(r.ok());
  const Event& e = r.value();
  EXPECT_EQ(e.size(), 3u);
  EXPECT_EQ(e.pairs(), (std::vector<EventPair>{{2, 20}, {5, 50}, {7, 70}}));
}

TEST(EventTest, CreateRejectsDuplicateAttribute) {
  auto r = Event::Create({{1, 10}, {1, 11}});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

// CreateUnchecked aborts on a duplicate attribute in every build type,
// release included: it never builds an event with two pairs for one
// attribute.
TEST(EventDeathTest, CreateUncheckedAbortsOnDuplicateAttribute) {
  EXPECT_DEATH(Event::CreateUnchecked({{4, 1}, {2, 5}, {4, 2}}),
               "VFPS_CHECK failed");
}

TEST(EventTest, FindReturnsValueOrNullopt) {
  Event e = Event::CreateUnchecked({{3, 30}, {9, 90}});
  EXPECT_EQ(e.Find(3), 30);
  EXPECT_EQ(e.Find(9), 90);
  EXPECT_FALSE(e.Find(4).has_value());
}

TEST(EventTest, EmptyEvent) {
  Event e;
  EXPECT_TRUE(e.empty());
  EXPECT_FALSE(e.Find(0).has_value());
  EXPECT_EQ(e.ToString(), "()");
}

// --- Subscription --------------------------------------------------------------------

TEST(SubscriptionTest, CanonicalizesAndDeduplicates) {
  Subscription s = Subscription::Create(
      1, {Predicate(5, RelOp::kGt, 2), Predicate(1, RelOp::kEq, 3),
          Predicate(1, RelOp::kEq, 3)});
  EXPECT_EQ(s.size(), 2u);
  EXPECT_EQ(s.predicates()[0].attribute, 1u);
  EXPECT_EQ(s.id(), 1u);
}

TEST(SubscriptionTest, EqualityViews) {
  Subscription s = Subscription::Create(
      2, {Predicate(1, RelOp::kEq, 3), Predicate(2, RelOp::kLt, 9),
          Predicate(4, RelOp::kEq, 7)});
  EXPECT_EQ(s.equality_attributes(), (AttributeSet{1, 4}));
  EXPECT_EQ(s.attributes(), (AttributeSet{1, 2, 4}));
  EXPECT_EQ(s.equality_predicates().size(), 2u);
  EXPECT_EQ(s.EqualityValue(1), 3);
  EXPECT_EQ(s.EqualityValue(4), 7);
}

TEST(SubscriptionTest, MatchesPaperExample) {
  // Section 1.1: (movie=groundhog day) AND (price <= 10) AND (price > 5)
  // satisfied by (movie=groundhog day, price=8, theater=odeon).
  constexpr AttributeId kMovie = 0, kPrice = 1, kTheater = 2;
  constexpr Value kGroundhogDay = 100, kOdeon = 200;
  Subscription s = Subscription::Create(
      7, {Predicate(kMovie, RelOp::kEq, kGroundhogDay),
          Predicate(kPrice, RelOp::kLe, 10), Predicate(kPrice, RelOp::kGt, 5)});
  Event yes = Event::CreateUnchecked(
      {{kMovie, kGroundhogDay}, {kPrice, 8}, {kTheater, kOdeon}});
  Event too_expensive = Event::CreateUnchecked(
      {{kMovie, kGroundhogDay}, {kPrice, 12}, {kTheater, kOdeon}});
  Event wrong_movie =
      Event::CreateUnchecked({{kMovie, 999}, {kPrice, 8}});
  Event missing_price = Event::CreateUnchecked({{kMovie, kGroundhogDay}});
  EXPECT_TRUE(s.Matches(yes));
  EXPECT_FALSE(s.Matches(too_expensive));
  EXPECT_FALSE(s.Matches(wrong_movie));
  EXPECT_FALSE(s.Matches(missing_price));
}

TEST(SubscriptionTest, MissingAttributeNeverMatches) {
  Subscription s = Subscription::Create(1, {Predicate(5, RelOp::kNe, 3)});
  // != requires the attribute to be present too.
  EXPECT_FALSE(s.Matches(Event::CreateUnchecked({{4, 3}})));
  EXPECT_TRUE(s.Matches(Event::CreateUnchecked({{5, 4}})));
}

TEST(SubscriptionTest, EmptySubscriptionMatchesEverything) {
  Subscription s = Subscription::Create(9, {});
  EXPECT_TRUE(s.Matches(Event()));
  EXPECT_TRUE(s.Matches(Event::CreateUnchecked({{1, 1}})));
  EXPECT_TRUE(s.equality_attributes().empty());
}

TEST(SubscriptionTest, ContradictoryEqualitiesNeverMatch) {
  Subscription s = Subscription::Create(
      3, {Predicate(1, RelOp::kEq, 5), Predicate(1, RelOp::kEq, 6)});
  EXPECT_EQ(s.size(), 2u);
  EXPECT_FALSE(s.Matches(Event::CreateUnchecked({{1, 5}})));
  EXPECT_FALSE(s.Matches(Event::CreateUnchecked({{1, 6}})));
  // EqualityValue returns the first in canonical order.
  EXPECT_EQ(s.EqualityValue(1), 5);
}

// --- PredicateTable ---------------------------------------------------------------------

TEST(PredicateTableTest, InterningDeduplicates) {
  PredicateTable table;
  Predicate p(1, RelOp::kEq, 5);
  auto r1 = table.Intern(p);
  auto r2 = table.Intern(p);
  EXPECT_TRUE(r1.inserted);
  EXPECT_FALSE(r2.inserted);
  EXPECT_EQ(r1.id, r2.id);
  EXPECT_EQ(table.RefCount(r1.id), 2u);
  EXPECT_EQ(table.live_count(), 1u);
  EXPECT_EQ(table.Get(r1.id), p);
}

TEST(PredicateTableTest, ReleaseAndRecycle) {
  PredicateTable table;
  auto a = table.Intern(Predicate(1, RelOp::kEq, 5));
  auto b = table.Intern(Predicate(2, RelOp::kLt, 9));
  EXPECT_FALSE(table.Release(a.id) && false);  // refcount 1 -> dead
  // First release of a: one reference, so it dies.
  // (Release returns true exactly when the predicate died.)
  PredicateTable t2;
  auto x = t2.Intern(Predicate(1, RelOp::kEq, 5));
  t2.Intern(Predicate(1, RelOp::kEq, 5));
  EXPECT_FALSE(t2.Release(x.id));  // still one reference
  EXPECT_TRUE(t2.Release(x.id));   // now dead
  EXPECT_EQ(t2.live_count(), 0u);
  // The slot must be recycled.
  auto y = t2.Intern(Predicate(3, RelOp::kGt, 1));
  EXPECT_EQ(y.id, x.id);
  EXPECT_TRUE(y.inserted);
  (void)b;
}

TEST(PredicateTableTest, LookupFindsLiveOnly) {
  PredicateTable table;
  Predicate p(1, RelOp::kNe, 4);
  EXPECT_EQ(table.Lookup(p), kInvalidPredicateId);
  auto r = table.Intern(p);
  EXPECT_EQ(table.Lookup(p), r.id);
  table.Release(r.id);
  EXPECT_EQ(table.Lookup(p), kInvalidPredicateId);
}

TEST(PredicateTableTest, CapacityIsHighWaterMark) {
  PredicateTable table;
  auto a = table.Intern(Predicate(1, RelOp::kEq, 1));
  auto b = table.Intern(Predicate(1, RelOp::kEq, 2));
  EXPECT_EQ(table.capacity(), 2u);
  table.Release(a.id);
  table.Release(b.id);
  EXPECT_EQ(table.capacity(), 2u);  // capacity never shrinks
}

// --- ResultVector ------------------------------------------------------------------------

TEST(ResultVectorTest, SetTestReset) {
  ResultVector rv;
  rv.EnsureCapacity(10);
  EXPECT_FALSE(rv.Test(3));
  rv.Set(3);
  rv.Set(7);
  rv.Set(3);  // idempotent
  EXPECT_TRUE(rv.Test(3));
  EXPECT_TRUE(rv.Test(7));
  EXPECT_EQ(rv.set_count(), 2u);
  EXPECT_EQ(rv.data()[3], 1);
  EXPECT_EQ(rv.data()[4], 0);
  rv.Reset();
  EXPECT_FALSE(rv.Test(3));
  EXPECT_FALSE(rv.Test(7));
  EXPECT_EQ(rv.set_count(), 0u);
}

TEST(ResultVectorTest, GrowthPreservesValues) {
  ResultVector rv;
  rv.EnsureCapacity(4);
  rv.Set(2);
  rv.EnsureCapacity(100);
  EXPECT_TRUE(rv.Test(2));
  EXPECT_FALSE(rv.Test(99));
  EXPECT_EQ(rv.capacity(), 100u);
}

// --- SchemaRegistry ------------------------------------------------------------------------

TEST(SchemaRegistryTest, AttributeRoundTrip) {
  SchemaRegistry reg;
  AttributeId price = reg.InternAttribute("price");
  AttributeId movie = reg.InternAttribute("movie");
  EXPECT_NE(price, movie);
  EXPECT_EQ(reg.InternAttribute("price"), price);
  EXPECT_EQ(reg.AttributeName(price), "price");
  EXPECT_EQ(reg.FindAttribute("movie"), movie);
  EXPECT_EQ(reg.FindAttribute("nope"), kInvalidAttributeId);
  EXPECT_EQ(reg.attribute_count(), 2u);
}

TEST(SchemaRegistryTest, ValueInterning) {
  SchemaRegistry reg;
  Value v1 = reg.InternValue("groundhog day");
  Value v2 = reg.InternValue("odeon");
  EXPECT_NE(v1, v2);
  EXPECT_EQ(reg.InternValue("groundhog day"), v1);
  auto found = reg.FindValue("odeon");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(found.value(), v2);
  EXPECT_FALSE(reg.FindValue("never seen").ok());
  EXPECT_EQ(reg.ValueText(v1), "groundhog day");
  EXPECT_EQ(reg.ValueText(123456), "");
}

}  // namespace
}  // namespace vfps
