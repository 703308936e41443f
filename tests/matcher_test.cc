// Copyright 2026 The vfps Authors.
// Per-algorithm unit tests: every matcher gets the same behavioral suite
// via a typed/parameterized fixture (add, remove, match semantics, stats,
// memory), plus algorithm-specific structural tests.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "src/matcher/counting_matcher.h"
#include "src/matcher/dynamic_matcher.h"
#include "src/matcher/naive_matcher.h"
#include "src/matcher/propagation_matcher.h"
#include "src/matcher/static_matcher.h"
#include "src/pubsub/broker.h"
#include "src/util/rng.h"

namespace vfps {
namespace {

std::vector<SubscriptionId> Sorted(std::vector<SubscriptionId> v) {
  std::sort(v.begin(), v.end());
  return v;
}

// Parameterized over every algorithm via the Broker factory.
class AnyMatcherTest : public ::testing::TestWithParam<Algorithm> {
 protected:
  void SetUp() override { matcher_ = MakeMatcher(GetParam()); }

  std::vector<SubscriptionId> Match(const Event& e) {
    std::vector<SubscriptionId> out;
    matcher_->Match(e, &out);
    return Sorted(std::move(out));
  }

  std::unique_ptr<Matcher> matcher_;
};

TEST_P(AnyMatcherTest, EmptyMatcherMatchesNothing) {
  EXPECT_TRUE(Match(Event::CreateUnchecked({{0, 1}})).empty());
  EXPECT_EQ(matcher_->subscription_count(), 0u);
}

TEST_P(AnyMatcherTest, BasicConjunctionSemantics) {
  ASSERT_TRUE(matcher_
                  ->AddSubscription(Subscription::Create(
                      1, {Predicate(0, RelOp::kEq, 5),
                          Predicate(1, RelOp::kLe, 10)}))
                  .ok());
  ASSERT_TRUE(matcher_
                  ->AddSubscription(Subscription::Create(
                      2, {Predicate(0, RelOp::kEq, 5)}))
                  .ok());
  EXPECT_EQ(Match(Event::CreateUnchecked({{0, 5}, {1, 8}})),
            (std::vector<SubscriptionId>{1, 2}));
  EXPECT_EQ(Match(Event::CreateUnchecked({{0, 5}, {1, 20}})),
            (std::vector<SubscriptionId>{2}));
  EXPECT_EQ(Match(Event::CreateUnchecked({{0, 5}})),
            (std::vector<SubscriptionId>{2}));
  EXPECT_TRUE(Match(Event::CreateUnchecked({{0, 6}, {1, 8}})).empty());
  EXPECT_TRUE(Match(Event::CreateUnchecked({{1, 8}})).empty());
}

TEST_P(AnyMatcherTest, DuplicateIdRejected) {
  Subscription s = Subscription::Create(7, {Predicate(0, RelOp::kEq, 1)});
  ASSERT_TRUE(matcher_->AddSubscription(s).ok());
  Status dup = matcher_->AddSubscription(s);
  EXPECT_EQ(dup.code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(matcher_->subscription_count(), 1u);
}

TEST_P(AnyMatcherTest, RemoveUnknownFails) {
  EXPECT_EQ(matcher_->RemoveSubscription(99).code(), StatusCode::kNotFound);
}

TEST_P(AnyMatcherTest, RemoveStopsMatching) {
  ASSERT_TRUE(matcher_
                  ->AddSubscription(Subscription::Create(
                      1, {Predicate(0, RelOp::kEq, 5)}))
                  .ok());
  ASSERT_TRUE(matcher_
                  ->AddSubscription(Subscription::Create(
                      2, {Predicate(0, RelOp::kEq, 5)}))
                  .ok());
  ASSERT_TRUE(matcher_->RemoveSubscription(1).ok());
  EXPECT_EQ(Match(Event::CreateUnchecked({{0, 5}})),
            (std::vector<SubscriptionId>{2}));
  ASSERT_TRUE(matcher_->RemoveSubscription(2).ok());
  EXPECT_TRUE(Match(Event::CreateUnchecked({{0, 5}})).empty());
  EXPECT_EQ(matcher_->subscription_count(), 0u);
  EXPECT_EQ(matcher_->RemoveSubscription(2).code(), StatusCode::kNotFound);
}

TEST_P(AnyMatcherTest, ReAddAfterRemove) {
  Subscription s = Subscription::Create(1, {Predicate(0, RelOp::kEq, 5)});
  ASSERT_TRUE(matcher_->AddSubscription(s).ok());
  ASSERT_TRUE(matcher_->RemoveSubscription(1).ok());
  ASSERT_TRUE(matcher_->AddSubscription(s).ok());
  EXPECT_EQ(Match(Event::CreateUnchecked({{0, 5}})),
            (std::vector<SubscriptionId>{1}));
}

TEST_P(AnyMatcherTest, SharedPredicatesAcrossSubscriptions) {
  // Many subscriptions sharing predicates; removing one must not disturb
  // the others (predicate refcounting).
  for (SubscriptionId id = 1; id <= 10; ++id) {
    ASSERT_TRUE(matcher_
                    ->AddSubscription(Subscription::Create(
                        id, {Predicate(0, RelOp::kEq, 5),
                             Predicate(1, RelOp::kGt, 3)}))
                    .ok());
  }
  ASSERT_TRUE(matcher_->RemoveSubscription(5).ok());
  auto matches = Match(Event::CreateUnchecked({{0, 5}, {1, 4}}));
  EXPECT_EQ(matches.size(), 9u);
  EXPECT_EQ(std::count(matches.begin(), matches.end(), 5), 0);
}

TEST_P(AnyMatcherTest, InequalityOnlySubscription) {
  // No equality predicate at all: exercises the fallback path of the
  // clustered matchers.
  ASSERT_TRUE(matcher_
                  ->AddSubscription(Subscription::Create(
                      1, {Predicate(0, RelOp::kGe, 10),
                          Predicate(0, RelOp::kLt, 20)}))
                  .ok());
  EXPECT_EQ(Match(Event::CreateUnchecked({{0, 15}})),
            (std::vector<SubscriptionId>{1}));
  EXPECT_TRUE(Match(Event::CreateUnchecked({{0, 20}})).empty());
  EXPECT_TRUE(Match(Event::CreateUnchecked({{0, 9}})).empty());
}

TEST_P(AnyMatcherTest, EmptySubscriptionMatchesEveryEvent) {
  ASSERT_TRUE(
      matcher_->AddSubscription(Subscription::Create(1, {})).ok());
  EXPECT_EQ(Match(Event::CreateUnchecked({{0, 1}})),
            (std::vector<SubscriptionId>{1}));
  EXPECT_EQ(Match(Event()), (std::vector<SubscriptionId>{1}));
  ASSERT_TRUE(matcher_->RemoveSubscription(1).ok());
  EXPECT_TRUE(Match(Event()).empty());
}

TEST_P(AnyMatcherTest, NotEqualSemantics) {
  ASSERT_TRUE(matcher_
                  ->AddSubscription(Subscription::Create(
                      1, {Predicate(0, RelOp::kNe, 5)}))
                  .ok());
  EXPECT_EQ(Match(Event::CreateUnchecked({{0, 4}})),
            (std::vector<SubscriptionId>{1}));
  EXPECT_TRUE(Match(Event::CreateUnchecked({{0, 5}})).empty());
  // Attribute absent: != is NOT satisfied.
  EXPECT_TRUE(Match(Event::CreateUnchecked({{1, 4}})).empty());
}

TEST_P(AnyMatcherTest, MultiplePredicatesSameAttribute) {
  // Range conjunction plus equality elsewhere.
  ASSERT_TRUE(matcher_
                  ->AddSubscription(Subscription::Create(
                      1, {Predicate(0, RelOp::kGt, 5),
                          Predicate(0, RelOp::kLe, 10),
                          Predicate(1, RelOp::kEq, 3)}))
                  .ok());
  EXPECT_EQ(Match(Event::CreateUnchecked({{0, 6}, {1, 3}})),
            (std::vector<SubscriptionId>{1}));
  EXPECT_EQ(Match(Event::CreateUnchecked({{0, 10}, {1, 3}})),
            (std::vector<SubscriptionId>{1}));
  EXPECT_TRUE(Match(Event::CreateUnchecked({{0, 5}, {1, 3}})).empty());
  EXPECT_TRUE(Match(Event::CreateUnchecked({{0, 11}, {1, 3}})).empty());
}

TEST_P(AnyMatcherTest, ContradictorySubscriptionNeverMatches) {
  ASSERT_TRUE(matcher_
                  ->AddSubscription(Subscription::Create(
                      1, {Predicate(0, RelOp::kEq, 5),
                          Predicate(0, RelOp::kEq, 6)}))
                  .ok());
  EXPECT_TRUE(Match(Event::CreateUnchecked({{0, 5}})).empty());
  EXPECT_TRUE(Match(Event::CreateUnchecked({{0, 6}})).empty());
  ASSERT_TRUE(matcher_->RemoveSubscription(1).ok());
}

TEST_P(AnyMatcherTest, ManySubscriptionsAllValuesRoundTrip) {
  // One subscription per value; each event must match exactly one.
  for (Value v = 0; v < 200; ++v) {
    ASSERT_TRUE(matcher_
                    ->AddSubscription(Subscription::Create(
                        static_cast<SubscriptionId>(v + 1),
                        {Predicate(0, RelOp::kEq, v)}))
                    .ok());
  }
  for (Value v = 0; v < 200; ++v) {
    auto matches = Match(Event::CreateUnchecked({{0, v}}));
    ASSERT_EQ(matches.size(), 1u) << v;
    EXPECT_EQ(matches[0], static_cast<SubscriptionId>(v + 1));
  }
}

TEST_P(AnyMatcherTest, StatsAccumulate) {
  ASSERT_TRUE(matcher_
                  ->AddSubscription(Subscription::Create(
                      1, {Predicate(0, RelOp::kEq, 5)}))
                  .ok());
  Match(Event::CreateUnchecked({{0, 5}}));
  Match(Event::CreateUnchecked({{0, 6}}));
  EXPECT_EQ(matcher_->stats().events, 2u);
  EXPECT_EQ(matcher_->stats().matches, 1u);
  matcher_->ResetStats();
  EXPECT_EQ(matcher_->stats().events, 0u);
}

TEST_P(AnyMatcherTest, MemoryUsageGrowsWithSubscriptions) {
  size_t before = matcher_->MemoryUsage();
  for (SubscriptionId id = 1; id <= 500; ++id) {
    ASSERT_TRUE(matcher_
                    ->AddSubscription(Subscription::Create(
                        id, {Predicate(0, RelOp::kEq, static_cast<Value>(id)),
                             Predicate(1, RelOp::kLt, 50)}))
                    .ok());
  }
  EXPECT_GT(matcher_->MemoryUsage(), before);
}


TEST_P(AnyMatcherTest, WideSubscriptionUsesGenericPath) {
  // 12 predicates exceeds the specialized kernel sizes (<= 10), forcing
  // the generic cluster kernel through the full pipeline.
  std::vector<Predicate> preds;
  for (AttributeId a = 0; a < 12; ++a) {
    preds.emplace_back(a, RelOp::kEq, static_cast<Value>(a));
  }
  ASSERT_TRUE(
      matcher_->AddSubscription(Subscription::Create(1, preds)).ok());
  std::vector<EventPair> pairs;
  for (AttributeId a = 0; a < 12; ++a) {
    pairs.push_back({a, static_cast<Value>(a)});
  }
  EXPECT_EQ(Match(Event::CreateUnchecked(pairs)),
            (std::vector<SubscriptionId>{1}));
  pairs[11].value = 99;  // break the last predicate
  EXPECT_TRUE(Match(Event::CreateUnchecked(pairs)).empty());
}

TEST_P(AnyMatcherTest, PredicateIdRecyclingIsSafe) {
  // Install a predicate, remove its only user (freeing the interned id),
  // then install a different predicate that recycles the id. Matching must
  // reflect only the live predicate.
  ASSERT_TRUE(matcher_
                  ->AddSubscription(Subscription::Create(
                      1, {Predicate(0, RelOp::kEq, 111)}))
                  .ok());
  ASSERT_TRUE(matcher_->RemoveSubscription(1).ok());
  ASSERT_TRUE(matcher_
                  ->AddSubscription(Subscription::Create(
                      2, {Predicate(5, RelOp::kGt, 7)}))
                  .ok());
  EXPECT_TRUE(Match(Event::CreateUnchecked({{0, 111}})).empty());
  EXPECT_EQ(Match(Event::CreateUnchecked({{5, 8}})),
            (std::vector<SubscriptionId>{2}));
  EXPECT_TRUE(Match(Event::CreateUnchecked({{5, 7}})).empty());
}

TEST_P(AnyMatcherTest, EventWithOnlyUnknownAttributesMatchesNothing) {
  ASSERT_TRUE(matcher_
                  ->AddSubscription(Subscription::Create(
                      1, {Predicate(0, RelOp::kEq, 1)}))
                  .ok());
  EXPECT_TRUE(Match(Event::CreateUnchecked({{900, 1}, {901, 1}})).empty());
}

TEST_P(AnyMatcherTest, ManyEventsInterleavedWithChurnKeepStatsSane) {
  for (SubscriptionId id = 1; id <= 64; ++id) {
    ASSERT_TRUE(matcher_
                    ->AddSubscription(Subscription::Create(
                        id, {Predicate(0, RelOp::kEq,
                                       static_cast<Value>(id % 8))}))
                    .ok());
  }
  for (int i = 0; i < 32; ++i) {
    auto matches = Match(Event::CreateUnchecked({{0, i % 8}}));
    EXPECT_EQ(matches.size(), 8u);
  }
  EXPECT_EQ(matcher_->stats().events, 32u);
  EXPECT_EQ(matcher_->stats().matches, 32u * 8);
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithms, AnyMatcherTest,
    ::testing::Values(Algorithm::kNaive, Algorithm::kCounting,
                      Algorithm::kPropagation,
                      Algorithm::kPropagationPrefetch, Algorithm::kStatic,
                      Algorithm::kDynamic, Algorithm::kTree),
    [](const ::testing::TestParamInfo<Algorithm>& info) {
      std::string name = MakeMatcher(info.param)->name();
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

// --- Algorithm-specific tests ------------------------------------------------------

TEST(CountingMatcherTest, PhaseStatsReflectAssociationWalk) {
  CountingMatcher m;
  ASSERT_TRUE(m.AddSubscription(Subscription::Create(
                   1, {Predicate(0, RelOp::kEq, 1),
                       Predicate(1, RelOp::kEq, 2)}))
                  .ok());
  std::vector<SubscriptionId> out;
  m.Match(Event::CreateUnchecked({{0, 1}, {1, 2}}), &out);
  EXPECT_EQ(out, (std::vector<SubscriptionId>{1}));
  EXPECT_EQ(m.stats().predicates_satisfied, 2u);
  // The counting algorithm touches the subscription once per satisfied
  // predicate it contains.
  EXPECT_EQ(m.stats().subscription_checks, 2u);
}

TEST(PropagationMatcherTest, PlacesUnderSingletonAccessPredicates) {
  PropagationMatcher m(/*use_prefetch=*/true);
  ASSERT_TRUE(m.AddSubscription(Subscription::Create(
                   1, {Predicate(3, RelOp::kEq, 5),
                       Predicate(7, RelOp::kEq, 9)}))
                  .ok());
  // Propagation never builds multi-attribute tables: its cluster lists
  // hang off the equality predicate index.
  EXPECT_TRUE(m.TableSchemas().empty());
  EXPECT_EQ(m.singleton_placed_count(), 1u);
  EXPECT_EQ(m.fallback_count(), 0u);
}

TEST(PropagationMatcherTest, NamesReflectPrefetchMode) {
  PropagationMatcher with(/*use_prefetch=*/true);
  PropagationMatcher without(/*use_prefetch=*/false);
  EXPECT_STREQ(with.name(), "propagation-wp");
  EXPECT_STREQ(without.name(), "propagation");
}

TEST(StaticMatcherTest, BuildCreatesMultiAttributeTables) {
  StaticMatcher m;
  m.mutable_statistics()->SeedPseudoEvents(1000);
  for (AttributeId a = 0; a < 3; ++a) {
    m.mutable_statistics()->SeedAttributeUniform(a, 1, 30, 1.0, 1000);
  }
  Rng rng(3);
  std::vector<Subscription> subs;
  for (int i = 0; i < 5000; ++i) {
    subs.push_back(Subscription::Create(
        i + 1, {Predicate(0, RelOp::kEq, rng.Range(1, 30)),
                Predicate(1, RelOp::kEq, rng.Range(1, 30)),
                Predicate(2, RelOp::kEq, rng.Range(1, 30))}));
  }
  ASSERT_TRUE(m.Build(subs).ok());
  EXPECT_EQ(m.subscription_count(), 5000u);
  size_t multi = 0;
  for (const AttributeSet& s : m.TableSchemas()) multi += (s.size() >= 2);
  EXPECT_GE(multi, 1u);

  // Correctness spot check after the optimizer ran.
  std::vector<SubscriptionId> out;
  Event e = Event::CreateUnchecked({{0, 5}, {1, 6}, {2, 7}});
  m.Match(e, &out);
  for (const Subscription& s : subs) {
    bool expected = s.Matches(e);
    bool got = std::find(out.begin(), out.end(), s.id()) != out.end();
    ASSERT_EQ(got, expected) << s.ToString();
  }
}

TEST(StaticMatcherTest, RebuildKeepsSemantics) {
  StaticMatcher m;
  m.mutable_statistics()->SeedPseudoEvents(100);
  m.mutable_statistics()->SeedAttributeUniform(0, 1, 10, 1.0, 100);
  m.mutable_statistics()->SeedAttributeUniform(1, 1, 10, 1.0, 100);
  std::vector<Subscription> subs;
  for (int i = 0; i < 100; ++i) {
    subs.push_back(Subscription::Create(
        i + 1, {Predicate(0, RelOp::kEq, i % 10),
                Predicate(1, RelOp::kEq, (i / 10) % 10)}));
  }
  ASSERT_TRUE(m.Build(subs).ok());
  Event e = Event::CreateUnchecked({{0, 3}, {1, 4}});
  std::vector<SubscriptionId> before;
  m.Match(e, &before);
  m.Rebuild();
  std::vector<SubscriptionId> after;
  m.Match(e, &after);
  EXPECT_EQ(Sorted(before), Sorted(after));
  EXPECT_EQ(m.subscription_count(), 100u);
}

}  // namespace
}  // namespace vfps
