// Copyright 2026 The vfps Authors.
// Differential property tests: every fast matcher must agree exactly with
// the naive oracle on randomized workloads — across operator mixes, skews,
// subscription shapes, and random insert/delete interleavings. These are
// the tests that pin down the correctness of the whole two-phase pipeline.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "src/core/batch_result.h"
#include "src/matcher/naive_matcher.h"
#include "src/matcher/static_matcher.h"
#include "src/pubsub/broker.h"
#include "src/util/rng.h"
#include "src/workload/workload_generator.h"

namespace vfps {
namespace {

std::vector<SubscriptionId> Sorted(std::vector<SubscriptionId> v) {
  std::sort(v.begin(), v.end());
  return v;
}

std::vector<Algorithm> FastAlgorithms() {
  return {Algorithm::kCounting, Algorithm::kPropagation,
          Algorithm::kPropagationPrefetch, Algorithm::kStatic,
          Algorithm::kDynamic, Algorithm::kTree};
}

/// Fully random subscription: 1..5 predicates over `attrs` attributes with
/// all six operators and values in [1, domain]. Unlike WorkloadGenerator
/// (which follows the paper's structured Table 1 shapes), this explores
/// degenerate shapes: duplicate attributes, contradictions, no equality.
Subscription RandomSubscription(Rng* rng, SubscriptionId id, uint32_t attrs,
                                Value domain) {
  const size_t n = 1 + rng->Below(5);
  std::vector<Predicate> preds;
  for (size_t i = 0; i < n; ++i) {
    preds.emplace_back(static_cast<AttributeId>(rng->Below(attrs)),
                       static_cast<RelOp>(rng->Below(6)),
                       rng->Range(1, domain));
  }
  return Subscription::Create(id, std::move(preds));
}

Event RandomEvent(Rng* rng, uint32_t attrs, Value domain, double p_present) {
  std::vector<EventPair> pairs;
  for (AttributeId a = 0; a < attrs; ++a) {
    if (rng->Chance(p_present)) pairs.push_back({a, rng->Range(1, domain)});
  }
  return Event::CreateUnchecked(std::move(pairs));
}

struct DiffParams {
  uint64_t seed;
  uint32_t attrs;
  Value domain;
  int subscriptions;
  int events;
  double p_present;
};

class DifferentialTest : public ::testing::TestWithParam<DiffParams> {};

TEST_P(DifferentialTest, AllMatchersAgreeWithOracleOnRandomShapes) {
  const DiffParams p = GetParam();
  Rng rng(p.seed);

  NaiveMatcher oracle;
  std::vector<std::unique_ptr<Matcher>> matchers;
  for (Algorithm a : FastAlgorithms()) matchers.push_back(MakeMatcher(a));

  for (int i = 0; i < p.subscriptions; ++i) {
    Subscription s =
        RandomSubscription(&rng, i + 1, p.attrs, p.domain);
    ASSERT_TRUE(oracle.AddSubscription(s).ok());
    for (auto& m : matchers) ASSERT_TRUE(m->AddSubscription(s).ok());
  }

  std::vector<SubscriptionId> expect, got;
  for (int e = 0; e < p.events; ++e) {
    Event event = RandomEvent(&rng, p.attrs, p.domain, p.p_present);
    oracle.Match(event, &expect);
    std::vector<SubscriptionId> want = Sorted(expect);
    for (auto& m : matchers) {
      m->Match(event, &got);
      ASSERT_EQ(Sorted(got), want)
          << m->name() << " diverges on " << event.ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweeps, DifferentialTest,
    ::testing::Values(
        DiffParams{11, 4, 5, 300, 120, 0.9},    // tiny domain, collisions
        DiffParams{12, 8, 30, 500, 80, 0.7},    // moderate
        DiffParams{13, 16, 100, 400, 60, 0.5},  // sparse events
        DiffParams{14, 3, 2, 200, 150, 1.0},    // extreme collisions
        DiffParams{15, 24, 10, 800, 40, 0.3}),  // wide schema, rare attrs
    [](const ::testing::TestParamInfo<DiffParams>& info) {
      return "seed" + std::to_string(info.param.seed);
    });

TEST_P(DifferentialTest, AgreementSurvivesInsertDeleteChurn) {
  const DiffParams p = GetParam();
  Rng rng(p.seed ^ 0xdeadbeef);

  NaiveMatcher oracle;
  std::vector<std::unique_ptr<Matcher>> matchers;
  for (Algorithm a : FastAlgorithms()) matchers.push_back(MakeMatcher(a));

  std::vector<SubscriptionId> live;
  SubscriptionId next_id = 1;
  std::vector<SubscriptionId> expect, got;

  for (int step = 0; step < p.subscriptions; ++step) {
    const double roll = rng.NextDouble();
    if (roll < 0.55 || live.empty()) {
      Subscription s = RandomSubscription(&rng, next_id++, p.attrs, p.domain);
      ASSERT_TRUE(oracle.AddSubscription(s).ok());
      for (auto& m : matchers) ASSERT_TRUE(m->AddSubscription(s).ok());
      live.push_back(s.id());
    } else {
      size_t pick = rng.Below(live.size());
      SubscriptionId victim = live[pick];
      live[pick] = live.back();
      live.pop_back();
      ASSERT_TRUE(oracle.RemoveSubscription(victim).ok());
      for (auto& m : matchers) {
        ASSERT_TRUE(m->RemoveSubscription(victim).ok()) << m->name();
      }
    }
    // Check agreement every few mutations.
    if (step % 7 == 0) {
      Event event = RandomEvent(&rng, p.attrs, p.domain, p.p_present);
      oracle.Match(event, &expect);
      std::vector<SubscriptionId> want = Sorted(expect);
      for (auto& m : matchers) {
        m->Match(event, &got);
        ASSERT_EQ(Sorted(got), want) << m->name() << " after churn step "
                                     << step << " on " << event.ToString();
      }
    }
  }
  for (auto& m : matchers) {
    EXPECT_EQ(m->subscription_count(), oracle.subscription_count());
  }
}

// Paper-shaped workloads (Table 1): run each W* generator through all
// matchers and compare against the oracle.
struct PaperWorkloadCase {
  const char* label;
  WorkloadSpec spec;
};

class PaperWorkloadTest : public ::testing::TestWithParam<PaperWorkloadCase> {
};

TEST_P(PaperWorkloadTest, AllMatchersAgreeWithOracle) {
  WorkloadSpec spec = GetParam().spec;
  spec.num_subscriptions = 2000;
  WorkloadGenerator gen(spec);

  NaiveMatcher oracle;
  std::vector<std::unique_ptr<Matcher>> matchers;
  for (Algorithm a : FastAlgorithms()) matchers.push_back(MakeMatcher(a));

  for (const Subscription& s : gen.MakeSubscriptions(2000, 1)) {
    ASSERT_TRUE(oracle.AddSubscription(s).ok());
    for (auto& m : matchers) ASSERT_TRUE(m->AddSubscription(s).ok());
  }
  std::vector<SubscriptionId> expect, got;
  for (const Event& event : gen.MakeEvents(50)) {
    oracle.Match(event, &expect);
    std::vector<SubscriptionId> want = Sorted(expect);
    for (auto& m : matchers) {
      m->Match(event, &got);
      ASSERT_EQ(Sorted(got), want) << m->name() << " on " << GetParam().label;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    PaperWorkloads, PaperWorkloadTest,
    ::testing::Values(PaperWorkloadCase{"W0", workloads::W0(2000)},
                      PaperWorkloadCase{"W1", workloads::W1(2000)},
                      PaperWorkloadCase{"W2", workloads::W2(2000)},
                      PaperWorkloadCase{"W3", workloads::W3(2000)},
                      PaperWorkloadCase{"W4", workloads::W4(2000)},
                      PaperWorkloadCase{"W5", workloads::W5(2000)},
                      PaperWorkloadCase{"W6", workloads::W6(2000)}),
    [](const ::testing::TestParamInfo<PaperWorkloadCase>& info) {
      return info.param.label;
    });

// --- operator and shape edge cases ------------------------------------------
// Targeted suites grown out of writing the differential harness: the fully
// random sweeps above hit these shapes only occasionally, so pin them down
// deterministically.

// Subscriptions built exclusively from `!=` stress the not-equal index's
// scan path (a != predicate is satisfied by almost every event, so result
// vectors are dense and clusters shortcut rarely).
TEST(OperatorEdgeCaseTest, NotEqualOnlySubscriptionsAgreeWithOracle) {
  Rng rng(91);
  NaiveMatcher oracle;
  std::vector<std::unique_ptr<Matcher>> matchers;
  for (Algorithm a : FastAlgorithms()) matchers.push_back(MakeMatcher(a));

  for (SubscriptionId id = 1; id <= 400; ++id) {
    const size_t n = 1 + rng.Below(3);
    std::vector<Predicate> preds;
    for (size_t i = 0; i < n; ++i) {
      preds.emplace_back(static_cast<AttributeId>(rng.Below(4)), RelOp::kNe,
                         rng.Range(1, 6));
    }
    Subscription s = Subscription::Create(id, std::move(preds));
    ASSERT_TRUE(oracle.AddSubscription(s).ok());
    for (auto& m : matchers) ASSERT_TRUE(m->AddSubscription(s).ok());
  }
  std::vector<SubscriptionId> expect, got;
  for (int e = 0; e < 150; ++e) {
    Event event = RandomEvent(&rng, 4, 6, 0.9);
    oracle.Match(event, &expect);
    std::vector<SubscriptionId> want = Sorted(expect);
    for (auto& m : matchers) {
      m->Match(event, &got);
      ASSERT_EQ(Sorted(got), want) << m->name() << " on " << event.ToString();
    }
  }
}

// Hand-picked =/!= combinations on one attribute, including the
// contradiction (a = 3 AND a != 3) and the tautology-on-domain shapes.
TEST(OperatorEdgeCaseTest, EqualityNotEqualCombinationsAgreeWithOracle) {
  const std::vector<std::vector<Predicate>> shapes = {
      {Predicate(0, RelOp::kEq, 3), Predicate(0, RelOp::kNe, 3)},  // a=3,a!=3
      {Predicate(0, RelOp::kEq, 3), Predicate(0, RelOp::kNe, 4)},
      {Predicate(0, RelOp::kNe, 3), Predicate(0, RelOp::kNe, 4)},
      {Predicate(0, RelOp::kNe, 3)},
      {Predicate(0, RelOp::kNe, 3), Predicate(1, RelOp::kEq, 2)},
      {Predicate(0, RelOp::kEq, 3), Predicate(1, RelOp::kNe, 2)},
  };
  NaiveMatcher oracle;
  std::vector<std::unique_ptr<Matcher>> matchers;
  for (Algorithm a : FastAlgorithms()) matchers.push_back(MakeMatcher(a));
  SubscriptionId id = 1;
  for (const auto& preds : shapes) {
    Subscription s = Subscription::Create(id++, preds);
    ASSERT_TRUE(oracle.AddSubscription(s).ok());
    for (auto& m : matchers) ASSERT_TRUE(m->AddSubscription(s).ok());
  }
  std::vector<SubscriptionId> expect, got;
  for (Value v0 = 1; v0 <= 6; ++v0) {
    for (Value v1 = 1; v1 <= 3; ++v1) {
      for (const Event& event :
           {Event::CreateUnchecked({{0, v0}}),
            Event::CreateUnchecked({{1, v1}}),
            Event::CreateUnchecked({{0, v0}, {1, v1}})}) {
        oracle.Match(event, &expect);
        std::vector<SubscriptionId> want = Sorted(expect);
        for (auto& m : matchers) {
          m->Match(event, &got);
          ASSERT_EQ(Sorted(got), want)
              << m->name() << " on " << event.ToString();
        }
      }
    }
  }
}

// The empty event is legal input and must match nothing (every
// subscription has at least one predicate, which needs its attribute
// present) — uniformly across algorithms, including after churn.
TEST(ShapeEdgeCaseTest, EmptyEventMatchesNothingEverywhere) {
  Rng rng(92);
  NaiveMatcher oracle;
  std::vector<std::unique_ptr<Matcher>> matchers;
  for (Algorithm a : FastAlgorithms()) matchers.push_back(MakeMatcher(a));
  for (SubscriptionId id = 1; id <= 300; ++id) {
    Subscription s = RandomSubscription(&rng, id, 6, 10);
    ASSERT_TRUE(oracle.AddSubscription(s).ok());
    for (auto& m : matchers) ASSERT_TRUE(m->AddSubscription(s).ok());
  }
  const Event empty = Event::CreateUnchecked({});
  std::vector<SubscriptionId> got;
  oracle.Match(empty, &got);
  EXPECT_TRUE(got.empty());
  for (auto& m : matchers) {
    m->Match(empty, &got);
    EXPECT_TRUE(got.empty()) << m->name();
  }
}

// Subscriptions with several predicates on the same attribute: redundant
// (a<=5 AND a<=7), contradictory (a=1 AND a=2), and interval-shaped
// (a>=2 AND a<=4). The matchers must agree with the oracle whether or not
// normalization would have simplified them (these go in raw).
TEST(ShapeEdgeCaseTest, DuplicateAttributeSubscriptionsAgreeWithOracle) {
  const std::vector<std::vector<Predicate>> shapes = {
      {Predicate(0, RelOp::kEq, 1), Predicate(0, RelOp::kEq, 2)},
      {Predicate(0, RelOp::kLe, 5), Predicate(0, RelOp::kLe, 7)},
      {Predicate(0, RelOp::kGe, 2), Predicate(0, RelOp::kLe, 4)},
      {Predicate(0, RelOp::kGt, 4), Predicate(0, RelOp::kLt, 4)},
      {Predicate(0, RelOp::kEq, 3), Predicate(0, RelOp::kGe, 1),
       Predicate(0, RelOp::kLe, 8)},
      {Predicate(0, RelOp::kNe, 2), Predicate(0, RelOp::kNe, 2)},
  };
  NaiveMatcher oracle;
  std::vector<std::unique_ptr<Matcher>> matchers;
  for (Algorithm a : FastAlgorithms()) matchers.push_back(MakeMatcher(a));
  SubscriptionId id = 1;
  for (const auto& preds : shapes) {
    Subscription s = Subscription::Create(id++, preds);
    ASSERT_TRUE(oracle.AddSubscription(s).ok());
    for (auto& m : matchers) ASSERT_TRUE(m->AddSubscription(s).ok());
  }
  std::vector<SubscriptionId> expect, got;
  for (Value v = 0; v <= 9; ++v) {
    Event event = Event::CreateUnchecked({{0, v}});
    oracle.Match(event, &expect);
    std::vector<SubscriptionId> want = Sorted(expect);
    for (auto& m : matchers) {
      m->Match(event, &got);
      ASSERT_EQ(Sorted(got), want) << m->name() << " on " << event.ToString();
    }
  }
}

// Events, by contrast, may not carry duplicate attributes: the checked
// constructor rejects them (§1.1: at most one pair per attribute).
TEST(ShapeEdgeCaseTest, EventCreateRejectsDuplicateAttributes) {
  EXPECT_FALSE(Event::Create({{0, 1}, {0, 2}}).ok());
  EXPECT_TRUE(Event::Create({{0, 1}, {1, 2}}).ok());
}

// --- MatchBatch ≡ Match ------------------------------------------------------
// The batched entry point must be observably identical to calling Match per
// event — for the native batch kernels (propagation/static/dynamic) and the
// default loop fallback (counting/tree/naive).

std::vector<std::unique_ptr<Matcher>> AllBatchMatchers() {
  std::vector<std::unique_ptr<Matcher>> matchers;
  for (Algorithm a : FastAlgorithms()) matchers.push_back(MakeMatcher(a));
  return matchers;
}

TEST(MatchBatchEquivalenceTest, BatchAgreesWithPerEventMatch) {
  Rng rng(93);
  std::vector<std::unique_ptr<Matcher>> matchers = AllBatchMatchers();
  for (SubscriptionId id = 1; id <= 400; ++id) {
    Subscription s = RandomSubscription(&rng, id, 6, 8);
    for (auto& m : matchers) ASSERT_TRUE(m->AddSubscription(s).ok());
  }
  // 150 events with duplicates sprinkled in: every 5th event repeats an
  // earlier one, so identical inputs land in the same batch.
  std::vector<Event> events;
  for (int e = 0; e < 150; ++e) {
    if (e % 5 == 4) {
      events.push_back(events[rng.Below(events.size())]);
    } else {
      events.push_back(RandomEvent(&rng, 6, 8, 0.8));
    }
  }
  BatchResult batch;
  std::vector<SubscriptionId> expect;
  for (size_t batch_size : {size_t{1}, size_t{13}, size_t{64}, size_t{150}}) {
    for (auto& m : matchers) {
      for (size_t base = 0; base < events.size(); base += batch_size) {
        const size_t n = std::min(batch_size, events.size() - base);
        m->MatchBatch({events.data() + base, n}, &batch);
        ASSERT_EQ(batch.batch_size(), n) << m->name();
        for (size_t lane = 0; lane < n; ++lane) {
          m->Match(events[base + lane], &expect);
          ASSERT_EQ(Sorted(batch.matches(lane)), Sorted(expect))
              << m->name() << " batch_size=" << batch_size << " lane=" << lane
              << " on " << events[base + lane].ToString();
        }
      }
    }
  }
}

// The empty batch is legal: batch_size becomes 0 and no lane is touched,
// even when the result still holds rows from a previous (larger) batch.
TEST(MatchBatchEquivalenceTest, EmptyBatchYieldsEmptyResult) {
  Rng rng(94);
  for (auto& m : AllBatchMatchers()) {
    for (SubscriptionId id = 1; id <= 50; ++id) {
      ASSERT_TRUE(
          m->AddSubscription(RandomSubscription(&rng, id, 4, 6)).ok());
    }
    BatchResult batch;
    const std::vector<Event> events = {RandomEvent(&rng, 4, 6, 1.0)};
    m->MatchBatch(events, &batch);  // leaves a non-empty lane behind
    m->MatchBatch({}, &batch);
    EXPECT_EQ(batch.batch_size(), 0u) << m->name();
    EXPECT_EQ(batch.total_matches(), 0u) << m->name();
  }
}

// A batch of one must take the same result as Match — the degenerate case
// where the batch kernels' lane masks are a single bit.
TEST(MatchBatchEquivalenceTest, SingleEventBatchAgreesWithMatch) {
  Rng rng(95);
  std::vector<std::unique_ptr<Matcher>> matchers = AllBatchMatchers();
  for (SubscriptionId id = 1; id <= 300; ++id) {
    Subscription s = RandomSubscription(&rng, id, 5, 7);
    for (auto& m : matchers) ASSERT_TRUE(m->AddSubscription(s).ok());
  }
  BatchResult batch;
  std::vector<SubscriptionId> expect;
  for (int e = 0; e < 60; ++e) {
    const std::vector<Event> one = {RandomEvent(&rng, 5, 7, 0.8)};
    for (auto& m : matchers) {
      m->MatchBatch(one, &batch);
      ASSERT_EQ(batch.batch_size(), 1u);
      m->Match(one[0], &expect);
      ASSERT_EQ(Sorted(batch.matches(0)), Sorted(expect))
          << m->name() << " on " << one[0].ToString();
    }
  }
}

// Duplicate events within one batch must produce identical lanes — the
// phase-1 pair memo dedups (attribute, value) probes across lanes, so two
// identical events share every probe and must still get separate rows.
TEST(MatchBatchEquivalenceTest, DuplicateEventsInBatchGetIdenticalLanes) {
  Rng rng(96);
  std::vector<std::unique_ptr<Matcher>> matchers = AllBatchMatchers();
  for (SubscriptionId id = 1; id <= 300; ++id) {
    Subscription s = RandomSubscription(&rng, id, 4, 5);
    for (auto& m : matchers) ASSERT_TRUE(m->AddSubscription(s).ok());
  }
  const Event a = RandomEvent(&rng, 4, 5, 1.0);
  const Event b = RandomEvent(&rng, 4, 5, 0.5);
  const std::vector<Event> events = {a, b, a, a, b};
  BatchResult batch;
  std::vector<SubscriptionId> expect;
  for (auto& m : matchers) {
    m->MatchBatch(events, &batch);
    ASSERT_EQ(batch.batch_size(), events.size());
    m->Match(a, &expect);
    const std::vector<SubscriptionId> want_a = Sorted(expect);
    m->Match(b, &expect);
    const std::vector<SubscriptionId> want_b = Sorted(expect);
    EXPECT_EQ(Sorted(batch.matches(0)), want_a) << m->name();
    EXPECT_EQ(Sorted(batch.matches(1)), want_b) << m->name();
    EXPECT_EQ(Sorted(batch.matches(2)), want_a) << m->name();
    EXPECT_EQ(Sorted(batch.matches(3)), want_a) << m->name();
    EXPECT_EQ(Sorted(batch.matches(4)), want_b) << m->name();
  }
}

// StaticMatcher bulk Build must agree with incremental AddSubscription.
TEST(StaticBuildEquivalenceTest, BulkBuildMatchesIncremental) {
  WorkloadSpec spec = workloads::W0(1500, /*seed=*/77);
  WorkloadGenerator gen(spec);
  std::vector<Subscription> subs = gen.MakeSubscriptions(1500, 1);

  StaticMatcher bulk;
  gen.SeedStatistics(bulk.mutable_statistics(), 1000);
  ASSERT_TRUE(bulk.Build(subs).ok());

  NaiveMatcher oracle;
  for (const Subscription& s : subs) {
    ASSERT_TRUE(oracle.AddSubscription(s).ok());
  }

  std::vector<SubscriptionId> expect, got;
  for (const Event& event : gen.MakeEvents(40)) {
    oracle.Match(event, &expect);
    bulk.Match(event, &got);
    ASSERT_EQ(Sorted(got), Sorted(expect));
  }
}

}  // namespace
}  // namespace vfps
