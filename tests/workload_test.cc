// Copyright 2026 The vfps Authors.
// Tests for the workload generator: spec validation, determinism, and that
// generated streams actually have the shape Table 1 promises (fixed
// attributes, operator mixes, domains, skews, pools).

#include <gtest/gtest.h>

#include <set>

#include "src/workload/workload_generator.h"
#include "src/workload/workload_spec.h"

namespace vfps {
namespace {

TEST(WorkloadSpecTest, DefaultsValidate) {
  EXPECT_TRUE(WorkloadSpec().Validate().ok());
  EXPECT_TRUE(workloads::W0(1000).Validate().ok());
  EXPECT_TRUE(workloads::W1(1000).Validate().ok());
  EXPECT_TRUE(workloads::W2(1000).Validate().ok());
  EXPECT_TRUE(workloads::W3(1000).Validate().ok());
  EXPECT_TRUE(workloads::W4(1000).Validate().ok());
  EXPECT_TRUE(workloads::W5(1000).Validate().ok());
  EXPECT_TRUE(workloads::W6(1000).Validate().ok());
}

TEST(WorkloadSpecTest, RejectsInconsistentSpecs) {
  WorkloadSpec w;
  w.fixed_equality = 10;
  w.predicates_per_subscription = 5;
  EXPECT_FALSE(w.Validate().ok());

  WorkloadSpec pool;
  pool.subscription_pool_offset = 20;
  pool.subscription_pool_size = 20;
  pool.num_attributes = 32;
  EXPECT_FALSE(pool.Validate().ok());

  WorkloadSpec dom;
  dom.value_lo = 10;
  dom.value_hi = 1;
  EXPECT_FALSE(dom.Validate().ok());

  WorkloadSpec wide;
  wide.predicates_per_subscription = 40;
  wide.num_attributes = 32;
  EXPECT_FALSE(wide.Validate().ok());

  WorkloadSpec evt;
  evt.attrs_per_event = 64;
  EXPECT_FALSE(evt.Validate().ok());
}

TEST(WorkloadGeneratorTest, DeterministicForSeed) {
  WorkloadGenerator a(workloads::W0(100, 42));
  WorkloadGenerator b(workloads::W0(100, 42));
  for (int i = 0; i < 50; ++i) {
    Subscription sa = a.NextSubscription(i);
    Subscription sb = b.NextSubscription(i);
    ASSERT_EQ(sa.predicates().size(), sb.predicates().size());
    for (size_t k = 0; k < sa.predicates().size(); ++k) {
      ASSERT_EQ(sa.predicates()[k], sb.predicates()[k]);
    }
    Event ea = a.NextEvent();
    Event eb = b.NextEvent();
    ASSERT_EQ(ea.pairs().size(), eb.pairs().size());
    for (size_t k = 0; k < ea.pairs().size(); ++k) {
      ASSERT_EQ(ea.pairs()[k], eb.pairs()[k]);
    }
  }
}

TEST(WorkloadGeneratorTest, W0ShapeMatchesSpec) {
  WorkloadGenerator gen(workloads::W0(1000, 1));
  for (const Subscription& s : gen.MakeSubscriptions(200, 1)) {
    EXPECT_EQ(s.size(), 5u);
    // All predicates are equality in W0.
    for (const Predicate& p : s.predicates()) {
      EXPECT_TRUE(p.IsEquality());
      EXPECT_GE(p.value, 1);
      EXPECT_LE(p.value, 35);
      EXPECT_LT(p.attribute, 32u);
    }
    // The two fixed attributes (0 and 1) appear in every subscription.
    EXPECT_TRUE(s.equality_attributes().Contains(0));
    EXPECT_TRUE(s.equality_attributes().Contains(1));
  }
  for (const Event& e : gen.MakeEvents(50)) {
    EXPECT_EQ(e.size(), 32u);  // n_A == n_t: every attribute present
    for (const EventPair& pair : e.pairs()) {
      EXPECT_GE(pair.value, 1);
      EXPECT_LE(pair.value, 35);
    }
  }
}

TEST(WorkloadGeneratorTest, W2OperatorMix) {
  WorkloadGenerator gen(workloads::W2(1000, 2));
  for (const Subscription& s : gen.MakeSubscriptions(100, 1)) {
    EXPECT_EQ(s.size(), 9u);
    size_t eq = 0, range = 0, ne = 0;
    for (const Predicate& p : s.predicates()) {
      switch (p.op) {
        case RelOp::kEq:
          ++eq;
          break;
        case RelOp::kNe:
          ++ne;
          break;
        default:
          ++range;
      }
    }
    EXPECT_EQ(eq, 3u);     // 2 fixed + 1 free
    EXPECT_EQ(range, 5u);  // 5 fixed inequality
    EXPECT_EQ(ne, 1u);     // 1 fixed !=
  }
}

TEST(WorkloadGeneratorTest, PoolWindowsRestrictAttributes) {
  WorkloadGenerator w3(workloads::W3(1000, 3));
  for (const Subscription& s : w3.MakeSubscriptions(100, 1)) {
    for (const Predicate& p : s.predicates()) {
      EXPECT_LT(p.attribute, 16u) << "W3 must stay in the first window";
    }
  }
  WorkloadGenerator w4(workloads::W4(1000, 3));
  for (const Subscription& s : w4.MakeSubscriptions(100, 1)) {
    for (const Predicate& p : s.predicates()) {
      EXPECT_GE(p.attribute, 16u) << "W4 must stay in the second window";
      EXPECT_LT(p.attribute, 32u);
    }
  }
  // Events still cover all 32 attributes in both.
  EXPECT_EQ(w3.NextEvent().size(), 32u);
}

TEST(WorkloadGeneratorTest, W6SkewNarrowsDomain) {
  WorkloadGenerator gen(workloads::W6(1000, 4));
  std::set<Value> sub_values, event_values;
  for (const Subscription& s : gen.MakeSubscriptions(300, 1)) {
    for (const Predicate& p : s.predicates()) {
      if (p.attribute == 0) sub_values.insert(p.value);
    }
  }
  for (const Event& e : gen.MakeEvents(300)) {
    event_values.insert(*e.Find(0));
  }
  // Skewed attribute 0: only 2 distinct values on both sides.
  EXPECT_LE(sub_values.size(), 2u);
  EXPECT_LE(event_values.size(), 2u);
  for (Value v : sub_values) {
    EXPECT_GE(v, 1);
    EXPECT_LE(v, 2);
  }
}

TEST(WorkloadGeneratorTest, FreePredicatesUseDistinctAttributes) {
  WorkloadGenerator gen(workloads::W0(1000, 5));
  for (const Subscription& s : gen.MakeSubscriptions(200, 1)) {
    // All 5 predicates (2 fixed + 3 free) are on distinct attributes.
    EXPECT_EQ(s.attributes().size(), 5u);
  }
}

TEST(WorkloadGeneratorTest, PartialEventSchema) {
  WorkloadSpec spec = workloads::W0(100, 6);
  spec.attrs_per_event = 10;
  WorkloadGenerator gen(spec);
  for (const Event& e : gen.MakeEvents(100)) {
    EXPECT_EQ(e.size(), 10u);
    // Distinct attributes guaranteed by construction: the sorted pairs
    // strictly increase.
    for (size_t i = 1; i < e.pairs().size(); ++i) {
      EXPECT_LT(e.pairs()[i - 1].attribute, e.pairs()[i].attribute);
    }
  }
}

TEST(WorkloadGeneratorTest, SeedStatisticsDescribesEvents) {
  WorkloadSpec spec = workloads::W0(100, 7);
  spec.attrs_per_event = 16;  // half of the 32 attributes per event
  WorkloadGenerator gen(spec);
  EventStatistics stats;
  gen.SeedStatistics(&stats, 1000);
  EXPECT_NEAR(stats.PresenceProbability(0), 0.5, 1e-9);
  EXPECT_NEAR(stats.ValueProbability(0, 10), 0.5 / 35.0, 1e-9);
  EXPECT_NEAR(stats.MuSchema(AttributeSet{0, 1}), 0.25, 1e-9);
}

}  // namespace
}  // namespace vfps
