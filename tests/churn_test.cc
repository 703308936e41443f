// Copyright 2026 The vfps Authors.
// Subscription churn against the dynamic matcher in the served shape: one
// thread applies every change between matches. Byte-equality against the
// naive oracle under random churn, placement moves while ν shifts,
// multi-attribute tables created and deleted with matches interleaved, and
// MatchBatch ≡ Match while churn keeps the maintenance sweeps running.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "src/matcher/dynamic_matcher.h"
#include "src/matcher/naive_matcher.h"
#include "src/util/rng.h"
#include "src/verify/differential.h"
#include "src/workload/workload_generator.h"
#include "src/workload/workload_spec.h"

namespace vfps {
namespace {

std::vector<SubscriptionId> Sorted(std::vector<SubscriptionId> v) {
  std::sort(v.begin(), v.end());
  return v;
}

/// A DynamicMatcher with `sweep_period` small enough to make the sweeps
/// (and their placement moves) run in a short test.
std::unique_ptr<DynamicMatcher> SweepingDynamic(
    uint64_t sweep_period, uint32_t observe_sample_rate = 16) {
  DynamicOptions options;
  options.sweep_period = sweep_period;
  return std::make_unique<DynamicMatcher>(options, /*use_prefetch=*/true,
                                          observe_sample_rate);
}

/// `event` with attribute 0 (when present and first) forced to 1: skews ν
/// so that sweeps relocate subscriptions placed under flat statistics.
Event SkewFirstAttribute(const Event& event) {
  std::vector<EventPair> pairs = event.pairs();
  if (!pairs.empty() && pairs[0].attribute == 0) pairs[0].value = 1;
  return Event::CreateUnchecked(std::move(pairs));
}

TEST(ChurnTest, SerialChurnStaysByteIdenticalToNaive) {
  Rng rng(17);
  NaiveMatcher oracle;
  auto matcher = SweepingDynamic(/*sweep_period=*/64);
  std::vector<SubscriptionId> live;
  SubscriptionId next_id = 1;
  std::vector<SubscriptionId> want, got;
  for (int step = 0; step < 1500; ++step) {
    if (live.empty() || rng.NextDouble() < 0.55) {
      Subscription s = RandomDiffSubscription(&rng, next_id++, /*attrs=*/6,
                                              /*domain=*/8);
      ASSERT_TRUE(oracle.AddSubscription(s).ok());
      ASSERT_TRUE(matcher->AddSubscription(s).ok());
      live.push_back(s.id());
    } else {
      const size_t pick = rng.Below(live.size());
      const SubscriptionId victim = live[pick];
      live[pick] = live.back();
      live.pop_back();
      ASSERT_TRUE(oracle.RemoveSubscription(victim).ok());
      ASSERT_TRUE(matcher->RemoveSubscription(victim).ok());
    }
    if (step % 3 == 0) {
      Event event = RandomDiffEvent(&rng, /*attrs=*/6, /*domain=*/8,
                                    /*p_present=*/0.8);
      oracle.Match(event, &want);
      matcher->Match(event, &got);
      ASSERT_EQ(Sorted(got), Sorted(want)) << "diverged at step " << step;
    }
  }
  EXPECT_EQ(matcher->subscription_count(), oracle.subscription_count());
}

TEST(ChurnTest, MovesPreserveMatchesAsStatisticsShift) {
  // Subscriptions are placed under flat ν; then skewed events make
  // attribute 0 common, and the sweeps the churn below keeps triggering
  // relocate records — matches must not change.
  auto matcher = SweepingDynamic(/*sweep_period=*/8,
                                 /*observe_sample_rate=*/1);
  NaiveMatcher oracle;
  Rng rng(5);
  for (SubscriptionId id = 1; id <= 400; ++id) {
    Subscription s =
        RandomDiffSubscription(&rng, id, /*attrs=*/5, /*domain=*/6);
    ASSERT_TRUE(oracle.AddSubscription(s).ok());
    ASSERT_TRUE(matcher->AddSubscription(s).ok());
  }
  std::vector<SubscriptionId> want, got;
  SubscriptionId churn_id = 1000;
  for (int round = 0; round < 300; ++round) {
    const Event event = SkewFirstAttribute(
        RandomDiffEvent(&rng, /*attrs=*/5, /*domain=*/6, /*p_present=*/0.9));
    oracle.Match(event, &want);
    matcher->Match(event, &got);
    ASSERT_EQ(Sorted(got), Sorted(want)) << "diverged at round " << round;
    // Churn on an attribute no event carries: it never matches, but each
    // change counts toward the next sweep.
    ASSERT_TRUE(matcher
                    ->AddSubscription(Subscription::Create(
                        ++churn_id, {Predicate(50, RelOp::kEq, 1)}))
                    .ok());
    ASSERT_TRUE(matcher->RemoveSubscription(churn_id).ok());
  }
  EXPECT_GT(matcher->maintenance_stats().sweeps, 0u);
  EXPECT_GT(matcher->maintenance_stats().subscriptions_moved, 0u);
}

// Multi-attribute tables appear (a W0 population whose two fixed equality
// attributes beat any singleton) and vanish (removing it drops every table
// below Bdelete) while events are matched between the changes. Table
// creation moves whole cluster lists into the new table; deletion
// re-places its subscriptions before the table goes.
TEST(ChurnTest, TablesCreatedAndDeletedWithMatchesInterleaved) {
  WorkloadGenerator gen(workloads::W0(3000));
  std::vector<Subscription> subs = gen.MakeSubscriptions(3000, 1);
  std::vector<Event> events = gen.MakeEvents(256);
  auto matcher = SweepingDynamic(/*sweep_period=*/256);
  gen.SeedStatistics(matcher->mutable_statistics(), 10000.0);
  NaiveMatcher oracle;
  Rng rng(3);
  std::vector<SubscriptionId> removal_order;
  for (const Subscription& s : subs) removal_order.push_back(s.id());
  for (size_t i = removal_order.size(); i > 1; --i) {
    std::swap(removal_order[i - 1], removal_order[rng.Below(i)]);
  }
  std::vector<SubscriptionId> want, got;
  auto check = [&](size_t op) {
    const Event& event = events[rng.Below(events.size())];
    oracle.Match(event, &want);
    matcher->Match(event, &got);
    ASSERT_EQ(Sorted(got), Sorted(want)) << "diverged after op " << op;
  };
  size_t op = 0;
  for (const Subscription& s : subs) {
    ASSERT_TRUE(oracle.AddSubscription(s).ok());
    ASSERT_TRUE(matcher->AddSubscription(s).ok());
    if (++op % 7 == 0) check(op);
  }
  EXPECT_GT(matcher->maintenance_stats().tables_created, 0u);
  for (SubscriptionId id : removal_order) {
    ASSERT_TRUE(oracle.RemoveSubscription(id).ok());
    ASSERT_TRUE(matcher->RemoveSubscription(id).ok());
    if (++op % 7 == 0) check(op);
  }
  EXPECT_GT(matcher->maintenance_stats().tables_deleted, 0u);
  EXPECT_TRUE(matcher->TableSchemas().empty());
  EXPECT_EQ(matcher->subscription_count(), 0u);
}

// Stable subscriptions, churn that never matches (an attribute no event
// carries) but keeps the sweeps due, and skewed events whose samples shift
// ν so the sweeps relocate stable subscriptions between batches: MatchBatch
// lanes and Match must both equal the oracle exactly.
TEST(ChurnTest, MatchBatchEqualsMatchWithChurnInterleaved) {
  constexpr uint32_t kAttrs = 5;
  constexpr Value kDomain = 6;
  auto matcher = SweepingDynamic(/*sweep_period=*/16,
                                 /*observe_sample_rate=*/1);
  NaiveMatcher oracle;
  Rng rng(31);
  for (SubscriptionId id = 1; id <= 500; ++id) {
    Subscription s = RandomDiffSubscription(&rng, id, kAttrs, kDomain);
    ASSERT_TRUE(oracle.AddSubscription(s).ok());
    ASSERT_TRUE(matcher->AddSubscription(s).ok());
  }
  SubscriptionId churn_id = 100000;
  std::vector<Event> batch;
  BatchResult results;
  std::vector<SubscriptionId> want, got;
  for (int round = 0; round < 120; ++round) {
    for (int c = 0; c < 8; ++c) {
      ++churn_id;
      ASSERT_TRUE(matcher
                      ->AddSubscription(Subscription::Create(
                          churn_id,
                          {Predicate(40, RelOp::kEq, rng.Range(1, kDomain))}))
                      .ok());
      ASSERT_TRUE(matcher->RemoveSubscription(churn_id).ok());
    }
    batch.clear();
    for (int e = 0; e < 24; ++e) {
      batch.push_back(SkewFirstAttribute(
          RandomDiffEvent(&rng, kAttrs, kDomain, /*p_present=*/0.8)));
    }
    matcher->MatchBatch(batch, &results);
    for (size_t lane = 0; lane < batch.size(); ++lane) {
      oracle.Match(batch[lane], &want);
      ASSERT_EQ(Sorted(results.matches(lane)), Sorted(want))
          << "MatchBatch round " << round << " lane " << lane;
      matcher->Match(batch[lane], &got);
      ASSERT_EQ(Sorted(got), Sorted(want))
          << "Match round " << round << " lane " << lane;
    }
  }
  EXPECT_GT(matcher->maintenance_stats().sweeps, 0u);
  EXPECT_GT(matcher->maintenance_stats().subscriptions_moved, 0u);
}

}  // namespace
}  // namespace vfps
