// Copyright 2026 The vfps Authors.
// Tests for the dynamic maintenance algorithm (Section 4): table creation
// once cluster benefit margins grow, table deletion when benefits drop,
// vote withdrawal, adaptation to drifting workloads, and correctness under
// aggressive maintenance settings.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/core/batch_result.h"
#include "src/matcher/dynamic_matcher.h"
#include "src/matcher/naive_matcher.h"
#include "src/util/rng.h"
#include "src/workload/workload_generator.h"

namespace vfps {
namespace {

std::vector<SubscriptionId> Sorted(std::vector<SubscriptionId> v) {
  std::sort(v.begin(), v.end());
  return v;
}

/// Aggressive options so maintenance fires in small tests.
DynamicOptions Aggressive() {
  DynamicOptions o;
  o.bm_max = 1.0;
  o.table_bm_max = 4.0;
  o.create_cost_factor = 0.002;  // create on the faintest saving
  o.b_delete = 10.0;
  o.sweep_period = 1000;
  return o;
}

/// Options that disable reorganization entirely (pure natural clustering).
DynamicOptions MaintenanceOff() {
  DynamicOptions o;
  o.bm_max = 1e18;
  o.table_bm_max = 1e18;
  o.sweep_period = 0;
  return o;
}

/// Feeds events so the matcher's ν/μ statistics reflect the workload.
void WarmStatistics(DynamicMatcher* m, WorkloadGenerator* gen, int events) {
  std::vector<SubscriptionId> out;
  for (int i = 0; i < events; ++i) m->Match(gen->NextEvent(), &out);
}

TEST(DynamicMatcherTest, CreatesMultiAttributeTableUnderPressure) {
  DynamicMatcher m(Aggressive(), /*use_prefetch=*/true,
                   /*observe_sample_rate=*/1);
  WorkloadSpec spec = workloads::W0(5000, /*seed=*/5);
  spec.value_hi = 5;  // tiny domain -> huge singleton clusters
  WorkloadGenerator gen(spec);

  // Let the matcher learn the event distribution first.
  WarmStatistics(&m, &gen, 200);
  for (const Subscription& s : gen.MakeSubscriptions(5000, 1)) {
    ASSERT_TRUE(m.AddSubscription(s).ok());
  }
  size_t multi = 0;
  for (const AttributeSet& schema : m.TableSchemas()) {
    multi += (schema.size() >= 2);
  }
  EXPECT_GE(multi, 1u) << "maintenance never created a conjunction table";
  EXPECT_GE(m.maintenance_stats().tables_created, 1u);
  EXPECT_GT(m.maintenance_stats().subscriptions_moved, 0u);
}

TEST(DynamicMatcherTest, StaysCorrectWhileReorganizing) {
  DynamicMatcher m(Aggressive(), true, 1);
  NaiveMatcher oracle;
  WorkloadSpec spec = workloads::W0(3000, /*seed=*/6);
  spec.value_hi = 8;
  WorkloadGenerator gen(spec);

  WarmStatistics(&m, &gen, 100);
  std::vector<Subscription> subs = gen.MakeSubscriptions(3000, 1);
  std::vector<SubscriptionId> expect, got;
  for (size_t i = 0; i < subs.size(); ++i) {
    ASSERT_TRUE(m.AddSubscription(subs[i]).ok());
    ASSERT_TRUE(oracle.AddSubscription(subs[i]).ok());
    if (i % 97 == 0) {
      Event e = gen.NextEvent();
      oracle.Match(e, &expect);
      m.Match(e, &got);
      ASSERT_EQ(Sorted(got), Sorted(expect)) << "after " << i << " inserts";
    }
  }
  // Reorganization happened and correctness held throughout.
  EXPECT_GT(m.maintenance_stats().clusters_distributed, 0u);
}

// Phase 2 with many live tables: seeded statistics and a low creation
// threshold make maintenance build dozens of 3- and 4-attribute tables on
// a small-domain W0. Per-event Match, MatchBatch in batches of 100
// (crossing a 64-lane mask word) and in one 300-event span (crossing the
// 256-lane chunk) and the naive oracle agree on every event. Events carry
// 26 of the 32 attributes, so some lanes lack a table's schema attribute
// and must skip its probe.
TEST(DynamicMatcherTest, ManyTablesBatchEqualsMatchEqualsNaive) {
  DynamicOptions options;
  options.bm_max = 0.25;
  options.table_bm_max = 2.0;
  options.create_cost_factor = 0.01;
  options.b_delete = 4.0;
  options.sweep_period = 1000;
  WorkloadSpec spec = workloads::W0(5000, /*seed=*/1);
  spec.value_hi = 4;  // small domain: events do match
  spec.event_value_hi = 4;
  spec.attrs_per_event = 26;
  WorkloadGenerator gen(spec);
  const std::vector<Subscription> subs = gen.MakeSubscriptions(5000, 1);
  const std::vector<Event> events = gen.MakeEvents(300);

  NaiveMatcher oracle;
  for (const Subscription& s : subs) {
    ASSERT_TRUE(oracle.AddSubscription(s).ok());
  }
  std::vector<std::vector<SubscriptionId>> expected(events.size());
  size_t total_matches = 0;
  for (size_t e = 0; e < events.size(); ++e) {
    oracle.Match(events[e], &expected[e]);
    expected[e] = Sorted(expected[e]);
    total_matches += expected[e].size();
  }
  ASSERT_GT(total_matches, events.size() / 2);

  DynamicMatcher m(options, /*use_prefetch=*/true, /*observe_sample_rate=*/16);
  gen.SeedStatistics(m.mutable_statistics(), 10000.0);
  for (const Subscription& s : subs) ASSERT_TRUE(m.AddSubscription(s).ok());
  size_t by_arity[5] = {};
  for (const AttributeSet& schema : m.TableSchemas()) {
    ++by_arity[std::min<size_t>(schema.size(), 4)];
  }
  EXPECT_GE(m.TableSchemas().size(), 32u);
  EXPECT_GT(by_arity[3], 0u);
  EXPECT_GT(by_arity[4], 0u);

  std::vector<SubscriptionId> got;
  for (size_t e = 0; e < events.size(); ++e) {
    m.Match(events[e], &got);
    ASSERT_EQ(Sorted(got), expected[e]) << "Match, event " << e;
  }
  BatchResult batch;
  for (size_t base = 0; base < events.size(); base += 100) {
    m.MatchBatch(std::span<const Event>(events).subspan(base, 100), &batch);
    for (size_t e = 0; e < 100; ++e) {
      ASSERT_EQ(Sorted(batch.matches(e)), expected[base + e])
          << "MatchBatch(100), event " << base + e;
    }
  }
  m.MatchBatch(events, &batch);
  for (size_t e = 0; e < events.size(); ++e) {
    ASSERT_EQ(Sorted(batch.matches(e)), expected[e])
        << "MatchBatch(300), event " << e;
  }
}

TEST(DynamicMatcherTest, DeletesStarvedTables) {
  DynamicOptions options = Aggressive();
  DynamicMatcher m(options, true, 1);
  WorkloadSpec spec = workloads::W0(4000, /*seed=*/7);
  spec.value_hi = 4;
  WorkloadGenerator gen(spec);

  WarmStatistics(&m, &gen, 100);
  std::vector<Subscription> subs = gen.MakeSubscriptions(4000, 1);
  for (const Subscription& s : subs) ASSERT_TRUE(m.AddSubscription(s).ok());
  ASSERT_GE(m.maintenance_stats().tables_created, 1u);

  // Remove everything; multi-attribute tables must be reclaimed once their
  // population falls below Bdelete.
  for (const Subscription& s : subs) {
    ASSERT_TRUE(m.RemoveSubscription(s.id()).ok());
  }
  EXPECT_EQ(m.subscription_count(), 0u);
  EXPECT_GE(m.maintenance_stats().tables_deleted, 1u);
  EXPECT_TRUE(m.TableSchemas().empty())
      << "multi-attribute table survived with zero subscriptions";
}

TEST(DynamicMatcherTest, AdaptsToSchemaDrift) {
  // Figure 4(a) in miniature: subscriptions shift from one attribute window
  // to another; the matcher must end up with tables for the new window.
  DynamicMatcher m(Aggressive(), true, 1);
  WorkloadSpec old_spec = workloads::W3(2000, /*seed=*/8);
  old_spec.value_hi = 6;
  WorkloadSpec new_spec = workloads::W4(2000, /*seed=*/9);
  new_spec.value_hi = 6;
  WorkloadGenerator old_gen(old_spec), new_gen(new_spec);

  WarmStatistics(&m, &old_gen, 100);
  std::vector<Subscription> old_subs = old_gen.MakeSubscriptions(2000, 1);
  for (const Subscription& s : old_subs) {
    ASSERT_TRUE(m.AddSubscription(s).ok());
  }
  // Drift: delete the old subscriptions, insert new-window ones.
  std::vector<Subscription> new_subs =
      new_gen.MakeSubscriptions(2000, 100000);
  for (size_t i = 0; i < new_subs.size(); ++i) {
    ASSERT_TRUE(m.RemoveSubscription(old_subs[i].id()).ok());
    ASSERT_TRUE(m.AddSubscription(new_subs[i]).ok());
  }
  WarmStatistics(&m, &new_gen, 100);

  // Any multi-attribute table should now target the new window (>= 16).
  bool has_new_window_table = false;
  for (const AttributeSet& schema : m.TableSchemas()) {
    if (schema.size() >= 2 && schema.ids()[0] >= 16) {
      has_new_window_table = true;
    }
  }
  EXPECT_TRUE(has_new_window_table);

  // And correctness must hold for new-window events.
  NaiveMatcher oracle;
  for (const Subscription& s : new_subs) {
    ASSERT_TRUE(oracle.AddSubscription(s).ok());
  }
  std::vector<SubscriptionId> expect, got;
  for (int i = 0; i < 20; ++i) {
    Event e = new_gen.NextEvent();
    oracle.Match(e, &expect);
    m.Match(e, &got);
    ASSERT_EQ(Sorted(got), Sorted(expect));
  }
}

TEST(DynamicMatcherTest, ReducesChecksVersusSingletonClustering) {
  // The point of the dynamic algorithm: fewer subscription checks per event
  // than propagation on a conjunction-friendly workload.
  WorkloadSpec spec = workloads::W0(20000, /*seed=*/10);
  spec.value_hi = 10;
  WorkloadGenerator gen1(spec), gen2(spec);

  DynamicMatcher dynamic(Aggressive(), true, 1);
  WarmStatistics(&dynamic, &gen1, 200);
  for (const Subscription& s : gen1.MakeSubscriptions(20000, 1)) {
    ASSERT_TRUE(dynamic.AddSubscription(s).ok());
  }

  // Propagation equivalent: dynamic with maintenance disabled (huge
  // thresholds) behaves exactly like singleton clustering.
  DynamicMatcher singleton(MaintenanceOff(), true, 1);
  std::vector<SubscriptionId> out;
  for (int i = 0; i < 200; ++i) singleton.Match(gen2.NextEvent(), &out);
  for (const Subscription& s : gen2.MakeSubscriptions(20000, 1)) {
    ASSERT_TRUE(singleton.AddSubscription(s).ok());
  }

  dynamic.ResetStats();
  singleton.ResetStats();
  for (int i = 0; i < 100; ++i) {
    dynamic.Match(gen1.NextEvent(), &out);
    singleton.Match(gen2.NextEvent(), &out);
  }
  EXPECT_LT(dynamic.stats().subscription_checks,
            singleton.stats().subscription_checks / 2)
      << "dynamic clustering did not reduce checks";
}

// The served configuration from a cold start: subscriptions loaded before
// any event stay on singleton placement (no benefit can be priced at zero
// event weight), and events alone — MatchBatch, no subscription change —
// then drive the census that builds a table. The naive oracle checks every
// event before, during and after it.
TEST(DynamicMatcherTest, ColdStartConvergesFromEventsAlone) {
  constexpr size_t kSubs = 6000;
  constexpr size_t kBatch = 100;
  WorkloadSpec spec = workloads::W0(kSubs, /*seed=*/11);
  spec.value_hi = 8;  // small domain: events do match
  spec.event_value_hi = 8;
  WorkloadGenerator gen(spec);
  const std::vector<Subscription> subs = gen.MakeSubscriptions(kSubs, 1);
  // A pool of events replayed until the census has run; its oracle answers
  // are computed once.
  const std::vector<Event> pool = gen.MakeEvents(1000);
  NaiveMatcher oracle;
  for (const Subscription& s : subs) {
    ASSERT_TRUE(oracle.AddSubscription(s).ok());
  }
  std::vector<std::vector<SubscriptionId>> expected(pool.size());
  for (size_t e = 0; e < pool.size(); ++e) {
    oracle.Match(pool[e], &expected[e]);
    expected[e] = Sorted(expected[e]);
  }
  // Enough events to sample kColdCensusSamples of them, plus the census.
  const uint64_t kSampleRate = 16;
  const size_t kEvents =
      DynamicMatcher::kColdCensusSamples * kSampleRate + 40 * kBatch;

  for (const uint64_t sweep_period : {DynamicOptions{}.sweep_period,
                                      uint64_t{0}}) {
    SCOPED_TRACE(sweep_period == 0 ? "sweeps disabled" : "default options");
    DynamicOptions options;
    options.sweep_period = sweep_period;
    DynamicMatcher m(options, /*use_prefetch=*/true, kSampleRate);
    for (const Subscription& s : subs) ASSERT_TRUE(m.AddSubscription(s).ok());
    EXPECT_TRUE(m.TableSchemas().empty());
    EXPECT_EQ(m.singleton_placed_count(), kSubs);
    EXPECT_EQ(m.maintenance_stats().clusters_distributed, 0u);

    BatchResult batch;
    std::vector<Event> events;
    // Subscription checks of the pool's first batch.
    auto checks_of_first_batch = [&] {
      const uint64_t before = m.stats().subscription_checks;
      m.MatchBatch(std::span<const Event>(pool).first(kBatch), &batch);
      return m.stats().subscription_checks - before;
    };
    const uint64_t first_checks = checks_of_first_batch();
    for (size_t done = 0; done < kEvents; done += kBatch) {
      const size_t base = done % pool.size();
      m.MatchBatch(std::span<const Event>(pool).subspan(base, kBatch),
                   &batch);
      for (size_t e = 0; e < kBatch; ++e) {
        ASSERT_EQ(Sorted(batch.matches(e)), expected[base + e])
            << "event " << done + e;
      }
    }
    const uint64_t last_checks = checks_of_first_batch();
    if (sweep_period == 0) {
      EXPECT_EQ(m.maintenance_stats().sweeps, 0u);
      EXPECT_TRUE(m.TableSchemas().empty());
      EXPECT_EQ(last_checks, first_checks);
    } else {
      EXPECT_EQ(m.maintenance_stats().sweeps, 1u);
      EXPECT_GE(m.TableSchemas().size(), 1u);
      EXPECT_GT(m.maintenance_stats().subscriptions_moved, 0u);
      EXPECT_LT(last_checks, first_checks / 2)
          << "the census did not cut checks per event";
    }
  }
}

TEST(DynamicMatcherTest, MaintenanceDisabledBehavesLikePropagation) {
  DynamicMatcher m(MaintenanceOff(), true, 1);
  Rng rng(12);
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(
        m.AddSubscription(Subscription::Create(
             i + 1, {Predicate(0, RelOp::kEq, rng.Range(1, 5)),
                     Predicate(1, RelOp::kEq, rng.Range(1, 5))}))
            .ok());
  }
  EXPECT_EQ(m.maintenance_stats().tables_created, 0u);
  EXPECT_EQ(m.maintenance_stats().clusters_distributed, 0u);
  EXPECT_TRUE(m.TableSchemas().empty());
  EXPECT_EQ(m.singleton_placed_count(), 500u);
}

}  // namespace
}  // namespace vfps
