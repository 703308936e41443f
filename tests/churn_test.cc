// Copyright 2026 The vfps Authors.
// Tests for the concurrent build of the clustered engine
// (ClusteredMatcherBase with epoch-published snapshots, exercised through
// DynamicMatcher): serial byte-equality against the naive oracle,
// placement moves while ν shifts, multi-attribute tables created and
// deleted under churn, MatchBatch ≡ Match, telemetry, and — tagged
// `concurrency` for the TSan CI job — chaos-churn soaks proving the weak
// consistency contract: a Match overlapping subscribe/unsubscribe may or
// may not see the in-flight subscriptions, but subscriptions stable across
// the call are matched exactly (no MISS), nothing untouched is invented
// (no PHANTOM), and results carry no duplicates.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "src/matcher/dynamic_matcher.h"
#include "src/matcher/naive_matcher.h"
#include "src/pubsub/broker.h"
#include "src/telemetry/metrics.h"
#include "src/util/rng.h"
#include "src/util/sync.h"
#include "src/verify/differential.h"
#include "src/workload/workload_generator.h"
#include "src/workload/workload_spec.h"

namespace vfps {
namespace {

std::vector<SubscriptionId> Sorted(std::vector<SubscriptionId> v) {
  std::sort(v.begin(), v.end());
  return v;
}

/// A concurrent DynamicMatcher; `sweep_period` small enough to make the
/// incremental sweeps (and their placement moves) run in a short test.
std::unique_ptr<DynamicMatcher> ConcurrentDynamic(
    uint64_t sweep_period = DynamicOptions{}.sweep_period,
    uint32_t observe_sample_rate = 16) {
  DynamicOptions options;
  options.sweep_period = sweep_period;
  return std::make_unique<DynamicMatcher>(options, /*use_prefetch=*/true,
                                          observe_sample_rate,
                                          /*concurrent=*/true);
}

// --- serial correctness ------------------------------------------------------

TEST(ChurnTest, MatchesSimpleSubscriptions) {
  auto matcher = ConcurrentDynamic();
  EXPECT_STREQ(matcher->name(), "dynamic");
  EXPECT_TRUE(matcher->concurrent());
  EXPECT_FALSE(DynamicMatcher().concurrent());

  std::vector<Predicate> preds;
  preds.emplace_back(0, RelOp::kEq, 5);
  preds.emplace_back(1, RelOp::kLe, 10);
  ASSERT_TRUE(
      matcher->AddSubscription(Subscription::Create(1, std::move(preds)))
          .ok());
  preds.clear();
  preds.emplace_back(1, RelOp::kGt, 3);
  ASSERT_TRUE(
      matcher->AddSubscription(Subscription::Create(2, std::move(preds)))
          .ok());
  EXPECT_EQ(matcher->subscription_count(), 2u);

  std::vector<SubscriptionId> out;
  matcher->Match(Event::CreateUnchecked({{0, 5}, {1, 7}}), &out);
  EXPECT_EQ(Sorted(out), (std::vector<SubscriptionId>{1, 2}));
  matcher->Match(Event::CreateUnchecked({{0, 4}, {1, 7}}), &out);
  EXPECT_EQ(Sorted(out), (std::vector<SubscriptionId>{2}));
  matcher->Match(Event::CreateUnchecked({{0, 5}}), &out);
  EXPECT_EQ(out, (std::vector<SubscriptionId>{}));
}

TEST(ChurnTest, DuplicateAndMissingIdsFail) {
  auto matcher = ConcurrentDynamic();
  std::vector<Predicate> preds;
  preds.emplace_back(0, RelOp::kEq, 1);
  ASSERT_TRUE(
      matcher->AddSubscription(Subscription::Create(7, std::move(preds)))
          .ok());
  preds.clear();
  preds.emplace_back(0, RelOp::kEq, 2);
  EXPECT_EQ(
      matcher->AddSubscription(Subscription::Create(7, std::move(preds)))
          .code(),
      StatusCode::kAlreadyExists);
  EXPECT_EQ(matcher->RemoveSubscription(8).code(), StatusCode::kNotFound);
  EXPECT_TRUE(matcher->RemoveSubscription(7).ok());
  EXPECT_EQ(matcher->RemoveSubscription(7).code(), StatusCode::kNotFound);
  EXPECT_EQ(matcher->subscription_count(), 0u);
}

TEST(ChurnTest, SerialChurnStaysByteIdenticalToNaive) {
  Rng rng(17);
  NaiveMatcher oracle;
  auto matcher = ConcurrentDynamic(/*sweep_period=*/64);
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
  // attribute 0 common. The events readers match are sampled onto the
  // writer, and the incremental sweeps the churn below keeps triggering
  // relocate records — matches must not change.
  auto matcher = ConcurrentDynamic(/*sweep_period=*/8,
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
    Event event =
        RandomDiffEvent(&rng, /*attrs=*/5, /*domain=*/6, /*p_present=*/0.9);
    std::vector<EventPair> pairs = event.pairs();
    if (!pairs.empty() && pairs[0].attribute == 0) pairs[0].value = 1;
    event = Event::CreateUnchecked(std::move(pairs));
    oracle.Match(event, &want);
    matcher->Match(event, &got);
    ASSERT_EQ(Sorted(got), Sorted(want)) << "diverged at round " << round;
    // Churn on an attribute no event carries: it never matches, but each
    // change folds the samples and advances the sweep.
    ASSERT_TRUE(matcher
                    ->AddSubscription(Subscription::Create(
                        ++churn_id, {Predicate(50, RelOp::kEq, 1)}))
                    .ok());
    ASSERT_TRUE(matcher->RemoveSubscription(churn_id).ok());
  }
  EXPECT_GT(matcher->maintenance_stats().sweeps, 0u);
  EXPECT_GT(matcher->maintenance_stats().subscriptions_moved, 0u);
}

TEST(ChurnTest, EpochStatsAdvanceUnderChurn) {
  auto matcher = ConcurrentDynamic();
  std::vector<Predicate> preds;
  for (SubscriptionId id = 1; id <= 64; ++id) {
    preds.clear();
    preds.emplace_back(0, RelOp::kEq, static_cast<Value>(id % 4));
    ASSERT_TRUE(
        matcher->AddSubscription(Subscription::Create(id, preds)).ok());
  }
  for (SubscriptionId id = 1; id <= 32; ++id) {
    ASSERT_TRUE(matcher->RemoveSubscription(id).ok());
  }
  const EpochManager& epoch = *matcher->epoch();
  EXPECT_GT(epoch.retired_total(), 0u);
  EXPECT_EQ(epoch.pinned_readers(), 0u);
  // Everything retired is eventually reclaimed (no readers are pinned).
  EXPECT_EQ(epoch.retired_total(),
            epoch.reclaimed_total() + epoch.limbo_depth());
  EXPECT_EQ(DynamicMatcher().epoch(), nullptr);
}

TEST(ChurnTest, EveryClusteredAlgorithmBuildsConcurrent) {
  for (Algorithm a : {Algorithm::kPropagation, Algorithm::kPropagationPrefetch,
                      Algorithm::kStatic, Algorithm::kDynamic}) {
    EXPECT_TRUE(IsClustered(a));
    auto concurrent = MakeMatcher(a, /*concurrent=*/true);
    auto serial = MakeMatcher(a);
    EXPECT_TRUE(
        static_cast<const ClusteredMatcherBase&>(*concurrent).concurrent());
    EXPECT_FALSE(
        static_cast<const ClusteredMatcherBase&>(*serial).concurrent());
  }
  EXPECT_FALSE(IsClustered(Algorithm::kCounting));
  EXPECT_FALSE(AlgorithmFromString("churn").ok());
}

TEST(ChurnTest, EpochGaugesRegisterThroughMatcherTelemetry) {
  std::unique_ptr<Matcher> matcher =
      MakeMatcher(Algorithm::kDynamic, /*concurrent=*/true);
  MetricsRegistry metrics;
  matcher->AttachTelemetry(&metrics);
  ASSERT_TRUE(matcher
                  ->AddSubscription(Subscription::Create(
                      1, {Predicate(0, RelOp::kLe, 400)}))
                  .ok());
  ASSERT_TRUE(matcher->RemoveSubscription(1).ok());
  const std::string text = metrics.ExportPrometheus();
  EXPECT_NE(text.find("vfps_epoch_pinned_readers"), std::string::npos);
  EXPECT_NE(text.find("vfps_epoch_limbo_depth"), std::string::npos);
  EXPECT_NE(text.find("vfps_epoch_reclaimed_total"), std::string::npos);
  EXPECT_EQ(metrics.GaugeValue("vfps_epoch_pinned_readers"), 0);
  EXPECT_GT(metrics.GaugeValue("vfps_epoch_reclaimed_total"), 0);
  matcher->AttachTelemetry(nullptr);
}

TEST(ChurnTest, ConcurrentBuildRecordsPerEventAndNativeBatchTelemetry) {
  auto matcher = ConcurrentDynamic();
  MetricsRegistry metrics;
  matcher->AttachTelemetry(&metrics);
  ASSERT_TRUE(matcher
                  ->AddSubscription(Subscription::Create(
                      1, {Predicate(0, RelOp::kEq, 5)}))
                  .ok());
  std::vector<SubscriptionId> out;
  for (int i = 0; i < 10; ++i) {
    matcher->Match(Event::CreateUnchecked({{0, 5}}), &out);
  }
  std::vector<Event> batch(6, Event::CreateUnchecked({{0, 5}}));
  BatchResult results;
  matcher->MatchBatch(batch, &results);
  for (size_t lane = 0; lane < batch.size(); ++lane) {
    EXPECT_EQ(results.matches(lane), (std::vector<SubscriptionId>{1}));
  }
  EXPECT_EQ(matcher->stats().events, 16u);

  // Per-event recording only exists when hot-path telemetry is compiled in.
#if VFPS_TELEMETRY
  Histogram* match_ns = metrics.GetHistogram("vfps_matcher_match_ns");
  EXPECT_EQ(match_ns->count(), 10u);
  EXPECT_EQ(metrics.GetHistogram("vfps_matcher_phase1_ns")->count(), 10u);
  EXPECT_EQ(metrics.GetHistogram("vfps_matcher_phase2_ns")->count(), 10u);
  // MatchBatch is the native kernel, not the per-event default loop (which
  // would record one match_ns sample per batched event as well).
  EXPECT_EQ(metrics.GetHistogram("vfps_matcher_batch_size")->count(), 1u);
  EXPECT_EQ(metrics.GetCounter("vfps_matcher_events_total")->value(), 16u);
  EXPECT_EQ(metrics.GetCounter("vfps_matcher_matches_total")->value(), 16u);
#endif  // VFPS_TELEMETRY
  matcher->AttachTelemetry(nullptr);
}

// --- chaos-churn containment soaks -------------------------------------------

/// Writers (`writer(rng, log)`, serialized by the harness lock and
/// expected to mutate oracle and matcher alike and log every touched id)
/// race readers that Match WITHOUT the lock, truly concurrent with the
/// writers, checking containment against oracle snapshots taken before
/// and after:
///   * MISS:    an id matching before the call and untouched during it must
///              be reported;
///   * PHANTOM: a reported id untouched during the call must have been
///              matching before it;
///   * DUP:     the result carries no duplicates.
/// `writer` returns false when it has no work left.
void RunContainmentSoak(
    Matcher* matcher, NaiveMatcher* oracle, int writers, int readers,
    const std::function<bool(Rng*, std::vector<SubscriptionId>*)>& writer,
    const std::function<Event(Rng*)>& make_event) {
  Mutex mu(LockRank::kVerifyHarness, "churn_harness");
  std::vector<SubscriptionId> mutation_log;  // every touched id, in order
  std::atomic<bool> done{false};

  auto write_loop = [&](uint64_t tid) {
    Rng rng(0x9e3779b9u * (tid + 1));
    for (;;) {
      MutexLock lock(mu);
      if (!writer(&rng, &mutation_log)) break;
    }
  };

  auto read_loop = [&](uint64_t tid) {
    Rng rng(0x85ebca6bu * (tid + 1));
    std::vector<SubscriptionId> expect_start, got;
    // sync-relaxed-ok: control flag; harness state is read under mu.
    while (!done.load(std::memory_order_relaxed)) {
      Event event = make_event(&rng);
      size_t v1;
      {
        MutexLock lock(mu);
        v1 = mutation_log.size();
        oracle->Match(event, &expect_start);
      }
      // The probe under test: no harness lock, concurrent with writers.
      matcher->Match(event, &got);
      std::unordered_set<SubscriptionId> touched;
      std::unordered_set<SubscriptionId> expect_set(expect_start.begin(),
                                                    expect_start.end());
      {
        MutexLock lock(mu);
        for (size_t i = v1; i < mutation_log.size(); ++i) {
          touched.insert(mutation_log[i]);
        }
      }
      std::unordered_set<SubscriptionId> got_set;
      for (SubscriptionId id : got) {
        ASSERT_TRUE(got_set.insert(id).second)
            << "DUP: id " << id << " reported twice";
        if (touched.count(id) == 0) {
          ASSERT_TRUE(expect_set.count(id) > 0)
              << "PHANTOM: id " << id
              << " reported but neither matching before the call nor "
                 "touched during it";
        }
      }
      for (SubscriptionId id : expect_start) {
        if (touched.count(id) == 0) {
          ASSERT_TRUE(got_set.count(id) > 0)
              << "MISS: id " << id
              << " matched before the call, untouched during it, but not "
                 "reported";
        }
      }
      std::this_thread::yield();
    }
  };

  std::vector<std::thread> threads;
  for (int t = 0; t < writers; ++t) {
    threads.emplace_back(write_loop, static_cast<uint64_t>(t));
  }
  for (int t = 0; t < readers; ++t) {
    threads.emplace_back(read_loop, static_cast<uint64_t>(t + writers));
  }
  for (int t = 0; t < writers; ++t) threads[t].join();
  done.store(true);
  for (size_t t = writers; t < threads.size(); ++t) threads[t].join();
}

/// Quiescent again: the matcher must agree with the oracle exactly.
void ExpectQuiescentAgreement(Matcher* matcher, NaiveMatcher* oracle,
                              const std::function<Event(Rng*)>& make_event) {
  Rng rng(99);
  std::vector<SubscriptionId> want, got;
  for (int e = 0; e < 50; ++e) {
    Event event = make_event(&rng);
    oracle->Match(event, &want);
    matcher->Match(event, &got);
    ASSERT_EQ(Sorted(got), Sorted(want));
  }
}

TEST(ChurnTest, ChaosChurnContainmentSoak) {
  auto matcher = ConcurrentDynamic(/*sweep_period=*/128);
  NaiveMatcher oracle;
  constexpr uint32_t kAttrs = 6;
  constexpr Value kDomain = 8;
  std::vector<SubscriptionId> live;
  SubscriptionId next_id = 1;
  int remaining = 4000;
  auto make_event = [](Rng* rng) {
    return RandomDiffEvent(rng, kAttrs, kDomain, /*p_present=*/0.8);
  };
  RunContainmentSoak(
      matcher.get(), &oracle, /*writers=*/2, /*readers=*/3,
      [&](Rng* rng, std::vector<SubscriptionId>* log) {
        if (remaining-- <= 0) return false;
        if (live.empty() || rng->NextDouble() < 0.55) {
          Subscription s =
              RandomDiffSubscription(rng, next_id++, kAttrs, kDomain);
          EXPECT_TRUE(oracle.AddSubscription(s).ok());
          EXPECT_TRUE(matcher->AddSubscription(s).ok());
          live.push_back(s.id());
          log->push_back(s.id());
        } else {
          const size_t pick = rng->Below(live.size());
          const SubscriptionId victim = live[pick];
          live[pick] = live.back();
          live.pop_back();
          EXPECT_TRUE(oracle.RemoveSubscription(victim).ok());
          EXPECT_TRUE(matcher->RemoveSubscription(victim).ok());
          log->push_back(victim);
        }
        return true;
      },
      make_event);
  ExpectQuiescentAgreement(matcher.get(), &oracle, make_event);
  EXPECT_EQ(matcher->epoch()->pinned_readers(), 0u);
}

// Multi-attribute tables appear (a W0 population whose two fixed equality
// attributes beat any singleton) and vanish (removing it drops every table
// below Bdelete) while readers race the writer. Table creation moves whole
// cluster lists into the new table; deletion re-places its subscriptions
// before the table is unpublished — both must be invisible to readers.
TEST(ChurnTest, TablesCreatedAndDeletedUnderChurnSoak) {
  WorkloadGenerator gen(workloads::W0(3000));
  std::vector<Subscription> subs = gen.MakeSubscriptions(3000, 1);
  std::vector<Event> events = gen.MakeEvents(256);
  auto matcher = ConcurrentDynamic(/*sweep_period=*/256);
  gen.SeedStatistics(matcher->mutable_statistics(), 10000.0);
  NaiveMatcher oracle;
  Rng order_rng(3);
  std::vector<SubscriptionId> removal_order;
  for (const Subscription& s : subs) removal_order.push_back(s.id());
  for (size_t i = removal_order.size(); i > 1; --i) {
    std::swap(removal_order[i - 1], removal_order[order_rng.Below(i)]);
  }
  size_t added = 0, removed = 0;
  RunContainmentSoak(
      matcher.get(), &oracle, /*writers=*/1, /*readers=*/3,
      [&](Rng* rng, std::vector<SubscriptionId>* log) {
        (void)rng;
        if (added < subs.size()) {
          const Subscription& s = subs[added++];
          EXPECT_TRUE(oracle.AddSubscription(s).ok());
          EXPECT_TRUE(matcher->AddSubscription(s).ok());
          log->push_back(s.id());
          return true;
        }
        if (removed < removal_order.size()) {
          const SubscriptionId id = removal_order[removed++];
          EXPECT_TRUE(oracle.RemoveSubscription(id).ok());
          EXPECT_TRUE(matcher->RemoveSubscription(id).ok());
          log->push_back(id);
          return true;
        }
        return false;
      },
      [&](Rng* rng) { return events[rng->Below(events.size())]; });
  EXPECT_GT(matcher->maintenance_stats().tables_created, 0u);
  EXPECT_GT(matcher->maintenance_stats().tables_deleted, 0u);
  EXPECT_TRUE(matcher->TableSchemas().empty());
  EXPECT_EQ(matcher->subscription_count(), 0u);
  EXPECT_EQ(matcher->epoch()->pinned_readers(), 0u);
}

// Stable subscriptions, churn that never matches (an attribute no event
// carries) but keeps the writer publishing and sweeping, and skewed events
// whose samples shift ν so the sweeps relocate stable subscriptions while
// readers match: concurrent MatchBatch lanes and Match must both equal the
// oracle exactly.
TEST(ChurnTest, MatchBatchEqualsMatchUnderChurnSoak) {
  constexpr uint32_t kAttrs = 5;
  constexpr Value kDomain = 6;
  auto matcher = ConcurrentDynamic(/*sweep_period=*/16,
                                   /*observe_sample_rate=*/1);
  NaiveMatcher oracle;
  Rng setup_rng(31);
  for (SubscriptionId id = 1; id <= 500; ++id) {
    Subscription s = RandomDiffSubscription(&setup_rng, id, kAttrs, kDomain);
    ASSERT_TRUE(oracle.AddSubscription(s).ok());
    ASSERT_TRUE(matcher->AddSubscription(s).ok());
  }

  std::atomic<bool> stop{false};
  std::thread churner([&] {
    Rng rng(77);
    SubscriptionId id = 100000;
    // sync-relaxed-ok: independent control flag.
    while (!stop.load(std::memory_order_relaxed)) {
      ++id;
      VFPS_CHECK(matcher
                     ->AddSubscription(Subscription::Create(
                         id, {Predicate(40, RelOp::kEq,
                                        rng.Range(1, kDomain))}))
                     .ok());
      VFPS_CHECK(matcher->RemoveSubscription(id).ok());
      std::this_thread::yield();
    }
  });

  Mutex mu(LockRank::kVerifyHarness, "batch_harness");
  std::vector<std::thread> readers;
  constexpr int kReaders = 3;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(0xc2b2ae35u * (t + 1));
      std::vector<Event> batch;
      BatchResult results;
      std::vector<SubscriptionId> want, got;
      for (int round = 0; round < 40; ++round) {
        batch.clear();
        for (int e = 0; e < 24; ++e) {
          std::vector<EventPair> pairs =
              RandomDiffEvent(&rng, kAttrs, kDomain, /*p_present=*/0.8)
                  .pairs();
          if (!pairs.empty() && pairs[0].attribute == 0) pairs[0].value = 1;
          batch.push_back(Event::CreateUnchecked(std::move(pairs)));
        }
        matcher->MatchBatch(batch, &results);
        for (size_t lane = 0; lane < batch.size(); ++lane) {
          matcher->Match(batch[lane], &got);
          {
            // The oracle is not thread-safe; the matcher probes above ran
            // without this lock.
            MutexLock lock(mu);
            oracle.Match(batch[lane], &want);
          }
          ASSERT_EQ(Sorted(results.matches(lane)), Sorted(want))
              << "MatchBatch lane " << lane;
          ASSERT_EQ(Sorted(got), Sorted(want)) << "Match lane " << lane;
        }
      }
    });
  }
  for (std::thread& t : readers) t.join();
  stop.store(true);
  churner.join();
  EXPECT_GT(matcher->maintenance_stats().sweeps, 0u);
}

}  // namespace
}  // namespace vfps
