// Copyright 2026 The vfps Authors.
// Tests for the system layer: the EventStore (reverse matching, expiry,
// lazy index cleanup) and the Broker (subscribe/publish/notify lifecycle,
// DNF subscriptions, validity intervals, string front door).

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <vector>

#include "src/lang/parser.h"
#include "src/pubsub/broker.h"
#include "src/pubsub/event_store.h"

namespace vfps {
namespace {

// --- EventStore -----------------------------------------------------------------

TEST(EventStoreTest, InsertFindRemove) {
  EventStore store;
  EventId id = store.Insert(Event::CreateUnchecked({{0, 1}}), kNeverExpires);
  EXPECT_EQ(store.size(), 1u);
  ASSERT_NE(store.Find(id), nullptr);
  EXPECT_EQ(store.Find(id)->Find(0), 1);
  EXPECT_TRUE(store.Remove(id));
  EXPECT_FALSE(store.Remove(id));
  EXPECT_EQ(store.Find(id), nullptr);
  EXPECT_EQ(store.size(), 0u);
}

TEST(EventStoreTest, ReverseMatchingFindsSatisfyingEvents) {
  EventStore store;
  EventId cheap =
      store.Insert(Event::CreateUnchecked({{0, 100}, {1, 5}}), kNeverExpires);
  EventId pricey =
      store.Insert(Event::CreateUnchecked({{0, 100}, {1, 50}}), kNeverExpires);
  EventId other =
      store.Insert(Event::CreateUnchecked({{0, 200}, {1, 5}}), kNeverExpires);
  (void)other;

  Subscription s = Subscription::Create(
      1, {Predicate(0, RelOp::kEq, 100), Predicate(1, RelOp::kLe, 10)});
  std::vector<EventId> hits;
  store.MatchSubscription(s, &hits);
  EXPECT_EQ(hits, (std::vector<EventId>{cheap}));

  // Pure range subscription (no equality candidates).
  Subscription r = Subscription::Create(2, {Predicate(1, RelOp::kGt, 10)});
  store.MatchSubscription(r, &hits);
  EXPECT_EQ(hits, (std::vector<EventId>{pricey}));

  // Empty subscription matches all stored events.
  Subscription all = Subscription::Create(3, {});
  store.MatchSubscription(all, &hits);
  EXPECT_EQ(hits.size(), 3u);
}

TEST(EventStoreTest, UnknownAttributeMatchesNothing) {
  EventStore store;
  store.Insert(Event::CreateUnchecked({{0, 1}}), kNeverExpires);
  Subscription s = Subscription::Create(1, {Predicate(99, RelOp::kGt, 0)});
  std::vector<EventId> hits;
  store.MatchSubscription(s, &hits);
  EXPECT_TRUE(hits.empty());
}

TEST(EventStoreTest, ExpiryDropsOldEvents) {
  EventStore store;
  EventId e1 = store.Insert(Event::CreateUnchecked({{0, 1}}), 10);
  EventId e2 = store.Insert(Event::CreateUnchecked({{0, 2}}), 20);
  EventId e3 = store.Insert(Event::CreateUnchecked({{0, 3}}), kNeverExpires);
  EXPECT_EQ(store.ExpireUpTo(5), 0u);
  EXPECT_EQ(store.size(), 3u);
  EXPECT_EQ(store.ExpireUpTo(10), 1u);
  EXPECT_EQ(store.Find(e1), nullptr);
  EXPECT_EQ(store.ExpireUpTo(100), 1u);
  EXPECT_EQ(store.Find(e2), nullptr);
  ASSERT_NE(store.Find(e3), nullptr);
  EXPECT_EQ(store.size(), 1u);
}

TEST(EventStoreTest, LazyIndexSurvivesHeavyChurn) {
  EventStore store;
  // Insert and remove enough to force compactions.
  std::vector<EventId> ids;
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 600; ++i) {
      ids.push_back(
          store.Insert(Event::CreateUnchecked({{0, i % 7}}), kNeverExpires));
    }
    for (size_t i = 0; i + 1 < ids.size(); i += 2) store.Remove(ids[i]);
    ids.clear();
    // Matching still works and returns only live events.
    Subscription s = Subscription::Create(1, {Predicate(0, RelOp::kEq, 3)});
    std::vector<EventId> hits;
    store.MatchSubscription(s, &hits);
    for (EventId id : hits) ASSERT_NE(store.Find(id), nullptr);
  }
}

// --- Broker -----------------------------------------------------------------------

TEST(BrokerTest, SubscribePublishNotify) {
  Broker broker;
  std::vector<SubscriptionId> fired;
  auto pred = broker.Pred("price", "<=", 400);
  ASSERT_TRUE(pred.ok());
  auto sub = broker.Subscribe(
      {pred.value()},
      [&](const Notification& n) { fired.push_back(n.subscription); });
  ASSERT_TRUE(sub.ok());

  auto r1 = broker.Publish({broker.Pair("price", 350)});
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(r1.value().matches, 1u);
  auto r2 = broker.Publish({broker.Pair("price", 500)});
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2.value().matches, 0u);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0], sub.value());
}

TEST(BrokerTest, StringValuesInternConsistently) {
  Broker broker;
  int hits = 0;
  auto movie = broker.Pred("movie", "=", std::string("groundhog day"));
  ASSERT_TRUE(movie.ok());
  ASSERT_TRUE(broker
                  .Subscribe({movie.value()},
                             [&](const Notification&) { ++hits; })
                  .ok());
  ASSERT_TRUE(
      broker.Publish({broker.Pair("movie", std::string("groundhog day"))})
          .ok());
  ASSERT_TRUE(
      broker.Publish({broker.Pair("movie", std::string("other film"))}).ok());
  EXPECT_EQ(hits, 1);
  // Range operators over strings are rejected.
  EXPECT_FALSE(broker.Pred("movie", "<", std::string("m")).ok());
}

TEST(BrokerTest, UnsubscribeStopsNotifications) {
  Broker broker;
  int hits = 0;
  auto p = broker.Pred("x", "=", 1);
  ASSERT_TRUE(p.ok());
  auto sub =
      broker.Subscribe({p.value()}, [&](const Notification&) { ++hits; });
  ASSERT_TRUE(sub.ok());
  ASSERT_TRUE(broker.Unsubscribe(sub.value()).ok());
  EXPECT_EQ(broker.Unsubscribe(sub.value()).code(), StatusCode::kNotFound);
  ASSERT_TRUE(broker.Publish({broker.Pair("x", 1)}).ok());
  EXPECT_EQ(hits, 0);
  EXPECT_EQ(broker.subscription_count(), 0u);
}

TEST(BrokerTest, DnfNotifiesOncePerEvent) {
  Broker broker;
  int hits = 0;
  auto cheap = broker.Pred("price", "<", 10);
  auto nearby = broker.Pred("distance", "<", 5);
  ASSERT_TRUE(cheap.ok() && nearby.ok());
  auto sub = broker.SubscribeDnf({{cheap.value()}, {nearby.value()}},
                                 [&](const Notification&) { ++hits; });
  ASSERT_TRUE(sub.ok());
  // Both disjuncts match: exactly one notification.
  auto r = broker.Publish(
      {broker.Pair("price", 5), broker.Pair("distance", 2)});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().matches, 1u);
  EXPECT_EQ(hits, 1);
  // One disjunct matches.
  ASSERT_TRUE(
      broker.Publish({broker.Pair("price", 5), broker.Pair("distance", 50)})
          .ok());
  EXPECT_EQ(hits, 2);
  // Neither.
  ASSERT_TRUE(
      broker.Publish({broker.Pair("price", 50), broker.Pair("distance", 50)})
          .ok());
  EXPECT_EQ(hits, 2);
  // Unsubscribing removes all disjuncts.
  ASSERT_TRUE(broker.Unsubscribe(sub.value()).ok());
  ASSERT_TRUE(
      broker.Publish({broker.Pair("price", 5), broker.Pair("distance", 2)})
          .ok());
  EXPECT_EQ(hits, 2);
}

TEST(BrokerTest, NewSubscriberSeesStoredEvents) {
  Broker broker;
  ASSERT_TRUE(broker.Publish({broker.Pair("price", 300)}).ok());
  ASSERT_TRUE(broker.Publish({broker.Pair("price", 800)}).ok());
  std::vector<EventId> seen;
  auto p = broker.Pred("price", "<=", 400);
  ASSERT_TRUE(p.ok());
  auto sub = broker.Subscribe(
      {p.value()}, [&](const Notification& n) { seen.push_back(n.event_id); });
  ASSERT_TRUE(sub.ok());
  // The cheap stored event was delivered at subscription time.
  EXPECT_EQ(seen.size(), 1u);
}

TEST(BrokerTest, ValidityIntervalsExpire) {
  Broker broker;
  int hits = 0;
  auto p = broker.Pred("x", "=", 1);
  ASSERT_TRUE(p.ok());
  // Subscription valid until t=100; events until t=50.
  ASSERT_TRUE(broker
                  .Subscribe({p.value()},
                             [&](const Notification&) { ++hits; },
                             /*expires_at=*/100)
                  .ok());
  ASSERT_TRUE(broker.Publish({broker.Pair("x", 1)}, /*expires_at=*/50).ok());
  EXPECT_EQ(hits, 1);
  EXPECT_EQ(broker.stored_event_count(), 1u);

  broker.AdvanceTime(60);
  EXPECT_EQ(broker.stored_event_count(), 0u);
  EXPECT_EQ(broker.subscription_count(), 1u);

  broker.AdvanceTime(100);
  EXPECT_EQ(broker.subscription_count(), 0u);
  ASSERT_TRUE(broker.Publish({broker.Pair("x", 1)}).ok());
  EXPECT_EQ(hits, 1);

  // Subscribing in the past is rejected.
  EXPECT_FALSE(broker
                   .Subscribe({p.value()}, [](const Notification&) {},
                              /*expires_at=*/50)
                   .ok());
}

TEST(BrokerTest, AllAlgorithmsBehaveIdentically) {
  for (Algorithm algo :
       {Algorithm::kNaive, Algorithm::kCounting, Algorithm::kPropagation,
        Algorithm::kPropagationPrefetch, Algorithm::kStatic,
        Algorithm::kDynamic}) {
    BrokerOptions options;
    options.algorithm = algo;
    Broker broker(options);
    int hits = 0;
    auto a = broker.Pred("a", "=", 1);
    auto b = broker.Pred("b", ">", 10);
    ASSERT_TRUE(a.ok() && b.ok());
    ASSERT_TRUE(broker
                    .Subscribe({a.value(), b.value()},
                               [&](const Notification&) { ++hits; })
                    .ok());
    ASSERT_TRUE(
        broker.Publish({broker.Pair("a", 1), broker.Pair("b", 11)}).ok());
    ASSERT_TRUE(
        broker.Publish({broker.Pair("a", 1), broker.Pair("b", 10)}).ok());
    ASSERT_TRUE(broker.Publish({broker.Pair("b", 11)}).ok());
    EXPECT_EQ(hits, 1) << "algorithm " << static_cast<int>(algo);
  }
}

TEST(BrokerTest, AlgorithmFromStringParses) {
  EXPECT_TRUE(AlgorithmFromString("dynamic").ok());
  EXPECT_TRUE(AlgorithmFromString("propagation-wp").ok());
  EXPECT_FALSE(AlgorithmFromString("??").ok());
}

TEST(BrokerTest, StoreDisabledSkipsReverseMatching) {
  BrokerOptions options;
  options.store_events = false;
  Broker broker(options);
  ASSERT_TRUE(broker.Publish({broker.Pair("x", 1)}).ok());
  EXPECT_EQ(broker.stored_event_count(), 0u);
  int hits = 0;
  auto p = broker.Pred("x", "=", 1);
  ASSERT_TRUE(p.ok());
  ASSERT_TRUE(
      broker.Subscribe({p.value()}, [&](const Notification&) { ++hits; })
          .ok());
  EXPECT_EQ(hits, 0);  // no stored events to replay
}


TEST(EventStoreTest, RangeCandidatesViaValueTree) {
  EventStore store;
  // 200 events with values 0..199 on attribute 0.
  std::vector<EventId> ids;
  for (Value v = 0; v < 200; ++v) {
    ids.push_back(
        store.Insert(Event::CreateUnchecked({{0, v}}), kNeverExpires));
  }
  // A narrow range subscription must return exactly the in-range events.
  Subscription narrow = Subscription::Create(
      1, {Predicate(0, RelOp::kGe, 50), Predicate(0, RelOp::kLt, 60)});
  std::vector<EventId> hits;
  store.MatchSubscription(narrow, &hits);
  ASSERT_EQ(hits.size(), 10u);
  for (EventId id : hits) {
    Value v = *store.Find(id)->Find(0);
    EXPECT_GE(v, 50);
    EXPECT_LT(v, 60);
  }
  // Removal keeps the range index consistent.
  for (size_t i = 0; i < ids.size(); i += 2) store.Remove(ids[i]);
  store.MatchSubscription(narrow, &hits);
  EXPECT_EQ(hits.size(), 5u);  // odd values 51..59
}

TEST(EventStoreTest, NotEqualReverseMatch) {
  EventStore store;
  EventId a = store.Insert(Event::CreateUnchecked({{0, 1}}), kNeverExpires);
  EventId b = store.Insert(Event::CreateUnchecked({{0, 2}}), kNeverExpires);
  (void)a;
  Subscription s = Subscription::Create(1, {Predicate(0, RelOp::kNe, 1)});
  std::vector<EventId> hits;
  store.MatchSubscription(s, &hits);
  EXPECT_EQ(hits, (std::vector<EventId>{b}));
}

TEST(BrokerTest, ExpressionSubscribeAndPublish) {
  Broker broker;
  int hits = 0;
  auto sub = broker.SubscribeExpression(
      "price <= 400 AND (from = 'NYC' OR from = 'EWR') AND NOT to = 'LAX'",
      [&](const Notification&) { ++hits; });
  ASSERT_TRUE(sub.ok()) << sub.status().ToString();

  ASSERT_TRUE(broker
                  .PublishExpression(
                      "from = 'EWR', to = 'SFO', price = 390")
                  .ok());
  EXPECT_EQ(hits, 1);
  // Second disjunct, same event: still one notification per publish.
  auto both = broker.PublishExpression(
      "from = 'NYC', to = 'SFO', price = 100");
  ASSERT_TRUE(both.ok());
  EXPECT_EQ(both.value().matches, 1u);
  EXPECT_EQ(hits, 2);
  // Negated attribute blocks the match.
  ASSERT_TRUE(broker
                  .PublishExpression(
                      "from = 'NYC', to = 'LAX', price = 100")
                  .ok());
  EXPECT_EQ(hits, 2);
  // Malformed expressions are rejected cleanly.
  EXPECT_FALSE(broker
                   .SubscribeExpression("price <=",
                                        [](const Notification&) {})
                   .ok());
  EXPECT_FALSE(broker.PublishExpression("price < 3").ok());
}

// --- Batched publishing & the publish queue ---------------------------------------

// PublishBatch must be observably identical to sequential Publish calls:
// same per-event results, same notifications in the same per-event order,
// same stored events.
TEST(BrokerBatchTest, PublishBatchMatchesSequentialPublish) {
  Broker batched, sequential;
  std::vector<std::pair<SubscriptionId, EventId>> batched_fired,
      sequential_fired;
  for (Broker* broker : {&batched, &sequential}) {
    auto* fired = broker == &batched ? &batched_fired : &sequential_fired;
    for (Value v = 1; v <= 4; ++v) {
      auto p = broker->Pred("k", "=", v);
      ASSERT_TRUE(p.ok());
      ASSERT_TRUE(broker
                      ->Subscribe({p.value()},
                                  [fired](const Notification& n) {
                                    fired->emplace_back(n.subscription,
                                                        n.event_id);
                                  })
                      .ok());
    }
  }
  std::vector<Event> events;
  for (Value v = 0; v < 10; ++v) {
    events.push_back(Event::CreateUnchecked({{0, v % 5}}));
  }
  const std::vector<PublishResult> batch_results =
      batched.PublishBatch(events);
  std::vector<PublishResult> seq_results;
  for (const Event& e : events) {
    auto r = sequential.Publish(e);
    ASSERT_TRUE(r.ok());
    seq_results.push_back(r.value());
  }
  ASSERT_EQ(batch_results.size(), seq_results.size());
  for (size_t i = 0; i < batch_results.size(); ++i) {
    EXPECT_EQ(batch_results[i].event_id, seq_results[i].event_id);
    EXPECT_EQ(batch_results[i].matches, seq_results[i].matches);
  }
  EXPECT_EQ(batched_fired, sequential_fired);
  EXPECT_EQ(batched.stored_event_count(), sequential.stored_event_count());
}

// A DNF subscription whose disjuncts both match must still be notified
// exactly once per event of the batch — the dedup is per event, not per
// batch.
TEST(BrokerBatchTest, PublishBatchDedupsDnfPerEvent) {
  Broker broker;
  int hits = 0;
  auto cheap = broker.Pred("price", "<", 10);
  auto nearby = broker.Pred("distance", "<", 5);
  ASSERT_TRUE(cheap.ok() && nearby.ok());
  ASSERT_TRUE(broker
                  .SubscribeDnf({{cheap.value()}, {nearby.value()}},
                                [&](const Notification&) { ++hits; })
                  .ok());
  // Three events, each matching both disjuncts.
  std::vector<Event> events(
      3, Event::CreateUnchecked(
             {broker.Pair("price", 5), broker.Pair("distance", 2)}));
  const std::vector<PublishResult> results = broker.PublishBatch(events);
  ASSERT_EQ(results.size(), 3u);
  for (const PublishResult& r : results) EXPECT_EQ(r.matches, 1u);
  EXPECT_EQ(hits, 3);
}

// Handlers may re-enter the broker. The broker resolves every match of a
// publish call to handler records before it runs any handler, so a record
// resolved for dispatch still fires after its subscription is cancelled
// mid-dispatch (by its own handler or another one), and a nested publish
// runs to completion inside the outer one.
struct ReentrancyProbe {
  explicit ReentrancyProbe(Algorithm algorithm)
      : broker(BrokerOptions{algorithm}) {}

  SubscriptionId Sub(std::string_view condition, int* count,
                     std::function<void()> action = nullptr) {
    auto id = broker.SubscribeExpression(
        condition,
        [count, action = std::move(action)](const Notification& n) {
          ASSERT_NE(n.event, nullptr);
          EXPECT_NE(n.event->size(), 0u);
          if (++*count == 1 && action) action();
        });
    EXPECT_TRUE(id.ok()) << id.status().ToString();
    return id.ok() ? id.value() : kInvalidSubscriptionId;
  }

  /// Publishes `y = 7` from inside a handler; only N and D match it.
  void PublishNested() {
    auto r = broker.PublishExpression("y = 7");
    ASSERT_TRUE(r.ok());
    nested_event = r.value().event_id;
    nested_matches = r.value().matches;
  }

  Broker broker;
  int self = 0, victim = 0, killer = 0, republisher = 0, nested = 0,
      dnf = 0;
  SubscriptionId self_id = kInvalidSubscriptionId;
  SubscriptionId victim_id = kInvalidSubscriptionId;
  EventId nested_event = 0;
  size_t nested_matches = 0;
};

constexpr Algorithm kReentrancyAlgorithms[] = {
    Algorithm::kNaive,  Algorithm::kCounting,
    Algorithm::kPropagation, Algorithm::kPropagationPrefetch,
    Algorithm::kStatic, Algorithm::kDynamic};

TEST(BrokerReentrancyTest, HandlersReenterDuringPublish) {
  for (Algorithm algo : kReentrancyAlgorithms) {
    SCOPED_TRACE(static_cast<int>(algo));
    ReentrancyProbe p(algo);
    p.self_id = p.Sub("x >= 0", &p.self, [&p] {
      EXPECT_TRUE(p.broker.Unsubscribe(p.self_id).ok());
    });
    p.victim_id = p.Sub("x >= 0", &p.victim);
    p.Sub("x >= 0", &p.killer, [&p] {
      EXPECT_TRUE(p.broker.Unsubscribe(p.victim_id).ok());
    });
    p.Sub("x >= 0", &p.republisher, [&p] { p.PublishNested(); });
    p.Sub("y = 7", &p.nested);
    p.Sub("x = 1 OR x <= 5 OR y = 7", &p.dnf);
    ASSERT_EQ(p.broker.subscription_count(), 6u);

    auto first = p.broker.PublishExpression("x = 1");
    ASSERT_TRUE(first.ok());
    EXPECT_EQ(first.value().event_id, 1u);
    EXPECT_EQ(first.value().matches, 5u);  // S, V, K, R, D
    EXPECT_EQ(p.nested_event, 2u);
    EXPECT_EQ(p.nested_matches, 2u);  // N, D
    EXPECT_EQ(p.self, 1);
    EXPECT_EQ(p.victim, 1);
    EXPECT_EQ(p.killer, 1);
    EXPECT_EQ(p.republisher, 1);
    EXPECT_EQ(p.nested, 1);
    EXPECT_EQ(p.dnf, 2);
    EXPECT_EQ(p.broker.subscription_count(), 4u);

    auto second = p.broker.PublishExpression("x = 1");
    ASSERT_TRUE(second.ok());
    EXPECT_EQ(second.value().event_id, 3u);
    EXPECT_EQ(second.value().matches, 3u);  // K, R, D
    EXPECT_EQ(p.self, 1);
    EXPECT_EQ(p.victim, 1);
    EXPECT_EQ(p.killer, 2);
    EXPECT_EQ(p.republisher, 2);
    EXPECT_EQ(p.nested, 1);
    EXPECT_EQ(p.dnf, 3);
    EXPECT_EQ(p.broker.stored_event_count(), 3u);
  }
}

TEST(BrokerReentrancyTest, HandlersReenterDuringPublishBatch) {
  for (Algorithm algo : kReentrancyAlgorithms) {
    SCOPED_TRACE(static_cast<int>(algo));
    ReentrancyProbe p(algo);
    p.self_id = p.Sub("x >= 0", &p.self, [&p] {
      EXPECT_TRUE(p.broker.Unsubscribe(p.self_id).ok());
    });
    // The victim matches only lane 1; the killer only lane 0.
    p.victim_id = p.Sub("x = 2", &p.victim);
    p.Sub("x = 1", &p.killer, [&p] {
      EXPECT_TRUE(p.broker.Unsubscribe(p.victim_id).ok());
    });
    p.Sub("x >= 0", &p.republisher, [&p] { p.PublishNested(); });
    p.Sub("y = 7", &p.nested);
    p.Sub("x = 1 OR x <= 5 OR y = 7", &p.dnf);

    std::vector<Event> events;
    for (const char* text : {"x = 1", "x = 2"}) {
      auto e = ParseEvent(text, &p.broker.schema());
      ASSERT_TRUE(e.ok());
      events.push_back(std::move(e).value());
    }
    const std::vector<PublishResult> results = p.broker.PublishBatch(events);
    ASSERT_EQ(results.size(), 2u);
    EXPECT_EQ(results[0].event_id, 1u);
    EXPECT_EQ(results[0].matches, 4u);  // S, K, R, D
    EXPECT_EQ(p.nested_event, 2u);      // published during lane 0
    EXPECT_EQ(p.nested_matches, 2u);    // N, D
    EXPECT_EQ(results[1].event_id, 3u);
    EXPECT_EQ(results[1].matches, 4u);  // S, V, R, D
    EXPECT_EQ(p.self, 2);
    EXPECT_EQ(p.victim, 1);
    EXPECT_EQ(p.killer, 1);
    EXPECT_EQ(p.republisher, 2);
    EXPECT_EQ(p.nested, 1);
    EXPECT_EQ(p.dnf, 3);
    EXPECT_EQ(p.broker.subscription_count(), 4u);

    const std::vector<PublishResult> again = p.broker.PublishBatch(events);
    ASSERT_EQ(again.size(), 2u);
    EXPECT_EQ(again[0].matches, 3u);  // K, R, D
    EXPECT_EQ(again[1].matches, 2u);  // R, D
    EXPECT_EQ(p.self, 2);
    EXPECT_EQ(p.victim, 1);
    EXPECT_EQ(p.killer, 2);
    EXPECT_EQ(p.republisher, 4);
    EXPECT_EQ(p.dnf, 5);
  }
}

TEST(BrokerTest, ExpressionSharesSchemaWithTypedApi) {
  Broker broker;
  int hits = 0;
  auto p = broker.Pred("price", "<=", 100);
  ASSERT_TRUE(p.ok());
  ASSERT_TRUE(
      broker.Subscribe({p.value()}, [&](const Notification&) { ++hits; })
          .ok());
  // The expression path must intern "price" to the same attribute.
  ASSERT_TRUE(broker.PublishExpression("price = 50").ok());
  EXPECT_EQ(hits, 1);
}

}  // namespace
}  // namespace vfps
