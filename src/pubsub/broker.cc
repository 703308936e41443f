// Copyright 2026 The vfps Authors.

#include "src/pubsub/broker.h"

#include "src/core/normalize.h"
#include "src/lang/parser.h"
#include "src/matcher/counting_matcher.h"
#include "src/matcher/dynamic_matcher.h"
#include "src/matcher/naive_matcher.h"
#include "src/matcher/propagation_matcher.h"
#include "src/matcher/static_matcher.h"
#include "src/matcher/tree_matcher.h"
#include "src/util/macros.h"

namespace vfps {

Result<Algorithm> AlgorithmFromString(const std::string& name) {
  if (name == "naive") return Algorithm::kNaive;
  if (name == "counting") return Algorithm::kCounting;
  if (name == "propagation") return Algorithm::kPropagation;
  if (name == "propagation-wp") return Algorithm::kPropagationPrefetch;
  if (name == "static") return Algorithm::kStatic;
  if (name == "dynamic") return Algorithm::kDynamic;
  if (name == "tree") return Algorithm::kTree;
  return Status::InvalidArgument("unknown algorithm: " + name);
}

bool IsClustered(Algorithm algorithm) {
  return algorithm == Algorithm::kPropagation ||
         algorithm == Algorithm::kPropagationPrefetch ||
         algorithm == Algorithm::kStatic || algorithm == Algorithm::kDynamic;
}

std::unique_ptr<Matcher> MakeMatcher(Algorithm algorithm, bool concurrent) {
  VFPS_CHECK(!concurrent || IsClustered(algorithm));
  constexpr uint32_t kObserveRate = 16;
  switch (algorithm) {
    case Algorithm::kNaive:
      return std::make_unique<NaiveMatcher>();
    case Algorithm::kCounting:
      return std::make_unique<CountingMatcher>();
    case Algorithm::kPropagation:
      return std::make_unique<PropagationMatcher>(/*use_prefetch=*/false,
                                                  kObserveRate, concurrent);
    case Algorithm::kPropagationPrefetch:
      return std::make_unique<PropagationMatcher>(/*use_prefetch=*/true,
                                                  kObserveRate, concurrent);
    case Algorithm::kStatic:
      return std::make_unique<StaticMatcher>(GreedyOptions{},
                                             /*use_prefetch=*/true,
                                             kObserveRate, concurrent);
    case Algorithm::kDynamic:
      return std::make_unique<DynamicMatcher>(DynamicOptions{},
                                              /*use_prefetch=*/true,
                                              kObserveRate, concurrent);
    case Algorithm::kTree:
      return std::make_unique<TreeMatcher>();
  }
  VFPS_CHECK(false);
  return nullptr;
}

Broker::Broker(BrokerOptions options)
    : options_(options),
      matcher_(MakeMatcher(options.algorithm, options.concurrent_churn)) {
  if (options_.concurrent_churn) VFPS_CHECK(!options_.store_events);
}

void Broker::AttachTelemetry(MetricsRegistry* registry) {
  matcher_->AttachTelemetry(registry);
  if (registry == nullptr) {
    telemetry_.reset();
    return;
  }
  auto t = std::make_unique<Telemetry>();
  t->publishes = registry->GetCounter("vfps_broker_publishes_total");
  t->subscribes = registry->GetCounter("vfps_broker_subscribes_total");
  t->unsubscribes = registry->GetCounter("vfps_broker_unsubscribes_total");
  t->notifications = registry->GetCounter("vfps_broker_notifications_total");
  t->expired_subscriptions =
      registry->GetCounter("vfps_broker_expired_subscriptions_total");
  t->expired_events =
      registry->GetCounter("vfps_broker_expired_events_total");
  t->publish_ns = registry->GetHistogram("vfps_broker_publish_ns");
  t->subscribe_ns = registry->GetHistogram("vfps_broker_subscribe_ns");
  t->unsubscribe_ns = registry->GetHistogram("vfps_broker_unsubscribe_ns");
  t->publish_batch_size =
      registry->GetHistogram("vfps_broker_publish_batch_size");
  t->publish_batch_ns =
      registry->GetHistogram("vfps_broker_publish_batch_ns");
  registry->RegisterGauge("vfps_broker_subscriptions",
                          [this] { return static_cast<int64_t>(
                                       subscription_count()); });
  registry->RegisterGauge("vfps_broker_stored_events",
                          [this] { return static_cast<int64_t>(
                                       store_.size()); });
  telemetry_ = std::move(t);
}

Result<Predicate> Broker::Pred(const std::string& attribute,
                               const std::string& op, Value value) {
  RelOp relop;
  if (op == "<") {
    relop = RelOp::kLt;
  } else if (op == "<=") {
    relop = RelOp::kLe;
  } else if (op == "=" || op == "==") {
    relop = RelOp::kEq;
  } else if (op == "!=") {
    relop = RelOp::kNe;
  } else if (op == ">=") {
    relop = RelOp::kGe;
  } else if (op == ">") {
    relop = RelOp::kGt;
  } else {
    return Status::InvalidArgument("unknown operator: " + op);
  }
  return Predicate(schema_.InternAttribute(attribute), relop, value);
}

Result<Predicate> Broker::Pred(const std::string& attribute,
                               const std::string& op,
                               const std::string& value) {
  if (op != "=" && op != "==" && op != "!=") {
    return Status::InvalidArgument(
        "string values support only = and != (interned order is not "
        "lexicographic)");
  }
  return Pred(attribute, op, schema_.InternValue(value));
}

EventPair Broker::Pair(const std::string& attribute, Value value) {
  return EventPair{schema_.InternAttribute(attribute), value};
}

EventPair Broker::Pair(const std::string& attribute,
                       const std::string& value) {
  return EventPair{schema_.InternAttribute(attribute),
                   schema_.InternValue(value)};
}

Result<SubscriptionId> Broker::Subscribe(std::vector<Predicate> predicates,
                                         NotificationHandler handler,
                                         Timestamp expires_at) {
  std::vector<std::vector<Predicate>> disjuncts;
  disjuncts.push_back(std::move(predicates));
  return SubscribeInternal(std::move(disjuncts), std::move(handler),
                           expires_at);
}

Result<SubscriptionId> Broker::SubscribeDnf(
    std::vector<std::vector<Predicate>> disjuncts,
    NotificationHandler handler, Timestamp expires_at) {
  if (disjuncts.empty()) {
    return Status::InvalidArgument("a DNF subscription needs >= 1 disjunct");
  }
  return SubscribeInternal(std::move(disjuncts), std::move(handler),
                           expires_at);
}

Result<SubscriptionId> Broker::SubscribeInternal(
    std::vector<std::vector<Predicate>> disjuncts,
    NotificationHandler handler, Timestamp expires_at) {
  VFPS_SERIAL_SCOPE_IF(serial_, !options_.concurrent_churn);
  ScopedTimer scoped(telemetry_ ? telemetry_->subscribe_ns : nullptr);
  if (expires_at != kNeverExpires && expires_at <= now_.load()) {
    return Status::InvalidArgument("subscription already expired");
  }
  auto user = std::make_shared<UserSubscription>();
  user->handler = std::move(handler);
  user->expires_at = expires_at;
  SubscriptionId user_id;
  {
    MutexLock lock(subs_mu_);
    user_id = next_user_id_++;
  }

  for (std::vector<Predicate>& conj : disjuncts) {
    SubscriptionId internal_id;
    {
      MutexLock lock(subs_mu_);
      internal_id = next_internal_id_++;
    }
    Subscription sub = Subscription::Create(internal_id, std::move(conj));
    if (options_.normalize_subscriptions) {
      bool unsatisfiable = false;
      sub = NormalizeSubscription(sub, &unsatisfiable);
      // A disjunct that can never match costs nothing: don't register it.
      // (The user id is still handed out; it simply never fires through
      // this disjunct.)
      if (unsatisfiable) continue;
    }
    Status status = matcher_->AddSubscription(sub);
    if (!status.ok()) {
      // Roll back the disjuncts registered so far.
      for (SubscriptionId prev : user->internal_ids) {
        (void)matcher_->RemoveSubscription(prev);
        MutexLock lock(subs_mu_);
        internal_to_user_.erase(prev);
      }
      return status;
    }
    user->internal_ids.push_back(internal_id);
    {
      // A concurrent Publish resolving this mapping before the user record
      // lands below simply skips the notification (mid-churn match).
      MutexLock lock(subs_mu_);
      internal_to_user_.emplace(internal_id, user_id);
    }

    // Reverse matching: deliver currently valid stored events (serial mode
    // only — concurrent_churn forces store_events off).
    if (options_.store_events && user->handler && store_.size() > 0) {
      std::vector<EventId> hits;
      store_.MatchSubscription(sub, &hits);
      for (EventId eid : hits) {
        const Event* event = store_.Find(eid);
        VFPS_DCHECK(event != nullptr);
        user->handler(Notification{user_id, eid, event});
      }
    }
  }
  {
    MutexLock lock(subs_mu_);
    if (expires_at != kNeverExpires) sub_expiry_.emplace(expires_at, user_id);
    user_subs_.emplace(user_id, std::move(user));
  }
  if (telemetry_) telemetry_->subscribes->Inc();
  return user_id;
}

Status Broker::Unsubscribe(SubscriptionId id) {
  VFPS_SERIAL_SCOPE_IF(serial_, !options_.concurrent_churn);
  ScopedTimer scoped(telemetry_ ? telemetry_->unsubscribe_ns : nullptr);
  std::shared_ptr<UserSubscription> user;
  {
    // Detach the bookkeeping first: once the mappings are gone a concurrent
    // Publish stops notifying this user (handlers already resolved for
    // dispatch may still fire once; the shared_ptr keeps them safe).
    MutexLock lock(subs_mu_);
    auto it = user_subs_.find(id);
    if (it == user_subs_.end()) {
      return Status::NotFound("subscription id " + std::to_string(id));
    }
    user = std::move(it->second);
    user_subs_.erase(it);
    for (SubscriptionId internal_id : user->internal_ids) {
      internal_to_user_.erase(internal_id);
    }
  }
  for (SubscriptionId internal_id : user->internal_ids) {
    Status status = matcher_->RemoveSubscription(internal_id);
    VFPS_DCHECK(status.ok());
    (void)status;
  }
  if (telemetry_) telemetry_->unsubscribes->Inc();
  return Status::OK();
}

Result<PublishResult> Broker::Publish(const Event& event,
                                      Timestamp expires_at) {
  VFPS_SERIAL_SCOPE_IF(serial_, !options_.concurrent_churn);
  ScopedTimer scoped(telemetry_ ? telemetry_->publish_ns : nullptr);
  // Concurrent publishers each need private match scratch; the serial
  // default keeps the member vector (stable capacity across brokers).
  static thread_local std::vector<SubscriptionId> tls_matches;
  std::vector<SubscriptionId>* matches =
      options_.concurrent_churn ? &tls_matches : &scratch_matches_;
  matcher_->Match(event, matches);

  PublishResult result;
  if (options_.store_events) {
    result.event_id = store_.Insert(event, expires_at);
  }
  const Event* stored =
      options_.store_events ? store_.Find(result.event_id) : &event;
  // Resolve matches to handler records under the lock, dispatch outside it
  // (handlers may re-enter the broker; see UserSubscription).
  std::vector<std::pair<std::shared_ptr<UserSubscription>, SubscriptionId>>
      to_notify;
  {
    MutexLock lock(subs_mu_);
    const uint64_t tick = ++publish_count_;
    for (SubscriptionId internal_id : *matches) {
      auto uit = internal_to_user_.find(internal_id);
      // Subscriptions injected directly into the matcher (bypassing
      // Subscribe, e.g. by benchmarks) have no user record, and a mapping
      // can outrun its user record mid-churn: count nothing, notify
      // nobody.
      if (uit == internal_to_user_.end()) continue;
      auto sit = user_subs_.find(uit->second);
      if (sit == user_subs_.end()) continue;
      UserSubscription& user = *sit->second;
      // A DNF subscription may match through several disjuncts; notify
      // once. The whole resolution runs under one lock hold, so the tick
      // comparison is exact even with concurrent publishers.
      if (user.last_notified_publish == tick) continue;
      user.last_notified_publish = tick;
      to_notify.emplace_back(sit->second, uit->second);
    }
  }
  result.matches = to_notify.size();
  for (auto& [user, user_id] : to_notify) {
    if (user->handler) {
      user->handler(Notification{user_id, result.event_id, stored});
    }
  }
  if (telemetry_) {
    telemetry_->publishes->Inc();
    telemetry_->notifications->Inc(result.matches);
  }
  return result;
}

std::vector<PublishResult> Broker::PublishBatch(std::span<const Event> events,
                                                Timestamp expires_at) {
  VFPS_SERIAL_SCOPE_IF(serial_, !options_.concurrent_churn);
  std::vector<PublishResult> results(events.size());
  if (events.empty()) return results;
  Timer timer;
  // Concurrent publishers each need a private batch result; the serial
  // default keeps the member scratch.
  static thread_local BatchResult tls_batch;
  BatchResult* batch =
      options_.concurrent_churn ? &tls_batch : &batch_scratch_;
  matcher_->MatchBatch(events, batch);
  uint64_t notifications = 0;
  // Per-lane handler dispatch runs with the lock released, like Publish;
  // `pending[e]` collects lane e's resolved handler records.
  std::vector<
      std::vector<std::pair<std::shared_ptr<UserSubscription>,
                            SubscriptionId>>>
      pending(events.size());
  {
    MutexLock lock(subs_mu_);
    for (size_t e = 0; e < events.size(); ++e) {
      // Per-lane publish bookkeeping is identical to Publish: its own
      // publish_count_ tick keeps the DNF dedup per event, not per batch.
      const uint64_t tick = ++publish_count_;
      for (SubscriptionId internal_id : batch->matches(e)) {
        auto uit = internal_to_user_.find(internal_id);
        if (uit == internal_to_user_.end()) continue;
        auto sit = user_subs_.find(uit->second);
        if (sit == user_subs_.end()) continue;
        UserSubscription& user = *sit->second;
        if (user.last_notified_publish == tick) continue;
        user.last_notified_publish = tick;
        pending[e].emplace_back(sit->second, uit->second);
      }
    }
  }
  for (size_t e = 0; e < events.size(); ++e) {
    PublishResult& result = results[e];
    if (options_.store_events) {
      result.event_id = store_.Insert(events[e], expires_at);
    }
    const Event* stored =
        options_.store_events ? store_.Find(result.event_id) : &events[e];
    result.matches = pending[e].size();
    for (auto& [user, user_id] : pending[e]) {
      if (user->handler) {
        user->handler(Notification{user_id, result.event_id, stored});
      }
    }
    notifications += result.matches;
  }
  if (telemetry_) {
    telemetry_->publishes->Inc(events.size());
    telemetry_->notifications->Inc(notifications);
    telemetry_->publish_batch_size->Record(
        static_cast<int64_t>(events.size()));
    telemetry_->publish_batch_ns->Record(timer.ElapsedNanos());
  }
  return results;
}

Result<PublishResult> Broker::Publish(std::vector<EventPair> pairs,
                                      Timestamp expires_at) {
  Result<Event> event = Event::Create(std::move(pairs));
  if (!event.ok()) return event.status();
  return Publish(event.value(), expires_at);
}

Result<SubscriptionId> Broker::SubscribeExpression(
    std::string_view condition, NotificationHandler handler,
    Timestamp expires_at) {
  Result<ParsedCondition> parsed = ParseCondition(condition, &schema_);
  if (!parsed.ok()) return parsed.status();
  return SubscribeInternal(std::move(parsed).value().disjuncts,
                           std::move(handler), expires_at);
}

Result<PublishResult> Broker::PublishExpression(std::string_view event_text,
                                                Timestamp expires_at) {
  Result<Event> event = ParseEvent(event_text, &schema_);
  if (!event.ok()) return event.status();
  return Publish(event.value(), expires_at);
}

void Broker::AdvanceTime(Timestamp now) {
  // Time management stays single-driver even under concurrent churn (the
  // scope names any violator).
  VFPS_SERIAL_SCOPE(serial_);
  now_.store(now);
  const size_t expired_events = store_.ExpireUpTo(now);
  // Collect expired ids under the lock, unsubscribe with it released
  // (Unsubscribe re-takes it; the mutex is not reentrant).
  std::vector<SubscriptionId> expired;
  {
    MutexLock lock(subs_mu_);
    while (!sub_expiry_.empty() && sub_expiry_.top().first <= now) {
      SubscriptionId user_id = sub_expiry_.top().second;
      Timestamp deadline = sub_expiry_.top().first;
      sub_expiry_.pop();
      auto it = user_subs_.find(user_id);
      if (it != user_subs_.end() && it->second->expires_at <= deadline) {
        expired.push_back(user_id);
      }
    }
  }
  size_t expired_subs = 0;
  for (SubscriptionId user_id : expired) {
    if (Unsubscribe(user_id).ok()) ++expired_subs;
  }
  if (telemetry_) {
    telemetry_->expired_events->Inc(expired_events);
    telemetry_->expired_subscriptions->Inc(expired_subs);
  }
}

}  // namespace vfps
