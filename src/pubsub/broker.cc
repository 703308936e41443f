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

std::unique_ptr<Matcher> MakeMatcher(Algorithm algorithm) {
  constexpr uint32_t kObserveRate = 16;
  switch (algorithm) {
    case Algorithm::kNaive:
      return std::make_unique<NaiveMatcher>();
    case Algorithm::kCounting:
      return std::make_unique<CountingMatcher>();
    case Algorithm::kPropagation:
      return std::make_unique<PropagationMatcher>(/*use_prefetch=*/false,
                                                  kObserveRate);
    case Algorithm::kPropagationPrefetch:
      return std::make_unique<PropagationMatcher>(/*use_prefetch=*/true,
                                                  kObserveRate);
    case Algorithm::kStatic:
      return std::make_unique<StaticMatcher>(GreedyOptions{},
                                             /*use_prefetch=*/true,
                                             kObserveRate);
    case Algorithm::kDynamic:
      return std::make_unique<DynamicMatcher>(DynamicOptions{},
                                              /*use_prefetch=*/true,
                                              kObserveRate);
    case Algorithm::kTree:
      return std::make_unique<TreeMatcher>();
  }
  VFPS_CHECK(false);
  return nullptr;
}

Broker::Broker(BrokerOptions options)
    : options_(options), matcher_(MakeMatcher(options.algorithm)) {}

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
  VFPS_SERIAL_SCOPE(serial_);
  ScopedTimer scoped(telemetry_ ? telemetry_->subscribe_ns : nullptr);
  if (expires_at != kNeverExpires && expires_at <= now_) {
    return Status::InvalidArgument("subscription already expired");
  }
  auto user = std::make_shared<UserSubscription>();
  user->handler = std::move(handler);
  user->expires_at = expires_at;
  const SubscriptionId user_id = next_user_id_++;

  for (std::vector<Predicate>& conj : disjuncts) {
    const SubscriptionId internal_id = next_internal_id_++;
    bool unsatisfiable = false;
    Subscription sub = NormalizeSubscription(
        Subscription::Create(internal_id, std::move(conj)), &unsatisfiable);
    // A disjunct that can never match costs nothing: don't register it.
    // (The user id is still handed out; it simply never fires through this
    // disjunct.)
    if (unsatisfiable) continue;
    Status status = matcher_->AddSubscription(sub);
    if (!status.ok()) {
      // Roll back the disjuncts registered so far.
      for (SubscriptionId prev : user->internal_ids) {
        (void)matcher_->RemoveSubscription(prev);
        internal_to_user_.erase(prev);
      }
      return status;
    }
    user->internal_ids.push_back(internal_id);
    internal_to_user_.emplace(internal_id, user_id);

    // Reverse matching: deliver currently valid stored events.
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
  if (expires_at != kNeverExpires) sub_expiry_.emplace(expires_at, user_id);
  user_subs_.emplace(user_id, std::move(user));
  if (telemetry_) telemetry_->subscribes->Inc();
  return user_id;
}

Status Broker::Unsubscribe(SubscriptionId id) {
  VFPS_SERIAL_SCOPE(serial_);
  ScopedTimer scoped(telemetry_ ? telemetry_->unsubscribe_ns : nullptr);
  auto it = user_subs_.find(id);
  if (it == user_subs_.end()) {
    return Status::NotFound("subscription id " + std::to_string(id));
  }
  // A handler may be unsubscribing its own record mid-dispatch: the
  // publish call's resolved list shares ownership and keeps it alive.
  const std::shared_ptr<UserSubscription> user = std::move(it->second);
  user_subs_.erase(it);
  for (SubscriptionId internal_id : user->internal_ids) {
    internal_to_user_.erase(internal_id);
    Status status = matcher_->RemoveSubscription(internal_id);
    VFPS_DCHECK(status.ok());
    (void)status;
  }
  if (telemetry_) telemetry_->unsubscribes->Inc();
  return Status::OK();
}

void Broker::Resolve(const std::vector<SubscriptionId>& matches,
                     Resolved* out) {
  const uint64_t tick = ++publish_count_;
  for (SubscriptionId internal_id : matches) {
    // Subscriptions injected directly into the matcher (bypassing
    // Subscribe, e.g. by benchmarks) have no user record: count nothing,
    // notify nobody.
    auto uit = internal_to_user_.find(internal_id);
    if (uit == internal_to_user_.end()) continue;
    auto sit = user_subs_.find(uit->second);
    if (sit == user_subs_.end()) continue;
    UserSubscription& user = *sit->second;
    // A DNF subscription may match through several disjuncts; notify once.
    if (user.last_notified_publish == tick) continue;
    user.last_notified_publish = tick;
    out->emplace_back(sit->second, uit->second);
  }
}

void Broker::Dispatch(const Resolved& resolved, EventId event_id,
                      const Event* event) {
  for (const auto& [user, user_id] : resolved) {
    if (user->handler) user->handler(Notification{user_id, event_id, event});
  }
}

Result<PublishResult> Broker::Publish(const Event& event,
                                      Timestamp expires_at) {
  VFPS_SERIAL_SCOPE(serial_);
  ScopedTimer scoped(telemetry_ ? telemetry_->publish_ns : nullptr);
  matcher_->Match(event, &scratch_matches_);

  PublishResult result;
  if (options_.store_events) {
    result.event_id = store_.Insert(event, expires_at);
  }
  const Event* stored =
      options_.store_events ? store_.Find(result.event_id) : &event;
  Resolved to_notify;
  Resolve(scratch_matches_, &to_notify);
  result.matches = to_notify.size();
  Dispatch(to_notify, result.event_id, stored);
  if (telemetry_) {
    telemetry_->publishes->Inc();
    telemetry_->notifications->Inc(result.matches);
  }
  return result;
}

std::vector<PublishResult> Broker::PublishBatch(std::span<const Event> events,
                                                Timestamp expires_at) {
  VFPS_SERIAL_SCOPE(serial_);
  std::vector<PublishResult> results(events.size());
  if (events.empty()) return results;
  Timer timer;
  matcher_->MatchBatch(events, &batch_scratch_);
  // Every lane resolves before any handler runs, like Publish; each lane is
  // its own publish tick, so the DNF dedup is per event, not per batch.
  std::vector<Resolved> pending(events.size());
  for (size_t e = 0; e < events.size(); ++e) {
    Resolve(batch_scratch_.matches(e), &pending[e]);
  }
  uint64_t notifications = 0;
  for (size_t e = 0; e < events.size(); ++e) {
    PublishResult& result = results[e];
    if (options_.store_events) {
      result.event_id = store_.Insert(events[e], expires_at);
    }
    const Event* stored =
        options_.store_events ? store_.Find(result.event_id) : &events[e];
    result.matches = pending[e].size();
    Dispatch(pending[e], result.event_id, stored);
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
  VFPS_SERIAL_SCOPE(serial_);
  now_ = now;
  const size_t expired_events = store_.ExpireUpTo(now);
  size_t expired_subs = 0;
  while (!sub_expiry_.empty() && sub_expiry_.top().first <= now) {
    const auto [deadline, user_id] = sub_expiry_.top();
    sub_expiry_.pop();
    auto it = user_subs_.find(user_id);
    if (it != user_subs_.end() && it->second->expires_at <= deadline &&
        Unsubscribe(user_id).ok()) {
      ++expired_subs;
    }
  }
  if (telemetry_) {
    telemetry_->expired_events->Inc(expired_events);
    telemetry_->expired_subscriptions->Inc(expired_subs);
  }
}

}  // namespace vfps
