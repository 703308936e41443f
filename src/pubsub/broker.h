// Copyright 2026 The vfps Authors.
// The publish/subscribe system facade: the piece the paper calls "our
// publish/subscribe system prototype". It ties a matching algorithm, the
// event store, validity intervals, and notification delivery together
// behind a string-friendly API (via SchemaRegistry). Subscriptions may be
// plain conjunctions or disjunctive-normal-form conditions (the paper's
// conclusion: the filtering algorithm "already provides an efficient
// support to a subscription language consisting of disjunctive normal form
// conditions").
//
// Threading: the Broker is single-threaded — the paper's system is one
// matching process fed batches, and vfps_server runs every broker call on
// its one match-worker thread. Under VFPS_DEBUG_INVARIANTS every mutating
// entry point carries a VFPS_SERIAL_SCOPE (src/util/sync.h): two threads
// entering concurrently abort with both entry points named.
//
// Re-entrancy: notification handlers may call back into the broker
// (Publish -> handler -> Publish / Unsubscribe). A publish call resolves
// all of its matches to handler records before it runs any handler, so a
// record resolved for dispatch still fires once after its subscription is
// cancelled mid-dispatch, and a nested publish runs to completion inside
// the outer one. See docs/CONCURRENCY.md.

#ifndef VFPS_PUBSUB_BROKER_H_
#define VFPS_PUBSUB_BROKER_H_

#include <functional>
#include <memory>
#include <queue>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/core/batch_result.h"
#include "src/core/schema_registry.h"
#include "src/core/subscription.h"
#include "src/matcher/matcher.h"
#include "src/pubsub/event_store.h"
#include "src/telemetry/metrics.h"
#include "src/util/sync.h"
#include "src/util/timer.h"

namespace vfps {

/// Which matching algorithm the broker runs.
enum class Algorithm {
  kNaive,
  kCounting,
  kPropagation,            // no prefetch
  kPropagationPrefetch,    // propagation-wp
  kStatic,
  kDynamic,
  kTree,                   // Gryphon-style matching tree (Section 5 baseline)
};

/// Parses "naive"/"counting"/"propagation"/"propagation-wp"/"static"/
/// "dynamic"/"tree"; InvalidArgument otherwise.
Result<Algorithm> AlgorithmFromString(const std::string& name);

/// Constructs a standalone matcher for `algorithm` (also usable without a
/// Broker).
std::unique_ptr<Matcher> MakeMatcher(Algorithm algorithm);

/// A delivered match: which subscription fired for which published event.
struct Notification {
  SubscriptionId subscription = kInvalidSubscriptionId;
  EventId event_id = 0;
  const Event* event = nullptr;  // valid for the duration of the callback
};

/// Callback invoked synchronously during Publish for each matched
/// subscription.
using NotificationHandler = std::function<void(const Notification&)>;

/// Broker construction options.
struct BrokerOptions {
  Algorithm algorithm = Algorithm::kDynamic;
  /// Store published events so new subscriptions see currently valid ones.
  bool store_events = true;
};

/// Summary returned by Publish.
struct PublishResult {
  EventId event_id = 0;
  size_t matches = 0;
};

/// The publish/subscribe system.
class Broker {
 public:
  explicit Broker(BrokerOptions options = {});

  /// Attribute/value name interning shared by all helpers below.
  SchemaRegistry& schema() { return schema_; }

  // --- building blocks -------------------------------------------------------

  /// Builds a predicate from names: Pred("price", "<=", 400).
  Result<Predicate> Pred(const std::string& attribute, const std::string& op,
                         Value value);
  /// String-valued equality/inequality predicate (value interned).
  Result<Predicate> Pred(const std::string& attribute, const std::string& op,
                         const std::string& value);
  /// Event pair helpers for Publish.
  EventPair Pair(const std::string& attribute, Value value);
  EventPair Pair(const std::string& attribute, const std::string& value);

  // --- subscribing ------------------------------------------------------------

  /// Registers a conjunctive subscription valid until `expires_at`
  /// (logical time; kNeverExpires by default). The conjunction is
  /// normalized first (interval reasoning per attribute): redundant
  /// predicates are dropped, and an unsatisfiable conjunction is never
  /// handed to the matcher. If events are stored, the handler is invoked
  /// immediately for every stored event that already satisfies the
  /// subscription.
  Result<SubscriptionId> Subscribe(std::vector<Predicate> predicates,
                                   NotificationHandler handler,
                                   Timestamp expires_at = kNeverExpires);

  /// Registers a DNF subscription: a disjunction of conjunctions. The
  /// handler fires at most once per published event even when several
  /// disjuncts match.
  Result<SubscriptionId> SubscribeDnf(
      std::vector<std::vector<Predicate>> disjuncts,
      NotificationHandler handler, Timestamp expires_at = kNeverExpires);

  /// Registers a subscription written in the expression language, e.g.
  ///   "price <= 400 AND (from = 'NYC' OR from = 'EWR')"
  /// Arbitrary AND/OR/NOT combinations are normalized to DNF internally.
  Result<SubscriptionId> SubscribeExpression(
      std::string_view condition, NotificationHandler handler,
      Timestamp expires_at = kNeverExpires);

  /// Cancels a subscription.
  Status Unsubscribe(SubscriptionId id);

  // --- publishing -------------------------------------------------------------

  /// Matches the event against all live subscriptions, invokes their
  /// handlers, and (if configured) stores the event until `expires_at`.
  Result<PublishResult> Publish(const Event& event,
                                Timestamp expires_at = kNeverExpires);

  /// Convenience: publish from pairs.
  Result<PublishResult> Publish(std::vector<EventPair> pairs,
                                Timestamp expires_at = kNeverExpires);

  /// Publishes an event written in the expression language, e.g.
  ///   "movie = 'groundhog day', price = 8, theater = 'odeon'"
  Result<PublishResult> PublishExpression(
      std::string_view event_text, Timestamp expires_at = kNeverExpires);

  /// Publishes a whole batch through Matcher::MatchBatch: one result per
  /// event, in order, with the same storage/notification/DNF-dedup
  /// semantics as per-event Publish (dedup is per event — a subscription
  /// matching several events of the batch is notified once per event).
  std::vector<PublishResult> PublishBatch(
      std::span<const Event> events, Timestamp expires_at = kNeverExpires);

  // --- time -------------------------------------------------------------------

  /// Advances the logical clock: expires events and subscriptions whose
  /// validity interval ended at or before `now`.
  void AdvanceTime(Timestamp now);
  Timestamp now() const { return now_; }

  // --- introspection ----------------------------------------------------------

  /// Live user-facing subscriptions.
  size_t subscription_count() const { return user_subs_.size(); }
  /// Live stored events.
  size_t stored_event_count() const { return store_.size(); }
  /// The underlying matcher (for stats and memory accounting).
  const Matcher& matcher() const { return *matcher_; }
  Matcher* mutable_matcher() { return matcher_.get(); }
  const EventStore& event_store() const { return store_; }

  // --- telemetry --------------------------------------------------------------

  /// Attaches broker-level instruments (vfps_broker_*: operation counters,
  /// latency histograms, liveness gauges) and forwards to the matcher's
  /// AttachTelemetry. nullptr detaches the broker's own instruments (the
  /// registry keeps its gauges registered, so the registry must not be
  /// exported after the broker dies; in practice the registry outlives the
  /// broker). See docs/OBSERVABILITY.md for the catalog.
  void AttachTelemetry(MetricsRegistry* registry);

 private:
  /// Held by shared_ptr in user_subs_: a publish call resolves its
  /// matches to (record, user id) pairs before dispatching any handler, and
  /// the shared_ptr keeps a record alive when a handler unsubscribes it
  /// (or itself) mid-dispatch.
  struct UserSubscription {
    std::vector<SubscriptionId> internal_ids;  // one per disjunct
    NotificationHandler handler;
    Timestamp expires_at;
    uint64_t last_notified_publish = 0;  // dedups DNF matches per event
  };

  /// The handler records one event notifies, in match order.
  using Resolved =
      std::vector<std::pair<std::shared_ptr<UserSubscription>, SubscriptionId>>;

  /// Cached broker-level instrument pointers (see AttachTelemetry).
  struct Telemetry {
    Counter* publishes = nullptr;
    Counter* subscribes = nullptr;
    Counter* unsubscribes = nullptr;  // includes expiry-driven removals
    Counter* notifications = nullptr;
    Counter* expired_subscriptions = nullptr;
    Counter* expired_events = nullptr;
    Histogram* publish_ns = nullptr;
    Histogram* subscribe_ns = nullptr;
    Histogram* unsubscribe_ns = nullptr;
    Histogram* publish_batch_size = nullptr;
    Histogram* publish_batch_ns = nullptr;
  };

  Result<SubscriptionId> SubscribeInternal(
      std::vector<std::vector<Predicate>> disjuncts,
      NotificationHandler handler, Timestamp expires_at);

  /// Resolves one event's matched internal ids to the user records to
  /// notify, once per user (a DNF subscription may match through several
  /// disjuncts). Each call is one publish tick.
  void Resolve(const std::vector<SubscriptionId>& matches, Resolved* out);

  /// Runs the resolved handlers for one published event.
  static void Dispatch(const Resolved& resolved, EventId event_id,
                       const Event* event);

  /// Debug-build guard for the single-threaded contract above; mutating
  /// entry points open scopes on it.
  SerialChecker serial_;

  BrokerOptions options_;
  std::unique_ptr<Telemetry> telemetry_;
  SchemaRegistry schema_;
  std::unique_ptr<Matcher> matcher_;
  EventStore store_;

  std::unordered_map<SubscriptionId, std::shared_ptr<UserSubscription>>
      user_subs_;
  std::unordered_map<SubscriptionId, SubscriptionId> internal_to_user_;
  // Min-heap of (expires_at, user id).
  using ExpiryEntry = std::pair<Timestamp, SubscriptionId>;
  std::priority_queue<ExpiryEntry, std::vector<ExpiryEntry>,
                      std::greater<ExpiryEntry>>
      sub_expiry_;

  SubscriptionId next_user_id_ = 1;
  SubscriptionId next_internal_id_ = 1;
  uint64_t publish_count_ = 0;
  /// Logical clock.
  Timestamp now_ = 0;
  /// Match scratch, reused across calls. A nested publish from a handler
  /// may overwrite it: every call resolves its matches before dispatching.
  std::vector<SubscriptionId> scratch_matches_;
  BatchResult batch_scratch_;
};

}  // namespace vfps

#endif  // VFPS_PUBSUB_BROKER_H_
