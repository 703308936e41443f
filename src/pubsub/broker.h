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
// Threading: the Broker is single-threaded by default — the paper's system
// is one matching process fed batches; callers serialize access. Under
// VFPS_DEBUG_INVARIANTS every mutating entry point carries a
// VFPS_SERIAL_SCOPE (src/util/sync.h): two threads entering concurrently
// abort with both entry points named. Same-thread re-entrancy
// (Publish -> notification handler -> Publish) stays legal.
//
// Opt-in concurrent churn (BrokerOptions::concurrent_churn, with a
// clustered algorithm and store_events=false): the broker builds its
// matcher concurrent (see ClusteredMatcherBase), and Subscribe,
// SubscribeDnf, SubscribeExpression, Unsubscribe, Publish, and
// PublishBatch may then be called from any threads concurrently. The
// subscription bookkeeping is guarded by an internal mutex held only for
// map operations — never across matcher calls or notification handlers —
// and handler records are shared_ptr-held so a handler already resolved
// for dispatch survives a concurrent Unsubscribe (it may fire once more
// after Unsubscribe returns). AdvanceTime stays single-driver even in this
// mode. See docs/CONCURRENCY.md.

#ifndef VFPS_PUBSUB_BROKER_H_
#define VFPS_PUBSUB_BROKER_H_

#include <atomic>
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

/// True for the clustered algorithms (propagation, propagation-wp, static,
/// dynamic): the ones that can be built concurrent.
bool IsClustered(Algorithm algorithm);

/// Constructs a standalone matcher for `algorithm` (also usable without a
/// Broker). `concurrent` builds a clustered matcher whose Match may run
/// alongside subscription changes; it requires IsClustered(algorithm).
std::unique_ptr<Matcher> MakeMatcher(Algorithm algorithm,
                                     bool concurrent = false);

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
  /// Normalize subscription conjunctions before registration (interval
  /// reasoning per attribute): redundant predicates are dropped and
  /// provably unsatisfiable conjunctions are never handed to the matcher.
  bool normalize_subscriptions = true;
  /// Allow Subscribe/Unsubscribe/Publish/PublishBatch from concurrent
  /// threads (see the file comment). Requires a clustered algorithm and
  /// store_events = false (reverse matching against the store is
  /// inherently serial); the constructor CHECKs both.
  bool concurrent_churn = false;
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
  /// (logical time; kNeverExpires by default). If events are stored, the
  /// handler is invoked immediately for every stored event that already
  /// satisfies the subscription.
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
  Timestamp now() const { return now_.load(); }

  // --- introspection ----------------------------------------------------------

  /// Live user-facing subscriptions.
  size_t subscription_count() const {
    MutexLock lock(subs_mu_);
    return user_subs_.size();
  }
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
  /// Held by shared_ptr in user_subs_: Publish resolves matches to
  /// (record, user id) pairs under subs_mu_, then dispatches handlers with
  /// the lock released — the shared_ptr keeps a record alive across a
  /// concurrent Unsubscribe. `handler` and `expires_at` are immutable after
  /// construction; the mutable fields are guarded by subs_mu_.
  struct UserSubscription {
    std::vector<SubscriptionId> internal_ids;  // one per disjunct
    NotificationHandler handler;
    Timestamp expires_at;
    uint64_t last_notified_publish = 0;  // dedups DNF matches per event
  };

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

  /// Debug-build guard for the single-threaded contract above; mutating
  /// entry points open scopes on it.
  SerialChecker serial_;

  BrokerOptions options_;
  std::unique_ptr<Telemetry> telemetry_;
  SchemaRegistry schema_;
  std::unique_ptr<Matcher> matcher_;
  EventStore store_;

  /// Guards the subscription bookkeeping below in both modes (uncontended
  /// in the serial default). Held only for map/heap/counter operations —
  /// never across matcher_, store_, or notification-handler calls (handlers
  /// may re-enter the broker).
  mutable Mutex subs_mu_{LockRank::kBrokerSubs, "broker_subs"};

  std::unordered_map<SubscriptionId, std::shared_ptr<UserSubscription>>
      user_subs_ VFPS_GUARDED_BY(subs_mu_);
  std::unordered_map<SubscriptionId, SubscriptionId> internal_to_user_
      VFPS_GUARDED_BY(subs_mu_);
  // Min-heap of (expires_at, user id).
  using ExpiryEntry = std::pair<Timestamp, SubscriptionId>;
  std::priority_queue<ExpiryEntry, std::vector<ExpiryEntry>,
                      std::greater<ExpiryEntry>>
      sub_expiry_ VFPS_GUARDED_BY(subs_mu_);

  SubscriptionId next_user_id_ VFPS_GUARDED_BY(subs_mu_) = 1;
  SubscriptionId next_internal_id_ VFPS_GUARDED_BY(subs_mu_) = 1;
  uint64_t publish_count_ VFPS_GUARDED_BY(subs_mu_) = 0;
  /// Logical clock. Atomic so concurrent Subscribe calls can read it while
  /// the (single-driver) AdvanceTime advances it.
  std::atomic<Timestamp> now_{0};
  /// Serial-mode match scratch; concurrent publishes use thread-local
  /// scratch instead (driver-owned, so unguarded by design).
  std::vector<SubscriptionId> scratch_matches_;

  /// Serial-mode batch scratch (see scratch_matches_).
  BatchResult batch_scratch_;
};

}  // namespace vfps

#endif  // VFPS_PUBSUB_BROKER_H_
