// Copyright 2026 The vfps Authors.
// The common interface of all matching algorithms, plus per-match
// observability counters shared by the benches.

#ifndef VFPS_MATCHER_MATCHER_H_
#define VFPS_MATCHER_MATCHER_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/core/batch_result.h"
#include "src/core/event.h"
#include "src/core/subscription.h"
#include "src/core/types.h"
#include "src/telemetry/matcher_metrics.h"
#include "src/util/status.h"

namespace vfps {

/// Counters accumulated across Match() calls. The benches read these to
/// report the paper's phase breakdown (§6.2.1) and check counts (§3).
struct MatcherStats {
  /// Match() invocations.
  uint64_t events = 0;
  /// Predicates found satisfied by phase 1, summed over events.
  uint64_t predicates_satisfied = 0;
  /// Cluster rows tested by phase 2 ("subscription checks"), summed.
  uint64_t subscription_checks = 0;
  /// Clusters visited by phase 2, summed. For the clustered algorithms this
  /// counts the per-size clusters scanned inside every candidate list; the
  /// tree algorithm counts matching-tree nodes visited; the flat algorithms
  /// (naive, counting) have no cluster notion and report 0.
  uint64_t clusters_scanned = 0;
  /// Matches reported, summed.
  uint64_t matches = 0;
  /// Wall time in phase 1 (predicate testing), seconds, summed.
  double phase1_seconds = 0;
  /// Wall time in phase 2 (subscription matching), seconds, summed.
  double phase2_seconds = 0;

  void Reset() { *this = MatcherStats(); }
};

/// A matching algorithm: a mutable set of subscriptions plus an event
/// matching operation. Implementations are single-threaded; the Broker
/// provides synchronization when needed.
class Matcher {
 public:
  virtual ~Matcher();

  /// Short lowercase algorithm name ("counting", "propagation", ...).
  virtual const char* name() const = 0;

  /// Adds a subscription. Fails with AlreadyExists on a duplicate id.
  virtual Status AddSubscription(const Subscription& subscription) = 0;

  /// Removes a subscription by id. Fails with NotFound if absent.
  virtual Status RemoveSubscription(SubscriptionId id) = 0;

  /// Appends to `out` the ids of all stored subscriptions satisfied by
  /// `event`, in unspecified order, without duplicates. `out` is cleared
  /// first.
  virtual void Match(const Event& event,
                     std::vector<SubscriptionId>* out) = 0;

  /// Matches a whole batch of events: lane i of `out` receives exactly what
  /// Match(events[i], ...) would, in unspecified order, without duplicates.
  /// `out` is Reset to the batch size first; an empty batch yields an empty
  /// result. The base implementation loops over Match; the clustered
  /// matchers override it with kernels that amortize predicate-index probes
  /// and cluster-column scans across the batch (see docs/BATCHING.md).
  virtual void MatchBatch(std::span<const Event> events, BatchResult* out);

  /// Number of stored subscriptions.
  virtual size_t subscription_count() const = 0;

  /// Approximate total heap footprint in bytes (Figure 3(c)).
  virtual size_t MemoryUsage() const = 0;

  /// Cumulative per-match counters.
  const MatcherStats& stats() const { return stats_; }
  void ResetStats() { stats_.Reset(); }

  /// Attaches the standard vfps_matcher_* instruments of `registry`; every
  /// Match() then also records per-event phase timings and work counters
  /// into them (compiled out under VFPS_TELEMETRY=OFF). nullptr detaches.
  /// The registry must outlive the matcher or a later detach.
  virtual void AttachTelemetry(MetricsRegistry* registry);

 protected:
  /// Records one event's telemetry from the stats_ delta since `before`
  /// (taken at the top of Match). Caller guards on telemetry_ != nullptr.
  void RecordEventTelemetry(const MatcherStats& before);

  /// Records one MatchBatch call's size and wall time. Caller guards on
  /// telemetry_ != nullptr.
  void RecordBatchTelemetry(size_t batch_size, int64_t batch_nanos);

  MatcherStats stats_;
  std::unique_ptr<MatcherTelemetry> telemetry_;
};

}  // namespace vfps

#endif  // VFPS_MATCHER_MATCHER_H_
