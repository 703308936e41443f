// Copyright 2026 The vfps Authors.
// The matcher's instrument bundle: the per-event phase breakdown the
// paper's Figures 3-4 are built from (phase-1 predicate testing vs phase-2
// cluster scanning), resolved once at attach time so the match loop only
// touches cached pointers. See docs/OBSERVABILITY.md for the catalog.

#ifndef VFPS_TELEMETRY_MATCHER_METRICS_H_
#define VFPS_TELEMETRY_MATCHER_METRICS_H_

#include <cstdint>

#include "src/telemetry/metrics.h"

namespace vfps {

/// Cached instrument pointers for one matcher. Every matcher records
/// straight into the registry it is attached to (the server's match worker
/// records into the server registry), so an export needs no collection
/// step; matchers attached to the same registry share instruments.
struct MatcherTelemetry {
  Counter* events = nullptr;
  Counter* predicates_evaluated = nullptr;
  Counter* clusters_scanned = nullptr;
  Counter* subscription_checks = nullptr;
  Counter* matches = nullptr;
  Histogram* match_ns = nullptr;
  Histogram* phase1_ns = nullptr;
  Histogram* phase2_ns = nullptr;
  Histogram* batch_size = nullptr;
  Histogram* batch_ns = nullptr;

  /// Resolves the standard vfps_matcher_* instruments in `registry`.
  static MatcherTelemetry Create(MetricsRegistry* registry) {
    MatcherTelemetry t;
    t.events = registry->GetCounter("vfps_matcher_events_total");
    t.predicates_evaluated =
        registry->GetCounter("vfps_matcher_predicates_satisfied_total");
    t.clusters_scanned =
        registry->GetCounter("vfps_matcher_clusters_scanned_total");
    t.subscription_checks =
        registry->GetCounter("vfps_matcher_subscription_checks_total");
    t.matches = registry->GetCounter("vfps_matcher_matches_total");
    t.match_ns = registry->GetHistogram("vfps_matcher_match_ns");
    t.phase1_ns = registry->GetHistogram("vfps_matcher_phase1_ns");
    t.phase2_ns = registry->GetHistogram("vfps_matcher_phase2_ns");
    t.batch_size = registry->GetHistogram("vfps_matcher_batch_size");
    t.batch_ns = registry->GetHistogram("vfps_matcher_batch_ns");
    return t;
  }

  /// Records one matched event. `*_delta` are this event's contributions.
  void RecordEvent(int64_t phase1_nanos, int64_t phase2_nanos,
                   uint64_t predicates_delta, uint64_t clusters_delta,
                   uint64_t checks_delta, uint64_t matches_delta) {
    events->Inc();
    predicates_evaluated->Inc(predicates_delta);
    clusters_scanned->Inc(clusters_delta);
    subscription_checks->Inc(checks_delta);
    matches->Inc(matches_delta);
    phase1_ns->Record(phase1_nanos);
    phase2_ns->Record(phase2_nanos);
    match_ns->Record(phase1_nanos + phase2_nanos);
  }

  /// Records one MatchBatch call: how many events it carried and how long
  /// the whole batch took end to end.
  void RecordBatch(uint64_t size, int64_t batch_nanos) {
    batch_size->Record(static_cast<int64_t>(size));
    batch_ns->Record(batch_nanos);
  }

  /// Records a batched matcher's aggregate work counters. The native batch
  /// kernels bypass RecordEvent (there is no per-event wall time to put in
  /// the per-event histograms), but the counters must keep agreeing with
  /// the per-event path so dashboards do not fork on the ingest mode.
  void RecordBatchWork(uint64_t events_delta, uint64_t predicates_delta,
                       uint64_t clusters_delta, uint64_t checks_delta,
                       uint64_t matches_delta) {
    events->Inc(events_delta);
    predicates_evaluated->Inc(predicates_delta);
    clusters_scanned->Inc(clusters_delta);
    subscription_checks->Inc(checks_delta);
    matches->Inc(matches_delta);
  }
};

}  // namespace vfps

#endif  // VFPS_TELEMETRY_MATCHER_METRICS_H_
