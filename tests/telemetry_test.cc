// Copyright 2026 The vfps Authors.
// Tests for the telemetry subsystem: counter/histogram correctness,
// quantile accuracy bounds, registry lookups, exports, and the
// matcher/broker integration points. (Thread-safety of the instruments is
// covered by telemetry_concurrency_test.cc under the concurrency label.)

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/batch_result.h"
#include "src/matcher/dynamic_matcher.h"
#include "src/pubsub/broker.h"
#include "src/telemetry/metrics.h"
#include "src/workload/workload_generator.h"

namespace vfps {
namespace {

// --- Counter ----------------------------------------------------------------

TEST(CounterTest, IncAccumulates) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Inc();
  c.Inc(41);
  EXPECT_EQ(c.value(), 42u);
}

// --- Histogram --------------------------------------------------------------

TEST(HistogramTest, EmptyReportsZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.ValueAtPercentile(50), 0u);
}

TEST(HistogramTest, SmallValuesAreExact) {
  // Values below 2 * kSubBuckets = 16 land in width-1 buckets.
  Histogram h;
  for (int64_t v = 0; v < 16; ++v) h.Record(v);
  EXPECT_EQ(h.count(), 16u);
  EXPECT_EQ(h.sum(), 120u);
  EXPECT_EQ(h.max(), 15u);
  EXPECT_EQ(h.ValueAtPercentile(100), 15u);
  // The k-th of 16 samples 0..15 is k-1 (rank k), reported exactly.
  EXPECT_EQ(h.ValueAtPercentile(50), 7u);
}

TEST(HistogramTest, NegativeClampsToZero) {
  Histogram h;
  h.Record(-5);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.sum(), 0u);
  EXPECT_EQ(h.ValueAtPercentile(50), 0u);
}

TEST(HistogramTest, BucketIndexingRoundTrips) {
  // Every value maps to a bucket whose upper bound is >= the value and
  // within 12.5% of it.
  for (uint64_t v :
       std::vector<uint64_t>{0, 1, 15, 16, 17, 100, 1000, 4095, 4096, 65537,
                             1000000, 123456789, uint64_t{1} << 40}) {
    const int index = Histogram::IndexFor(v);
    ASSERT_GE(index, 0);
    ASSERT_LT(index, Histogram::kBucketCount);
    const uint64_t upper = Histogram::BucketUpperBound(index);
    EXPECT_GE(upper, v) << "value " << v;
    EXPECT_LE(static_cast<double>(upper),
              static_cast<double>(v) * 1.125 + 1.0)
        << "value " << v;
    if (index > 0) {
      EXPECT_LT(Histogram::BucketUpperBound(index - 1), v) << "value " << v;
    }
  }
}

TEST(HistogramTest, QuantileWithinDocumentedErrorBound) {
  // A spread of magnitudes; true percentiles are computed from the sorted
  // sample, the estimate must sit in [true, true * 1.125] (plus max-cap).
  Histogram h;
  std::vector<uint64_t> samples;
  uint64_t v = 1;
  for (int i = 0; i < 400; ++i) {
    v = v * 29 % 9999991;  // deterministic pseudo-random walk
    samples.push_back(v);
    h.Record(static_cast<int64_t>(v));
  }
  std::sort(samples.begin(), samples.end());
  for (double p : {10.0, 50.0, 90.0, 99.0}) {
    size_t rank = static_cast<size_t>(p / 100.0 * samples.size() + 0.5);
    if (rank == 0) rank = 1;
    const uint64_t truth = samples[rank - 1];
    const uint64_t est = h.ValueAtPercentile(p);
    EXPECT_GE(est, truth) << "p" << p;
    EXPECT_LE(static_cast<double>(est),
              static_cast<double>(truth) * 1.125 + 1.0)
        << "p" << p;
  }
  EXPECT_EQ(h.ValueAtPercentile(100), samples.back());
}

TEST(HistogramTest, EstimateNeverExceedsObservedMax) {
  Histogram h;
  h.Record(1000);  // alone in a bucket spanning [960, 1023]
  EXPECT_EQ(h.ValueAtPercentile(99), 1000u);
}

// --- ScopedTimer ------------------------------------------------------------

TEST(ScopedTimerTest, RecordsOnDestruction) {
  Histogram h;
  { ScopedTimer t(&h); }
  EXPECT_EQ(h.count(), 1u);
}

TEST(ScopedTimerTest, NullHistogramIsNoop) {
  ScopedTimer t(nullptr);  // must not crash on destruction
}

// --- MetricsRegistry --------------------------------------------------------

TEST(MetricsRegistryTest, GetReturnsStableSamePointer) {
  MetricsRegistry reg;
  Counter* c1 = reg.GetCounter("vfps_test_total");
  Counter* c2 = reg.GetCounter("vfps_test_total");
  EXPECT_EQ(c1, c2);
  Histogram* h1 = reg.GetHistogram("vfps_test_ns");
  Histogram* h2 = reg.GetHistogram("vfps_test_ns");
  EXPECT_EQ(h1, h2);
}

TEST(MetricsRegistryTest, GaugesSampleAtReadTime) {
  MetricsRegistry reg;
  int64_t live = 3;
  reg.RegisterGauge("vfps_test_live", [&live] { return live; });
  EXPECT_EQ(reg.GaugeValue("vfps_test_live"), 3);
  live = 7;
  EXPECT_EQ(reg.GaugeValue("vfps_test_live"), 7);
  EXPECT_EQ(reg.GaugeValue("vfps_no_such_gauge"), 0);
}

TEST(MetricsRegistryTest, SnapshotSummarizesHistogram) {
  MetricsRegistry reg;
  Histogram* h = reg.GetHistogram("vfps_test_ns");
  for (int64_t v = 0; v < 10; ++v) h->Record(v);
  HistogramSnapshot snap = reg.Snapshot("vfps_test_ns");
  EXPECT_EQ(snap.count, 10u);
  EXPECT_EQ(snap.sum, 45u);
  EXPECT_EQ(snap.max, 9u);
  EXPECT_DOUBLE_EQ(snap.mean, 4.5);
  EXPECT_EQ(snap.p50, 4u);
  // Missing name: all-zero snapshot.
  EXPECT_EQ(reg.Snapshot("vfps_absent_ns").count, 0u);
}

TEST(MetricsRegistryTest, PrometheusExportHasTypesAndSeries) {
  MetricsRegistry reg;
  reg.GetCounter("vfps_a_total")->Inc(3);
  reg.RegisterGauge("vfps_b", [] { return int64_t{-2}; });
  reg.GetHistogram("vfps_c_ns")->Record(7);
  const std::string text = reg.ExportPrometheus();
  EXPECT_NE(text.find("# TYPE vfps_a_total counter\n"), std::string::npos);
  EXPECT_NE(text.find("vfps_a_total 3\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE vfps_b gauge\n"), std::string::npos);
  EXPECT_NE(text.find("vfps_b -2\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE vfps_c_ns summary\n"), std::string::npos);
  EXPECT_NE(text.find("vfps_c_ns{quantile=\"0.99\"} 7\n"),
            std::string::npos);
  EXPECT_NE(text.find("vfps_c_ns_count 1\n"), std::string::npos);
  EXPECT_NE(text.find("vfps_c_ns_sum 7\n"), std::string::npos);
}

TEST(MetricsRegistryTest, JsonExportIsSingleLine) {
  MetricsRegistry reg;
  reg.GetCounter("vfps_a_total")->Inc(3);
  reg.RegisterGauge("vfps_b", [] { return int64_t{4}; });
  reg.GetHistogram("vfps_c_ns")->Record(7);
  const std::string json = reg.ExportJson();
  EXPECT_EQ(json.find('\n'), std::string::npos);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"vfps_a_total\":3"), std::string::npos);
  EXPECT_NE(json.find("\"vfps_b\":4"), std::string::npos);
  EXPECT_NE(json.find("\"vfps_c_ns\":{\"count\":1,\"sum\":7"),
            std::string::npos);
}

// --- Matcher integration ----------------------------------------------------
// Per-event recording only exists when hot-path telemetry is compiled in.
#if VFPS_TELEMETRY

// The matcher records straight into the attached registry: the counters
// agree with stats() with no collection step before reading them.
TEST(MatcherTelemetryTest, MatchRecordsWorkCounters) {
  WorkloadGenerator gen(workloads::W0(500, /*seed=*/7));
  std::vector<Subscription> subs = gen.MakeSubscriptions(500, 1);
  std::unique_ptr<Matcher> matcher = MakeMatcher(Algorithm::kDynamic);
  for (const Subscription& s : subs) {
    ASSERT_TRUE(matcher->AddSubscription(s).ok());
  }
  MetricsRegistry reg;
  matcher->AttachTelemetry(&reg);

  std::vector<SubscriptionId> out;
  const size_t kEvents = 20;
  for (const Event& e : gen.MakeEvents(kEvents)) matcher->Match(e, &out);

  EXPECT_EQ(reg.GetCounter("vfps_matcher_events_total")->value(), kEvents);
  // The registry's cumulative view agrees with the matcher's own stats.
  const MatcherStats& stats = matcher->stats();
  EXPECT_EQ(reg.GetCounter("vfps_matcher_matches_total")->value(),
            stats.matches);
  EXPECT_EQ(
      reg.GetCounter("vfps_matcher_subscription_checks_total")->value(),
      stats.subscription_checks);
  EXPECT_EQ(reg.GetCounter("vfps_matcher_clusters_scanned_total")->value(),
            stats.clusters_scanned);
  EXPECT_EQ(
      reg.GetCounter("vfps_matcher_predicates_satisfied_total")->value(),
      stats.predicates_satisfied);
  EXPECT_EQ(reg.GetHistogram("vfps_matcher_match_ns")->count(), kEvents);
  EXPECT_EQ(reg.GetHistogram("vfps_matcher_phase1_ns")->count(), kEvents);
  EXPECT_EQ(reg.GetHistogram("vfps_matcher_phase2_ns")->count(), kEvents);

  // Detach stops recording.
  matcher->AttachTelemetry(nullptr);
  for (const Event& e : gen.MakeEvents(5)) matcher->Match(e, &out);
  EXPECT_EQ(reg.GetCounter("vfps_matcher_events_total")->value(), kEvents);
}

// Match records per event; MatchBatch is the native kernel, not the
// per-event default loop (which would record one match_ns sample per
// batched event as well).
TEST(MatcherTelemetryTest, MatchBatchRecordsOneNativeBatch) {
  DynamicMatcher matcher;
  MetricsRegistry metrics;
  matcher.AttachTelemetry(&metrics);
  ASSERT_TRUE(matcher
                  .AddSubscription(Subscription::Create(
                      1, {Predicate(0, RelOp::kEq, 5)}))
                  .ok());
  std::vector<SubscriptionId> out;
  for (int i = 0; i < 10; ++i) {
    matcher.Match(Event::CreateUnchecked({{0, 5}}), &out);
  }
  std::vector<Event> batch(6, Event::CreateUnchecked({{0, 5}}));
  BatchResult results;
  matcher.MatchBatch(batch, &results);
  for (size_t lane = 0; lane < batch.size(); ++lane) {
    EXPECT_EQ(results.matches(lane), (std::vector<SubscriptionId>{1}));
  }
  EXPECT_EQ(matcher.stats().events, 16u);
  EXPECT_EQ(metrics.GetHistogram("vfps_matcher_match_ns")->count(), 10u);
  EXPECT_EQ(metrics.GetHistogram("vfps_matcher_phase1_ns")->count(), 10u);
  EXPECT_EQ(metrics.GetHistogram("vfps_matcher_phase2_ns")->count(), 10u);
  EXPECT_EQ(metrics.GetHistogram("vfps_matcher_batch_size")->count(), 1u);
  EXPECT_EQ(metrics.GetCounter("vfps_matcher_events_total")->value(), 16u);
  EXPECT_EQ(metrics.GetCounter("vfps_matcher_matches_total")->value(), 16u);
  matcher.AttachTelemetry(nullptr);
}

// The dynamic matcher's maintenance work is exported as it happens: a
// cold-start census driven by MatchBatch alone builds tables and moves
// subscriptions, and the series agree with maintenance_stats().
TEST(MatcherTelemetryTest, DynamicMaintenanceSeriesTrackMaintenanceStats) {
  WorkloadSpec spec = workloads::W0(3000, /*seed=*/9);
  spec.value_hi = 8;
  spec.event_value_hi = 8;
  WorkloadGenerator gen(spec);
  DynamicMatcher matcher(DynamicOptions{}, /*use_prefetch=*/true,
                         /*observe_sample_rate=*/1);
  MetricsRegistry reg;
  matcher.AttachTelemetry(&reg);
  for (const Subscription& s : gen.MakeSubscriptions(3000, 1)) {
    ASSERT_TRUE(matcher.AddSubscription(s).ok());
  }
  EXPECT_EQ(reg.GetCounter("vfps_matcher_sweeps_total")->value(), 0u);
  EXPECT_EQ(reg.GaugeValue("vfps_matcher_tables"), 0);

  const std::vector<Event> events = gen.MakeEvents(100);
  BatchResult out;
  for (uint64_t done = 0;
       done < DynamicMatcher::kColdCensusSamples + 40 * events.size();
       done += events.size()) {
    matcher.MatchBatch(events, &out);
  }
  const DynamicMatcher::MaintenanceStats& ms = matcher.maintenance_stats();
  ASSERT_GE(ms.tables_created, 1u);
  ASSERT_GT(ms.subscriptions_moved, 0u);
  EXPECT_EQ(reg.GetCounter("vfps_matcher_sweeps_total")->value(), ms.sweeps);
  EXPECT_EQ(reg.GetCounter("vfps_matcher_tables_created_total")->value(),
            ms.tables_created);
  EXPECT_EQ(reg.GetCounter("vfps_matcher_tables_deleted_total")->value(),
            ms.tables_deleted);
  EXPECT_EQ(
      reg.GetCounter("vfps_matcher_subscriptions_moved_total")->value(),
      ms.subscriptions_moved);
  EXPECT_EQ(reg.GaugeValue("vfps_matcher_tables"),
            static_cast<int64_t>(matcher.TableSchemas().size()));
  EXPECT_EQ(reg.GaugeValue("vfps_matcher_tables"),
            static_cast<int64_t>(ms.tables_created - ms.tables_deleted));
}

TEST(MatcherTelemetryTest, ClusteredMatcherCountsClustersScanned) {
  WorkloadGenerator gen(workloads::W0(2000, /*seed=*/13));
  std::vector<Subscription> subs = gen.MakeSubscriptions(2000, 1);
  std::unique_ptr<Matcher> matcher = MakeMatcher(Algorithm::kPropagation);
  for (const Subscription& s : subs) {
    ASSERT_TRUE(matcher->AddSubscription(s).ok());
  }
  std::vector<SubscriptionId> out;
  for (const Event& e : gen.MakeEvents(20)) matcher->Match(e, &out);
  EXPECT_GT(matcher->stats().clusters_scanned, 0u);
}

#endif  // VFPS_TELEMETRY

// --- Broker integration -----------------------------------------------------
// Broker accounting is compiled unconditionally (cold path).

TEST(BrokerTelemetryTest, CountsOperationsAndExpiry) {
  Broker broker(BrokerOptions{Algorithm::kCounting, /*store_events=*/true});
  MetricsRegistry reg;
  broker.AttachTelemetry(&reg);

  auto sub = broker.SubscribeExpression("price <= 400", nullptr, 10);
  ASSERT_TRUE(sub.ok());
  auto sub2 = broker.SubscribeExpression("price <= 100", nullptr);
  ASSERT_TRUE(sub2.ok());
  auto pub = broker.PublishExpression("price = 50", 5);
  ASSERT_TRUE(pub.ok());
  EXPECT_EQ(pub.value().matches, 2u);
  ASSERT_TRUE(broker.Unsubscribe(sub2.value()).ok());
  broker.AdvanceTime(20);  // expires the stored event and the subscription

  EXPECT_EQ(reg.GetCounter("vfps_broker_subscribes_total")->value(), 2u);
  EXPECT_EQ(reg.GetCounter("vfps_broker_publishes_total")->value(), 1u);
  EXPECT_EQ(reg.GetCounter("vfps_broker_notifications_total")->value(), 2u);
  // Unsubscribes: one explicit + one expiry-driven.
  EXPECT_EQ(reg.GetCounter("vfps_broker_unsubscribes_total")->value(), 2u);
  EXPECT_EQ(
      reg.GetCounter("vfps_broker_expired_subscriptions_total")->value(),
      1u);
  EXPECT_EQ(reg.GetCounter("vfps_broker_expired_events_total")->value(), 1u);
  EXPECT_EQ(reg.GetHistogram("vfps_broker_publish_ns")->count(), 1u);
  EXPECT_EQ(reg.GetHistogram("vfps_broker_subscribe_ns")->count(), 2u);
  EXPECT_EQ(reg.GaugeValue("vfps_broker_subscriptions"), 0);
  EXPECT_EQ(reg.GaugeValue("vfps_broker_stored_events"), 0);
}

TEST(BrokerTelemetryTest, GaugesTrackLiveCounts) {
  Broker broker(BrokerOptions{Algorithm::kDynamic, /*store_events=*/true});
  MetricsRegistry reg;
  broker.AttachTelemetry(&reg);
  ASSERT_TRUE(broker.SubscribeExpression("a = 1", nullptr).ok());
  ASSERT_TRUE(broker.PublishExpression("a = 2").ok());
  EXPECT_EQ(reg.GaugeValue("vfps_broker_subscriptions"), 1);
  EXPECT_EQ(reg.GaugeValue("vfps_broker_stored_events"), 1);
  const std::string json = reg.ExportJson();
  EXPECT_NE(json.find("\"vfps_broker_subscriptions\":1"), std::string::npos);
}

}  // namespace
}  // namespace vfps
