// Copyright 2026 The vfps Authors.

#include "servbench/replay.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "servbench/common.h"
#include "src/lang/parser.h"
#include "src/matcher/dynamic_matcher.h"
#include "src/net/protocol.h"
#include "src/pubsub/broker.h"
#include "src/util/rng.h"

namespace servbench {
namespace {

// Events replayed in process: enough for stable per-event means and a
// p99 with hundreds of samples beyond it, small enough to stay seconds.
constexpr uint64_t kReplayEvents = 20000;

// Number of interned string values: ids are dense from 0 and ValueText
// answers "" past the end (the generated workloads intern no empty
// string), so the count is the first id with empty text.
uint64_t InternedValues(const vfps::SchemaRegistry& schema) {
  uint64_t lo = 0;
  uint64_t hi = 1;
  while (!schema.ValueText(static_cast<vfps::Value>(hi - 1)).empty()) hi *= 2;
  // Invariant: ids < lo are interned, id hi - 1 is not.
  while (lo + 1 < hi) {
    const uint64_t mid = lo + (hi - lo) / 2;
    if (schema.ValueText(static_cast<vfps::Value>(mid - 1)).empty()) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  return schema.ValueText(0).empty() ? 0 : lo;
}

class Replayer {
 public:
  Replayer(Workload* w, const WireResult& wire, ReplayResult* r)
      : w_(*w), wire_(wire), r_(*r),
        broker_(vfps::BrokerOptions{vfps::Algorithm::kDynamic,
                                    w->store_events}),
        rng_(w->seed * 0x9e3779b97f4a7c15ULL + 5) {}

  void Run() {
    w_.RestartChurn();
    for (const std::string& text : w_.stable_text) {
      Subscribe(text, vfps::kNeverExpires);
    }
    for (size_t i = 0; i < w_.initial_churn; ++i) {
      SubscribeChurn(rng_.Range(1, w_.churn.sub_life_ticks));
    }
    // Requests, churn steps and ticks interleave in the proportions of the
    // wire run: its offered rate, or the closed loop's achieved rate.
    const double event_rate =
        w_.offered_rate > 0
            ? w_.offered_rate
            : static_cast<double>(Totals(wire_).events_acked) /
                  wire_.window_s;
    const double steps_per_event = w_.churn.steps_per_s / event_rate;
    const double ticks_per_event = w_.churn.ticks_per_s / event_rate;
    const size_t per_request = w_.batch;
    double steps_due = 0;
    double ticks_due = 0;
    for (uint64_t seq = 0; seq < kReplayEvents; seq += per_request) {
      Publish(seq, per_request);
      steps_due += steps_per_event * static_cast<double>(per_request);
      ticks_due += ticks_per_event * static_cast<double>(per_request);
      for (; ticks_due >= 1; ticks_due -= 1) Tick();
      for (; steps_due >= 1; steps_due -= 1) ChurnStep();
    }
    // Counters, memory and maintenance come from the broker's own matcher,
    // which received exactly the server's calls: normalized conjunctions,
    // and MatchBatch only on PUBBATCH workloads (Match counts clusters per
    // event, MatchBatch per chunk of lanes). The standalone matcher only
    // times single calls.
    const auto* served =
        dynamic_cast<const vfps::DynamicMatcher*>(&broker_.matcher());
    if (served == nullptr) {
      std::fprintf(stderr, "servbench: the broker's matcher is not dynamic\n");
      std::abort();
    }
    const vfps::MatcherStats& st = served->stats();
    r_.matcher_events = st.events;
    r_.phase1_s = st.phase1_seconds;
    r_.phase2_s = st.phase2_seconds;
    r_.predicates = st.predicates_satisfied;
    r_.checks = st.subscription_checks;
    r_.clusters = st.clusters_scanned;
    r_.matches = st.matches;
    r_.memory_mb = static_cast<double>(served->MemoryUsage()) / (1 << 20);
    const auto& ms = served->maintenance_stats();
    r_.tables_created = ms.tables_created;
    r_.tables_deleted = ms.tables_deleted;
    r_.subscriptions_moved = ms.subscriptions_moved;
    r_.sweeps = ms.sweeps;
    r_.schema_values = InternedValues(broker_.schema());
    r_.schema_attributes = broker_.schema().attribute_count();
    r_.stored_events = broker_.stored_event_count();
  }

 private:
  struct Churned {
    vfps::SubscriptionId broker_id;
    vfps::SubscriptionId matcher_id;
    int64_t deadline;
  };

  uint64_t SpanId() { return ++span_ids_; }

  void AddSpan(uint64_t id, uint64_t parent, uint64_t request,
               const char* name, int64_t start, int64_t end) {
    r_.spans.push_back(Span{id, parent, request, name, start, end});
  }

  // lang parse, then the Broker subscription (pubsub, with its matcher)
  // and, for the add timing only, the standalone matcher's
  // AddSubscription, each timed on its own.
  // Returns the broker and matcher ids.
  std::pair<vfps::SubscriptionId, vfps::SubscriptionId> Subscribe(
      const std::string& text, int64_t deadline) {
    const int64_t t0 = NowNs();
    auto parsed = vfps::ParseCondition(text, &broker_.schema());
    const int64_t t1 = NowNs();
    r_.parse_condition_ns += static_cast<double>(t1 - t0);
    ++r_.conditions;
    const std::vector<vfps::Predicate> conjunction =
        parsed.value().disjuncts.front();
    auto id = broker_.SubscribeDnf(
        std::move(parsed).value().disjuncts,
        [this](const vfps::Notification& n) { OnNotification(n); },
        deadline);
    const int64_t t2 = NowNs();
    r_.subscribe_ns.push_back(static_cast<double>(t2 - t1));
    const vfps::SubscriptionId matcher_id = ++matcher_ids_;
    (void)matcher_.AddSubscription(
        vfps::Subscription::Create(matcher_id, conjunction));
    r_.add_ns.push_back(static_cast<double>(NowNs() - t2));
    return {id.ok() ? id.value() : 0, matcher_id};
  }

  void SubscribeChurn(int64_t life) {
    const int64_t deadline = w_.churn.ticks_per_s > 0 ? tick_ + life
                                                      : vfps::kNeverExpires;
    const auto [broker_id, matcher_id] =
        Subscribe(w_.NextChurnSub().text, deadline);
    live_.push_back(Churned{broker_id, matcher_id, deadline});
  }

  // An expired subscription is already gone from the broker.
  void Unsubscribe(const Churned& c, bool expired) {
    if (!expired) (void)broker_.Unsubscribe(c.broker_id);
    const int64_t t0 = NowNs();
    (void)matcher_.RemoveSubscription(c.matcher_id);
    r_.remove_ns.push_back(static_cast<double>(NowNs() - t0));
  }

  // The wire run's population controller, in process.
  void ChurnStep() {
    const int64_t start = NowNs();
    const uint64_t request = SpanId();
    if (live_.size() >= w_.churn.population) {
      const size_t pick = rng_.Below(live_.size());
      Unsubscribe(live_[pick], false);
      live_[pick] = live_.back();
      live_.pop_back();
      AddSpan(request, 0, request, "unsub", start, NowNs());
    } else {
      SubscribeChurn(w_.churn.sub_life_ticks);
      AddSpan(request, 0, request, "sub", start, NowNs());
    }
  }

  // Advances the broker's clock (which expires subscriptions and stored
  // events) and removes the same subscriptions from the standalone
  // matcher.
  void Tick() {
    ++tick_;
    broker_.AdvanceTime(tick_);
    auto keep = live_.begin();
    for (auto it = live_.begin(); it != live_.end(); ++it) {
      if (it->deadline <= tick_) {
        Unsubscribe(*it, true);
      } else {
        *keep++ = *it;
      }
    }
    live_.erase(keep, live_.end());
  }

  // Formats the EVENT push as the server does: the event text once per
  // event, a header per recipient (net's formatting functions).
  void OnNotification(const vfps::Notification& n) {
    const int64_t t0 = NowNs();
    if (n.event != last_event_) {
      payload_ = vfps::FormatEventText(*n.event, broker_.schema());
      last_event_ = n.event;
    }
    const std::string header =
        vfps::FormatEventPushHeader(n.subscription, n.event_id);
    // Keeps the formatted bytes observable, so the work is not elided.
    formatted_bytes_ += header.size() + payload_.size();
    ++r_.notifications;
    format_ns_in_request_ += NowNs() - t0;
  }

  // One publish request of `count` events starting at `seq`: lang parse,
  // then Broker::PublishBatch (PUBBATCH) or Broker::Publish (PUB), whose
  // matcher phase time and notification formatting become child spans.
  // The standalone matcher then times the same events, alternately per
  // event (Match) and as one batch (MatchBatch) for batch workloads; its
  // counters are not reported, since they blend the two calls.
  void Publish(uint64_t seq, size_t count) {
    const uint64_t request = SpanId();
    const int64_t t0 = NowNs();
    std::vector<vfps::Event> events;
    events.reserve(count);
    for (size_t i = 0; i < count; ++i) {
      auto e = vfps::ParseEvent(w_.EventText(seq + i), &broker_.schema());
      if (e.ok()) events.push_back(std::move(e).value());
    }
    const int64_t t1 = NowNs();
    const vfps::MatcherStats before = broker_.matcher().stats();
    format_ns_in_request_ = 0;
    last_event_ = nullptr;
    if (w_.batch > 1) {
      broker_.PublishBatch(events);
    } else if (!events.empty()) {
      const int64_t deadline = w_.churn.ticks_per_s > 0
                                   ? tick_ + w_.churn.event_life_ticks
                                   : vfps::kNeverExpires;
      (void)broker_.Publish(events.front(), deadline);
    }
    const int64_t t2 = NowNs();
    const vfps::MatcherStats& after = broker_.matcher().stats();
    const double match_ns =
        (after.phase1_seconds + after.phase2_seconds -
         before.phase1_seconds - before.phase2_seconds) * 1e9;
    const uint64_t publish_id = SpanId();
    AddSpan(request, 0, request, "request", t0, t2);
    AddSpan(SpanId(), request, request, "lang.parse_event", t0, t1);
    AddSpan(publish_id, request, request, "pubsub.publish", t1, t2);
    // The broker cannot be stamped from outside: these two children carry
    // their measured totals, placed at the start of the publish span.
    AddSpan(SpanId(), publish_id, request, "matcher.match", t1,
            t1 + static_cast<int64_t>(match_ns));
    AddSpan(SpanId(), publish_id, request, "net.format", t1,
            t1 + format_ns_in_request_);
    r_.parse_event_ns += static_cast<double>(t1 - t0);
    r_.publish_ns += static_cast<double>(t2 - t1);
    r_.publish_match_ns += match_ns;
    r_.format_ns += static_cast<double>(format_ns_in_request_);
    r_.request_ns.push_back(static_cast<double>(t2 - t0));
    r_.events += events.size();
    ++r_.requests;

    std::vector<vfps::SubscriptionId> out;
    if (w_.batch > 1 && r_.requests % 2 == 0) {
      const int64_t b0 = NowNs();
      matcher_.MatchBatch(events, &batch_out_);
      r_.batch_ns += static_cast<double>(NowNs() - b0);
      r_.batch_events += events.size();
      return;
    }
    for (const vfps::Event& e : events) {
      const int64_t m0 = NowNs();
      matcher_.Match(e, &out);
      r_.match_ns.push_back(static_cast<double>(NowNs() - m0));
    }
  }

  Workload& w_;
  const WireResult& wire_;
  ReplayResult& r_;
  vfps::Broker broker_;
  vfps::DynamicMatcher matcher_;
  vfps::Rng rng_;
  std::vector<Churned> live_;
  vfps::BatchResult batch_out_;
  vfps::SubscriptionId matcher_ids_ = 0;
  int64_t tick_ = 0;
  uint64_t span_ids_ = 0;
  const vfps::Event* last_event_ = nullptr;
  std::string payload_;
  uint64_t formatted_bytes_ = 0;
  int64_t format_ns_in_request_ = 0;
};

// Counter, gauge or histogram field from a METRICS JSON body; 0 if absent.
double JsonField(const std::string& json, const std::string& name,
                 const char* field) {
  const size_t at = json.find("\"" + name + "\":");
  if (at == std::string::npos) return 0;
  size_t pos = at + name.size() + 3;
  if (field != nullptr) {
    const size_t f = json.find(std::string("\"") + field + "\":", pos);
    if (f == std::string::npos) return 0;
    pos = f + std::strlen(field) + 3;
  }
  return std::strtod(json.c_str() + pos, nullptr);
}

// Sum over the measured windows of the change in a METRICS field.
double Delta(const WireResult& wire, const std::string& name,
             const char* field = nullptr) {
  double sum = 0;
  for (const auto& [before, after] : wire.metrics) {
    sum += JsonField(after, name, field) - JsonField(before, name, field);
  }
  return sum;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// Window mean of a server histogram: delta of its sum over delta count.
double HistogramMean(const WireResult& wire, const std::string& name) {
  return Ratio(Delta(wire, name, "sum"), Delta(wire, name, "count"));
}

}  // namespace

void RunReplay(Workload* workload, const WireResult& wire,
               ReplayResult* result) {
  Replayer(workload, wire, result).Run();
}

std::vector<Metric> LayerMetrics(const WireResult& wire,
                                      const ReplayResult& r) {
  const double events = static_cast<double>(r.events);
  const double matcher_events = static_cast<double>(r.matcher_events);
  const double requests_total = Delta(wire, "vfps_server_requests_total");
  const WireTotals totals = Totals(wire);
  const double wire_ack_p50 = Quantile(totals.ack_ms, 0.5);
  std::vector<Metric> metrics = {
      {"lang.parse_event_ns", Ratio(r.parse_event_ns, events), "ns"},
      {"lang.parse_condition_ns",
       Ratio(r.parse_condition_ns, static_cast<double>(r.conditions)), "ns"},
      {"core.schema_values", static_cast<double>(r.schema_values), "count"},
      {"core.schema_attributes", static_cast<double>(r.schema_attributes),
       "count"},
      {"index.phase1_ns", Ratio(r.phase1_s * 1e9, matcher_events), "ns"},
      {"index.predicates_per_event",
       Ratio(static_cast<double>(r.predicates), matcher_events), "count"},
      {"cluster.phase2_ns", Ratio(r.phase2_s * 1e9, matcher_events), "ns"},
      {"cluster.checks_per_event",
       Ratio(static_cast<double>(r.checks), matcher_events), "count"},
      {"cluster.clusters_per_event",
       Ratio(static_cast<double>(r.clusters), matcher_events), "count"},
      {"cluster.useful_ratio",
       Ratio(static_cast<double>(r.matches), static_cast<double>(r.checks)),
       "ratio"},
      {"matcher.match_p50_ns", Quantile(r.match_ns, 0.5), "ns"},
      {"matcher.match_p99_ns", Quantile(r.match_ns, 0.99), "ns"},
      {"matcher.batch_ns_per_event",
       Ratio(r.batch_ns, static_cast<double>(r.batch_events)), "ns"},
      {"matcher.add_p99_ns", Quantile(r.add_ns, 0.99), "ns"},
      {"matcher.remove_p99_ns", Quantile(r.remove_ns, 0.99), "ns"},
      {"matcher.memory_mb", r.memory_mb, "MB"},
      {"cost.tables_created", static_cast<double>(r.tables_created), "count"},
      {"cost.tables_deleted", static_cast<double>(r.tables_deleted), "count"},
      {"cost.subscriptions_moved", static_cast<double>(r.subscriptions_moved),
       "count"},
      {"cost.sweeps", static_cast<double>(r.sweeps), "count"},
      {"pubsub.publish_ns_per_event", Ratio(r.publish_ns, events), "ns"},
      {"pubsub.self_ns_per_event",
       Ratio(r.publish_ns - r.publish_match_ns - r.format_ns, events), "ns"},
      {"pubsub.notifications_per_event",
       Ratio(static_cast<double>(r.notifications), events), "count"},
      {"pubsub.subscribe_p99_ns", Quantile(r.subscribe_ns, 0.99), "ns"},
      {"pubsub.stored_events", static_cast<double>(r.stored_events), "count"},
      {"net.format_ns_per_event", Ratio(r.format_ns, events), "ns"},
      {"net.residual_ack_p50_ms",
       wire_ack_p50 - Quantile(r.request_ns, 0.5) / 1e6, "ms"},
      {"net.dispatch_mean_ns", HistogramMean(wire, "vfps_net_dispatch_ns"),
       "ns"},
      {"net.wait_mean_ns", HistogramMean(wire, "vfps_net_wait_ns"), "ns"},
      {"net.iovecs_per_flush", HistogramMean(wire, "vfps_net_writev_iovecs"),
       "count"},
      {"net.bytes_per_flush", HistogramMean(wire, "vfps_net_flush_bytes"),
       "B"},
      {"net.refs_per_payload",
       Ratio(Delta(wire, "vfps_net_payload_refs_total"),
             Delta(wire, "vfps_net_payloads_formatted_total")),
       "ratio"},
      {"net.jobs_per_request",
       Ratio(Delta(wire, "vfps_net_jobs_total"), requests_total), "ratio"},
      {"net.backpressure_stalls",
       Delta(wire, "vfps_net_backpressure_stalls_total"), "count"},
      {"net.request_errors", Delta(wire, "vfps_server_request_errors_total"),
       "count"},
      {"net.payload_text_mismatches",
       static_cast<double>(wire.text_mismatched), "count"},
      {"server.rss_growth_mb", Quantile(wire.rss_growth_mb, 0.5), "MB"},
      {"gen.late_p99_ms", Quantile(wire.late_ms, 0.99), "ms"},
      {"gen.cpu_util", wire.cpu_util, "ratio"},
      {"gen.ack_samples", static_cast<double>(totals.ack_ms.size()), "count"},
      {"gen.delivery_samples", static_cast<double>(totals.delivery_samples),
       "count"},
      {"gen.failed_frac",
       Ratio(static_cast<double>(wire.failed),
             static_cast<double>(wire.attempted)),
       "ratio"},
  };
  for (const Metric& m : WireMetrics(wire)) {
    if (m.name != "setup_s") metrics.push_back({"wire." + m.name, m.value, m.unit});
  }
  return metrics;
}

}  // namespace servbench
