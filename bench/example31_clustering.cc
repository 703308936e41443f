// Copyright 2026 The vfps Authors.
// Experiment E9 — Example 3.1 of the paper, reproduced both analytically
// and empirically. Three attributes A, B, C with 100 uniform values; one
// population of subscriptions per nonempty subset of {A,B,C}. The paper
// compares clustering instance C1 (singleton access predicates only:
// 2 hash lookups but 46,600 checks for an AB event, at 7M subscriptions)
// with C2 (adds AB and BC tables: 3 lookups, 26,500 checks). Here the
// greedy optimizer must discover a C2-like configuration and the measured
// checks-per-event must drop accordingly.

#include <cstdio>
#include <vector>

#include "bench/common/harness.h"
#include "src/matcher/dynamic_matcher.h"
#include "src/matcher/static_matcher.h"
#include "src/util/rng.h"

namespace vfps::bench {
namespace {

constexpr AttributeId A = 0, B = 1, C = 2;

std::vector<Subscription> MakePopulation(uint64_t per_signature,
                                         uint64_t seed) {
  Rng rng(seed);
  std::vector<Subscription> subs;
  SubscriptionId next = 1;
  const std::vector<std::vector<AttributeId>> signatures{
      {A}, {B}, {C}, {A, B}, {A, C}, {B, C}, {A, B, C}};
  for (const auto& sig : signatures) {
    for (uint64_t i = 0; i < per_signature; ++i) {
      std::vector<Predicate> preds;
      for (AttributeId a : sig) {
        preds.emplace_back(a, RelOp::kEq, rng.Range(1, 100));
      }
      subs.push_back(Subscription::Create(next++, std::move(preds)));
    }
  }
  return subs;
}

int Run() {
  const uint64_t per_signature = Pick(2000, 100000, 1000000);
  const uint64_t total = per_signature * 7;
  const uint64_t num_events = Pick(100, 400, 400);

  WorkloadSpec banner;  // synthetic; banner only
  banner.num_attributes = 3;
  banner.num_subscriptions = total;
  banner.predicates_per_subscription = 2;
  banner.value_lo = 1;
  banner.value_hi = 100;
  PrintBanner("example31_clustering",
              "Example 3.1: singleton clustering C1 vs multi-attribute "
              "clustering C2 on the {A,B,C} populations",
              banner);

  // The paper's analytic numbers, scaled from 7M to our population.
  const double scale = static_cast<double>(total) / 7e6;
  std::printf(
      "# paper (7M subs): C1 = 2 lookups + 46600 checks per AB event; "
      "C2 = 3 lookups + 26500 checks\n"
      "# scaled to %llu subs: C1 ~= %.0f checks, C2 ~= %.0f checks\n",
      static_cast<unsigned long long>(total), 46600 * scale, 26500 * scale);

  std::vector<Subscription> subs = MakePopulation(per_signature, 31);
  // Events mention A and B but not C (the paper's probe event).
  Rng rng(99);
  std::vector<Event> events;
  for (uint64_t i = 0; i < num_events; ++i) {
    events.push_back(Event::CreateUnchecked(
        {{A, rng.Range(1, 100)}, {B, rng.Range(1, 100)}}));
  }

  auto seed_stats = [](EventStatistics* stats) {
    stats->SeedPseudoEvents(10000);
    for (AttributeId a : {A, B, C}) {
      // Each attribute appears in 2/3 of probe-style events.
      stats->SeedAttributeUniform(a, 1, 100, 2.0 / 3.0, 10000);
    }
  };

  std::printf("\n%-24s %12s %12s %16s\n", "clustering", "ms/event",
              "checks/ev", "multi-tables");

  // C1: singleton-only clustering (dynamic with maintenance disabled).
  {
    DynamicOptions off;
    off.bm_max = 1e18;
    off.table_bm_max = 1e18;
    off.sweep_period = 0;
    DynamicMatcher m(off, /*use_prefetch=*/true, /*observe_sample_rate=*/0);
    seed_stats(m.mutable_statistics());
    for (const Subscription& s : subs) {
      VFPS_CHECK(m.AddSubscription(s).ok());
    }
    Throughput t = MeasureThroughput(&m, events);
    std::printf("%-24s %12.3f %12.1f %16d\n", "C1 (singletons)",
                t.ms_per_event, t.checks_per_event, 0);
  }

  // C2-like: greedy-configured static clustering.
  {
    StaticMatcher m;
    seed_stats(m.mutable_statistics());
    VFPS_CHECK(m.Build(subs).ok());
    Throughput t = MeasureThroughput(&m, events);
    int multi = 0;
    std::string schemas;
    for (const AttributeSet& s : m.TableSchemas()) {
      if (s.size() >= 2) {
        ++multi;
        schemas.append(" ").append(s.ToString());
      }
    }
    std::printf("%-24s %12.3f %12.1f %16d\n", "C2 (greedy static)",
                t.ms_per_event, t.checks_per_event, multi);
    std::printf("\n# greedy added multi-attribute schemas:%s\n",
                schemas.c_str());
    std::printf("# estimated per-event cost (model units): %.1f\n",
                m.estimated_cost());
  }
  return 0;
}

}  // namespace
}  // namespace vfps::bench

int main() { return vfps::bench::Run(); }
