// Copyright 2026 The vfps Authors.
// Tests for the differential verification harness (src/verify): the full
// variant matrix must agree with the naive oracle on randomized workloads
// (with and without churn, including degenerate event shapes), the
// threaded harness must be clean for the dynamic variant (run under TSan
// via the `concurrency` label), and the minimizer must shrink an
// injected fault to a one-subscription reproducer.

#include "src/verify/differential.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/matcher/dynamic_matcher.h"
#include "src/pubsub/broker.h"
#include "src/util/rng.h"

namespace vfps {
namespace {

// The default variant called `name`; the test fails (rather than checking
// nothing) if the matrix no longer has it.
std::optional<DiffVariant> DefaultVariantNamed(const std::string& name) {
  for (DiffVariant& v : DefaultDiffVariants()) {
    if (v.name == name) return std::move(v);
  }
  ADD_FAILURE() << "no default variant named '" << name << "'";
  return std::nullopt;
}

TEST(DifferentialHarnessTest, CleanOnRandomShapes) {
  const DiffConfig configs[] = {
      // tiny domain: heavy collisions and access-predicate sharing
      {.seed = 101, .attrs = 4, .domain = 5, .subscriptions = 300,
       .events = 60, .p_present = 0.9, .churn = false},
      // moderate
      {.seed = 102, .attrs = 8, .domain = 30, .subscriptions = 400,
       .events = 50, .p_present = 0.7, .churn = false},
      // wide schema, sparse events
      {.seed = 103, .attrs = 20, .domain = 100, .subscriptions = 300,
       .events = 40, .p_present = 0.3, .churn = false},
  };
  const std::vector<DiffVariant> variants = DefaultDiffVariants();
  for (const DiffConfig& config : configs) {
    DiffReport report = RunDifferential(config, variants);
    ASSERT_FALSE(report.divergence.has_value())
        << MinimizeDivergence(config, *report.divergence,
                              variants.front());
    EXPECT_EQ(report.events_run, config.events);
  }
}

TEST(DifferentialHarnessTest, CleanUnderInsertDeleteChurn) {
  const std::vector<DiffVariant> variants = DefaultDiffVariants();
  for (uint64_t seed = 201; seed <= 203; ++seed) {
    DiffConfig config{.seed = seed, .attrs = 6, .domain = 10,
                      .subscriptions = 400, .events = 40,
                      .p_present = 0.8, .churn = true};
    DiffReport report = RunDifferential(config, variants);
    ASSERT_FALSE(report.divergence.has_value()) << "seed " << seed;
  }
}

// Degenerate event shapes: p_present = 0 produces only empty events (which
// must match nothing but size-0-after-normalization cases) and p_present
// near 0 produces single-attribute events.
TEST(DifferentialHarnessTest, CleanOnEmptyAndNearEmptyEvents) {
  const std::vector<DiffVariant> variants = DefaultDiffVariants();
  DiffConfig empty{.seed = 301, .attrs = 6, .domain = 8,
                   .subscriptions = 250, .events = 30, .p_present = 0.0,
                   .churn = false};
  DiffReport report = RunDifferential(empty, variants);
  ASSERT_FALSE(report.divergence.has_value());

  DiffConfig sparse{.seed = 302, .attrs = 10, .domain = 8,
                    .subscriptions = 250, .events = 50, .p_present = 0.12,
                    .churn = false};
  report = RunDifferential(sparse, variants);
  ASSERT_FALSE(report.divergence.has_value());
}

// dynamic-eager samples every event, so its cold-start census (placements
// made before any event, re-taken once DynamicMatcher::kColdCensusSamples
// events were sampled) runs inside a run of this length, and the oracle
// checks every event before, during and after the moves it makes.
TEST(DifferentialHarnessTest, EagerDynamicCrossesItsColdStartCensus) {
  std::optional<DiffVariant> v = DefaultVariantNamed("dynamic-eager");
  ASSERT_TRUE(v.has_value());
  const DiffConfig config{.seed = 701, .attrs = 6, .domain = 4,
                          .subscriptions = 600, .events = 1000,
                          .p_present = 0.8, .churn = false};
  {
    std::unique_ptr<Matcher> matcher = v->factory();
    Rng rng(config.seed);
    for (int i = 0; i < config.subscriptions; ++i) {
      ASSERT_TRUE(matcher
                      ->AddSubscription(RandomDiffSubscription(
                          &rng, static_cast<SubscriptionId>(i + 1),
                          config.attrs, config.domain))
                      .ok());
    }
    std::vector<SubscriptionId> out;
    for (int e = 0; e < config.events; ++e) {
      matcher->Match(RandomDiffEvent(&rng, config.attrs, config.domain,
                                     config.p_present),
                     &out);
    }
    const auto& stats =
        dynamic_cast<const DynamicMatcher&>(*matcher).maintenance_stats();
    EXPECT_GE(stats.sweeps, 1u);
    EXPECT_GE(stats.tables_created, 1u);
    EXPECT_GT(stats.subscriptions_moved, 0u);
  }
  DiffReport report = RunDifferential(config, {*v});
  ASSERT_FALSE(report.divergence.has_value())
      << MinimizeDivergence(config, *report.divergence, *v);
  EXPECT_EQ(report.events_run, config.events);
  report = RunBatchDifferential(config, {*v}, /*batch_size=*/64);
  ASSERT_FALSE(report.divergence.has_value())
      << MinimizeDivergence(config, *report.divergence, *v);
  EXPECT_EQ(report.events_run, config.events);
}

// Subscribe/unsubscribe/match traffic from several threads over the
// dynamic matcher, serialized by the harness lock as the broker contract
// requires. With TSan this validates the locking; in any build it
// validates results under interleaved mutation.
TEST(DifferentialConcurrencyTest, DynamicVariantCleanUnderThreadedChurn) {
  DiffConfig config{.seed = 401, .attrs = 6, .domain = 12,
                    .subscriptions = 0, .events = 0, .p_present = 0.7,
                    .churn = true};
  std::optional<DiffVariant> v = DefaultVariantNamed("dynamic");
  ASSERT_TRUE(v.has_value());
  auto divergence = RunConcurrentDifferential(
      config, *v, /*writer_threads=*/2, /*reader_threads=*/2,
      /*mutations=*/800);
  ASSERT_FALSE(divergence.has_value())
      << MinimizeDivergence(config, *divergence, *v);
}

// The batched pipeline must agree with the per-event oracle for every
// variant at batch sizes spanning one-word and multi-word lane masks
// (including batches larger than the event count, partial tail batches,
// and the duplicate events RunBatchDifferential injects).
TEST(DifferentialHarnessTest, BatchMatchesOracleAcrossBatchSizes) {
  const std::vector<DiffVariant> variants = DefaultDiffVariants();
  const DiffConfig configs[] = {
      {.seed = 601, .attrs = 4, .domain = 5, .subscriptions = 300,
       .events = 70, .p_present = 0.9, .churn = false},
      {.seed = 602, .attrs = 10, .domain = 40, .subscriptions = 350,
       .events = 70, .p_present = 0.5, .churn = false},
  };
  for (const DiffConfig& config : configs) {
    for (size_t batch : {size_t{1}, size_t{7}, size_t{64}, size_t{300}}) {
      DiffReport report = RunBatchDifferential(config, variants, batch);
      ASSERT_FALSE(report.divergence.has_value())
          << "batch=" << batch << " seed=" << config.seed << "\n"
          << MinimizeDivergence(config, *report.divergence,
                                variants.front());
      EXPECT_EQ(report.events_run, config.events);
    }
  }
}

// Batched readers: MatchBatch calls interleaved with writers from other
// threads under the harness lock (a TSan target via this binary's
// `concurrency` label).
TEST(DifferentialConcurrencyTest, DynamicVariantCleanUnderBatchedReaders) {
  DiffConfig config{.seed = 403, .attrs = 6, .domain = 12,
                    .subscriptions = 0, .events = 0, .p_present = 0.7,
                    .churn = true};
  std::optional<DiffVariant> v = DefaultVariantNamed("dynamic");
  ASSERT_TRUE(v.has_value());
  auto divergence = RunConcurrentDifferential(
      config, *v, /*writer_threads=*/2, /*reader_threads=*/2,
      /*mutations=*/800, /*reader_batch=*/8);
  ASSERT_FALSE(divergence.has_value())
      << MinimizeDivergence(config, *divergence, *v);
}

// A deliberately broken matcher: forwards to a real dynamic matcher but
// censors subscription id 1 from every result. The harness must catch it
// and the minimizer must shrink the live set to that single subscription.
class CensoringMatcher : public Matcher {
 public:
  CensoringMatcher() : inner_(MakeMatcher(Algorithm::kDynamic)) {}
  const char* name() const override { return "censoring"; }
  Status AddSubscription(const Subscription& s) override {
    return inner_->AddSubscription(s);
  }
  Status RemoveSubscription(SubscriptionId id) override {
    return inner_->RemoveSubscription(id);
  }
  void Match(const Event& event, std::vector<SubscriptionId>* out) override {
    inner_->Match(event, out);
    out->erase(std::remove(out->begin(), out->end(), SubscriptionId{1}),
               out->end());
  }
  size_t subscription_count() const override {
    return inner_->subscription_count();
  }
  size_t MemoryUsage() const override { return inner_->MemoryUsage(); }

 private:
  std::unique_ptr<Matcher> inner_;
};

TEST(DifferentialMinimizerTest, CatchesAndShrinksInjectedFault) {
  DiffVariant broken{"censoring",
                     [] { return std::make_unique<CensoringMatcher>(); }};
  // Dense events over a tiny domain: subscription 1 matches quickly.
  DiffConfig config{.seed = 501, .attrs = 3, .domain = 3,
                    .subscriptions = 80, .events = 200, .p_present = 1.0,
                    .churn = false};
  DiffReport report = RunDifferential(config, {broken});
  ASSERT_TRUE(report.divergence.has_value())
      << "the injected fault was never exercised";
  EXPECT_EQ(report.divergence->variant, "censoring");
  EXPECT_FALSE(report.divergence->live.empty());

  const std::string repro = MinimizeDivergence(config, *report.divergence,
                                               broken);
  // The minimal fresh-build reproducer is subscription 1 alone.
  EXPECT_NE(repro.find("minimal reproducer: 1 subscription(s)"),
            std::string::npos)
      << repro;
  EXPECT_NE(repro.find("expected {1}, got {}"), std::string::npos) << repro;
}

// The batch harness must catch the same fault: CensoringMatcher inherits
// the default MatchBatch (loop over Match), so a censored row shows up as
// a lane divergence. Guards against a comparison-skipping bug in the
// batched harness itself.
TEST(DifferentialMinimizerTest, BatchHarnessCatchesInjectedFault) {
  DiffVariant broken{"censoring",
                     [] { return std::make_unique<CensoringMatcher>(); }};
  DiffConfig config{.seed = 501, .attrs = 3, .domain = 3,
                    .subscriptions = 80, .events = 200, .p_present = 1.0,
                    .churn = false};
  DiffReport report = RunBatchDifferential(config, {broken}, 16);
  ASSERT_TRUE(report.divergence.has_value())
      << "the injected fault slipped past the batch harness";
  EXPECT_EQ(report.divergence->variant, "censoring");
  const std::string repro = MinimizeDivergence(config, *report.divergence,
                                               broken);
  EXPECT_NE(repro.find("minimal reproducer: 1 subscription(s)"),
            std::string::npos)
      << repro;
}

// A fault that only exists in mutated state (a deletion that leaves the
// matcher censoring a *different* id than it reports) must be flagged as
// not reproducible from a fresh build, pointing at seed replay instead.
class StatefulFaultMatcher : public Matcher {
 public:
  StatefulFaultMatcher() : inner_(MakeMatcher(Algorithm::kDynamic)) {}
  const char* name() const override { return "stateful-fault"; }
  Status AddSubscription(const Subscription& s) override {
    return inner_->AddSubscription(s);
  }
  Status RemoveSubscription(SubscriptionId id) override {
    removed_any_ = true;
    return inner_->RemoveSubscription(id);
  }
  void Match(const Event& event, std::vector<SubscriptionId>* out) override {
    inner_->Match(event, out);
    // Only misbehaves after a removal happened — a fresh build (which
    // only adds) cannot reproduce this.
    if (removed_any_ && !out->empty()) out->pop_back();
  }
  size_t subscription_count() const override {
    return inner_->subscription_count();
  }
  size_t MemoryUsage() const override { return inner_->MemoryUsage(); }

 private:
  std::unique_ptr<Matcher> inner_;
  bool removed_any_ = false;
};

TEST(DifferentialMinimizerTest, ReportsStateHistoryBugsAsNonReproducible) {
  DiffVariant broken{"stateful-fault",
                     [] { return std::make_unique<StatefulFaultMatcher>(); }};
  DiffConfig config{.seed = 502, .attrs = 3, .domain = 3,
                    .subscriptions = 200, .events = 100, .p_present = 1.0,
                    .churn = true};
  DiffReport report = RunDifferential(config, {broken});
  ASSERT_TRUE(report.divergence.has_value());
  const std::string repro = MinimizeDivergence(config, *report.divergence,
                                               broken);
  EXPECT_NE(repro.find("NOT REPRODUCIBLE"), std::string::npos) << repro;
}

}  // namespace
}  // namespace vfps
