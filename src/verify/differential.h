// Copyright 2026 The vfps Authors.
// Differential verification harness: runs randomized workloads through the
// optimized matchers and compares every result against the NaiveMatcher
// oracle (the transliteration of the subscription semantics, §1.1). This is
// how the paper-style engines earn trust in their hand-unrolled kernels —
// any divergence is a bug in the fast path by definition. The harness backs
// both tests/differential_test.cc and the tools/vfps_verify driver, and can
// delta-debug a divergence down to a minimal reproducer.

#ifndef VFPS_VERIFY_DIFFERENTIAL_H_
#define VFPS_VERIFY_DIFFERENTIAL_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/core/event.h"
#include "src/core/subscription.h"
#include "src/matcher/matcher.h"
#include "src/util/rng.h"

namespace vfps {

/// One matcher variant under verification.
struct DiffVariant {
  std::string name;
  std::function<std::unique_ptr<Matcher>()> factory;
};

/// The full verification matrix: counting, propagation (with and without
/// prefetch), static, dynamic, tree, and dynamic sampling every event
/// ("dynamic-eager", whose cold-start census runs within 512 matched
/// events).
std::vector<DiffVariant> DefaultDiffVariants();

/// Workload shape for one differential run. All randomness derives from
/// `seed` via vfps::Rng, so a run is reproducible bit-for-bit.
struct DiffConfig {
  uint64_t seed = 1;
  /// Attribute universe size.
  uint32_t attrs = 8;
  /// Values are drawn uniformly from [1, domain]; small domains force
  /// predicate collisions and access-predicate sharing.
  Value domain = 20;
  /// Subscriptions installed (or, with churn, mutation steps performed).
  int subscriptions = 500;
  /// Events matched after the subscription phase.
  int events = 100;
  /// Probability that each attribute appears in a generated event.
  double p_present = 0.7;
  /// Load `subscriptions / 2` subscriptions blind (before any event), then
  /// interleave random unsubscribes with the subscribes, matching after
  /// every few mutations (exercises deletion paths and id relocation).
  bool churn = false;
};

/// A detected disagreement between a variant and the oracle.
struct DiffDivergence {
  std::string variant;
  /// Event index (or churn step) at which the disagreement appeared.
  int step = 0;
  Event event;
  std::vector<SubscriptionId> expected;  // oracle's answer, sorted
  std::vector<SubscriptionId> got;       // variant's answer, sorted
  /// The subscriptions live at the moment of divergence — the minimizer's
  /// starting point.
  std::vector<Subscription> live;
};

/// Outcome of a differential run.
struct DiffReport {
  /// Events fully compared before stopping (== config.events if clean).
  int events_run = 0;
  std::optional<DiffDivergence> divergence;
};

/// Fully random subscription: 1..5 predicates over `attrs` attributes with
/// all six operators and values in [1, domain], half of them after an
/// equality prefix a0 ∈ [1, 2], a1 ∈ [1, 3]. Deliberately explores
/// degenerate shapes: duplicate attributes, contradictions, no equalities.
Subscription RandomDiffSubscription(Rng* rng, SubscriptionId id,
                                    uint32_t attrs, Value domain);

/// Random event; each attribute present with probability `p_present`
/// (p_present 0 yields empty events, which are legal), with a value in
/// [1, domain], or in [1, 3] for a0 and a1.
Event RandomDiffEvent(Rng* rng, uint32_t attrs, Value domain,
                      double p_present);

/// Runs `config` through every variant against the oracle, stopping at the
/// first divergence.
DiffReport RunDifferential(const DiffConfig& config,
                           const std::vector<DiffVariant>& variants);

/// Batched-path verification: loads `config.subscriptions` subscriptions,
/// then feeds `config.events` events through every variant's MatchBatch in
/// batches of `batch_size` and compares each lane's row against the
/// per-event oracle. Duplicate events are injected (every few events
/// repeat an earlier one) so result rows for identical inputs within one
/// batch are also checked. Proves MatchBatch ≡ Match for the batch
/// kernels; `step` in a divergence is the global event index.
DiffReport RunBatchDifferential(const DiffConfig& config,
                                const std::vector<DiffVariant>& variants,
                                size_t batch_size);

/// Runs mixed subscribe/unsubscribe/match traffic against one variant from
/// `writer_threads + reader_threads` threads (matcher access serialized by
/// a mutex, as the Broker contract requires). Primarily a TSan target;
/// result divergences are reported the same way. `mutations` is the total
/// mutation count. With `reader_batch` > 0 the readers call MatchBatch on
/// batches of that many events instead of per-event Match.
std::optional<DiffDivergence> RunConcurrentDifferential(
    const DiffConfig& config, const DiffVariant& variant, int writer_threads,
    int reader_threads, int mutations, size_t reader_batch = 0);

/// Delta-debugs `divergence` down to a minimal subscription subset that
/// still makes `variant` disagree with the oracle on the divergent event,
/// and renders a human-readable reproducer (subscriptions, event, seed).
/// If the divergence does not reproduce from a freshly built matcher (a
/// state-history bug), says so and reports the seed/step to replay.
std::string MinimizeDivergence(const DiffConfig& config,
                               const DiffDivergence& divergence,
                               const DiffVariant& variant);

}  // namespace vfps

#endif  // VFPS_VERIFY_DIFFERENTIAL_H_
