// Copyright 2026 The vfps Authors.

#include "src/verify/differential.h"

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <thread>
#include <unordered_map>

#include "src/matcher/dynamic_matcher.h"
#include "src/matcher/naive_matcher.h"
#include "src/pubsub/broker.h"
#include "src/util/macros.h"
#include "src/util/sync.h"

namespace vfps {

namespace {

std::vector<SubscriptionId> Sorted(std::vector<SubscriptionId> v) {
  std::sort(v.begin(), v.end());
  return v;
}

std::vector<Subscription> LiveSnapshot(
    const std::unordered_map<SubscriptionId, Subscription>& live) {
  std::vector<Subscription> subs;
  subs.reserve(live.size());
  for (const auto& [id, s] : live) subs.push_back(s);
  std::sort(subs.begin(), subs.end(),
            [](const Subscription& a, const Subscription& b) {
              return a.id() < b.id();
            });
  return subs;
}

/// Builds a fresh oracle + variant over `subs`, matches `event`, and
/// reports whether they disagree (filling the sorted answers if so).
bool SubsetDiverges(const std::vector<Subscription>& subs, const Event& event,
                    const DiffVariant& variant,
                    std::vector<SubscriptionId>* expected,
                    std::vector<SubscriptionId>* got) {
  NaiveMatcher oracle;
  std::unique_ptr<Matcher> m = variant.factory();
  for (const Subscription& s : subs) {
    VFPS_CHECK(oracle.AddSubscription(s).ok());
    VFPS_CHECK(m->AddSubscription(s).ok());
  }
  std::vector<SubscriptionId> want, have;
  oracle.Match(event, &want);
  m->Match(event, &have);
  want = Sorted(std::move(want));
  have = Sorted(std::move(have));
  if (want == have) return false;
  if (expected != nullptr) *expected = std::move(want);
  if (got != nullptr) *got = std::move(have);
  return true;
}

void AppendIds(const std::vector<SubscriptionId>& ids, std::string* out) {
  out->push_back('{');
  for (size_t i = 0; i < ids.size(); ++i) {
    if (i > 0) out->push_back(' ');
    out->append(std::to_string(ids[i]));
  }
  out->push_back('}');
}

}  // namespace

std::vector<DiffVariant> DefaultDiffVariants() {
  std::vector<DiffVariant> variants;
  const std::pair<const char*, Algorithm> algorithms[] = {
      {"counting", Algorithm::kCounting},
      {"propagation", Algorithm::kPropagation},
      {"propagation-wp", Algorithm::kPropagationPrefetch},
      {"static", Algorithm::kStatic},
      {"dynamic", Algorithm::kDynamic},
      {"tree", Algorithm::kTree},
  };
  for (const auto& [name, algorithm] : algorithms) {
    Algorithm a = algorithm;
    variants.push_back({name, [a] { return MakeMatcher(a); }});
  }
  // Dynamic sampling every event instead of every 16th, so its cold-start
  // census (DynamicMatcher::kColdCensusSamples) runs after 512 matched
  // events, inside the verifier's runs; and creating and keeping tables on
  // the faintest saving, so that census moves subscriptions even among the
  // verifier's few hundred.
  variants.push_back({"dynamic-eager", [] {
                        DynamicOptions options;
                        options.create_cost_factor = 0.002;
                        options.b_delete = 2;
                        return std::make_unique<DynamicMatcher>(
                            options, /*use_prefetch=*/true,
                            /*observe_sample_rate=*/1);
                      }});
  return variants;
}

Subscription RandomDiffSubscription(Rng* rng, SubscriptionId id,
                                    uint32_t attrs, Value domain) {
  std::vector<Predicate> preds;
  // Half the subscriptions open with equalities on a0 and a1 over a tiny
  // value space, so dynamic placement grows crowded clusters on them and a
  // census moves many rows out of one cluster at once (the path MoveAll's
  // row bookkeeping must survive).
  if (attrs >= 2 && rng->Chance(0.5)) {
    preds.emplace_back(0, RelOp::kEq, rng->Range(1, 2));
    preds.emplace_back(1, RelOp::kEq, rng->Range(1, 3));
  }
  const size_t n = 1 + rng->Below(5);
  for (size_t i = 0; i < n; ++i) {
    preds.emplace_back(static_cast<AttributeId>(rng->Below(attrs)),
                       static_cast<RelOp>(rng->Below(6)),
                       rng->Range(1, domain));
  }
  return Subscription::Create(id, std::move(preds));
}

Event RandomDiffEvent(Rng* rng, uint32_t attrs, Value domain,
                      double p_present) {
  std::vector<EventPair> pairs;
  for (AttributeId a = 0; a < attrs; ++a) {
    if (rng->Chance(p_present)) {
      // a0 and a1 carry the values of the subscriptions' equality mix.
      pairs.push_back({a, rng->Range(1, a < 2 ? 3 : domain)});
    }
  }
  return Event::CreateUnchecked(std::move(pairs));
}

DiffReport RunDifferential(const DiffConfig& config,
                           const std::vector<DiffVariant>& variants) {
  Rng rng(config.seed);
  NaiveMatcher oracle;
  std::vector<std::unique_ptr<Matcher>> matchers;
  matchers.reserve(variants.size());
  for (const DiffVariant& v : variants) matchers.push_back(v.factory());

  std::unordered_map<SubscriptionId, Subscription> live;
  SubscriptionId next_id = 1;
  DiffReport report;
  std::vector<SubscriptionId> expect, got;

  // Matches one event through the matrix; fills report.divergence and
  // returns false on the first disagreement.
  auto check_event = [&](const Event& event, int step) {
    oracle.Match(event, &expect);
    std::vector<SubscriptionId> want = Sorted(expect);
    for (size_t i = 0; i < matchers.size(); ++i) {
      matchers[i]->Match(event, &got);
      std::vector<SubscriptionId> have = Sorted(got);
      if (have != want) {
        DiffDivergence d;
        d.variant = variants[i].name;
        d.step = step;
        d.event = event;
        d.expected = std::move(want);
        d.got = std::move(have);
        d.live = LiveSnapshot(live);
        report.divergence = std::move(d);
        return false;
      }
    }
    ++report.events_run;
    return true;
  };

  auto add_one = [&] {
    Subscription s =
        RandomDiffSubscription(&rng, next_id++, config.attrs, config.domain);
    VFPS_CHECK(oracle.AddSubscription(s).ok());
    for (auto& m : matchers) VFPS_CHECK(m->AddSubscription(s).ok());
    live.emplace(s.id(), std::move(s));
  };

  if (!config.churn) {
    for (int i = 0; i < config.subscriptions; ++i) add_one();
  } else {
    // A blind load first: placements made before any event, which the
    // dynamic matcher's cold-start census re-takes once enough events were
    // sampled. Then random insert/delete interleaving with interspersed
    // agreement checks, exercising deletion and row-relocation paths.
    for (int i = 0; i < config.subscriptions / 2; ++i) add_one();
    for (int step = 0; step < config.subscriptions; ++step) {
      if (live.empty() || rng.NextDouble() < 0.55) {
        add_one();
      } else {
        auto victim = live.begin();
        std::advance(victim, rng.Below(live.size()));
        VFPS_CHECK(oracle.RemoveSubscription(victim->first).ok());
        for (auto& m : matchers) {
          VFPS_CHECK(m->RemoveSubscription(victim->first).ok());
        }
        live.erase(victim);
      }
      if (step % 4 == 0) {
        Event event = RandomDiffEvent(&rng, config.attrs, config.domain,
                                      config.p_present);
        if (!check_event(event, step)) return report;
      }
    }
  }

  for (int e = 0; e < config.events; ++e) {
    Event event =
        RandomDiffEvent(&rng, config.attrs, config.domain, config.p_present);
    if (!check_event(event, e)) return report;
  }
  return report;
}

DiffReport RunBatchDifferential(const DiffConfig& config,
                                const std::vector<DiffVariant>& variants,
                                size_t batch_size) {
  VFPS_CHECK(batch_size >= 1);
  Rng rng(config.seed);
  NaiveMatcher oracle;
  std::vector<std::unique_ptr<Matcher>> matchers;
  matchers.reserve(variants.size());
  for (const DiffVariant& v : variants) matchers.push_back(v.factory());

  std::unordered_map<SubscriptionId, Subscription> live;
  for (int i = 0; i < config.subscriptions; ++i) {
    Subscription s = RandomDiffSubscription(
        &rng, static_cast<SubscriptionId>(i + 1), config.attrs,
        config.domain);
    VFPS_CHECK(oracle.AddSubscription(s).ok());
    for (auto& m : matchers) VFPS_CHECK(m->AddSubscription(s).ok());
    live.emplace(s.id(), std::move(s));
  }

  DiffReport report;
  std::vector<Event> batch;
  std::vector<SubscriptionId> expect;
  BatchResult results;
  int produced = 0;
  while (produced < config.events) {
    batch.clear();
    const size_t want =
        std::min(batch_size, static_cast<size_t>(config.events - produced));
    for (size_t i = 0; i < want; ++i, ++produced) {
      // Every fourth event repeats an earlier lane of the same batch so
      // duplicate inputs share a batch (their stripes must still produce
      // per-lane-correct rows).
      if (!batch.empty() && produced % 4 == 3) {
        batch.push_back(batch[rng.Below(batch.size())]);
      } else {
        batch.push_back(RandomDiffEvent(&rng, config.attrs, config.domain,
                                        config.p_present));
      }
    }
    const int batch_start = produced - static_cast<int>(batch.size());
    for (size_t i = 0; i < matchers.size(); ++i) {
      matchers[i]->MatchBatch(batch, &results);
      VFPS_CHECK(results.batch_size() == batch.size());
      for (size_t lane = 0; lane < batch.size(); ++lane) {
        oracle.Match(batch[lane], &expect);
        std::vector<SubscriptionId> want_ids = Sorted(expect);
        std::vector<SubscriptionId> have = Sorted(results.matches(lane));
        if (have != want_ids) {
          DiffDivergence d;
          d.variant = variants[i].name;
          d.step = batch_start + static_cast<int>(lane);
          d.event = batch[lane];
          d.expected = std::move(want_ids);
          d.got = std::move(have);
          d.live = LiveSnapshot(live);
          report.divergence = std::move(d);
          return report;
        }
      }
    }
    report.events_run += static_cast<int>(batch.size());
  }
  return report;
}

std::optional<DiffDivergence> RunConcurrentDifferential(
    const DiffConfig& config, const DiffVariant& variant, int writer_threads,
    int reader_threads, int mutations, size_t reader_batch) {
  VFPS_CHECK(writer_threads >= 1 && reader_threads >= 1);
  // Serializes oracle + matcher + live-set mutation against matching.
  // Outermost rank: a matcher's writer lock nests beneath it.
  Mutex mu(LockRank::kVerifyHarness, "diff_harness");
  NaiveMatcher oracle;
  std::unique_ptr<Matcher> matcher = variant.factory();
  std::unordered_map<SubscriptionId, Subscription> live;
  std::atomic<uint64_t> next_id{1};
  std::atomic<int> remaining{mutations};
  std::atomic<bool> stop{false};
  std::optional<DiffDivergence> divergence;

  auto writer = [&](uint64_t tid) {
    Rng rng(config.seed ^ (0x9e3779b9u * (tid + 1)));
    // sync-relaxed-ok: stop/remaining are independent control counters;
    // all shared matcher/oracle state is protected by mu.
    while (!stop.load(std::memory_order_relaxed) &&
           // sync-relaxed-ok: see above — independent control counter.
           remaining.fetch_sub(1, std::memory_order_relaxed) > 0) {
      MutexLock lock(mu);
      if (live.empty() || rng.NextDouble() < 0.55) {
        Subscription s = RandomDiffSubscription(
            // sync-relaxed-ok: unique-id ticket; no dependent data.
            &rng, next_id.fetch_add(1, std::memory_order_relaxed),
            config.attrs, config.domain);
        VFPS_CHECK(oracle.AddSubscription(s).ok());
        VFPS_CHECK(matcher->AddSubscription(s).ok());
        live.emplace(s.id(), std::move(s));
      } else {
        auto victim = live.begin();
        std::advance(victim, rng.Below(live.size()));
        VFPS_CHECK(oracle.RemoveSubscription(victim->first).ok());
        VFPS_CHECK(matcher->RemoveSubscription(victim->first).ok());
        live.erase(victim);
      }
    }
  };

  auto record_divergence = [&](const Event& event, int step,
                               std::vector<SubscriptionId> want,
                               std::vector<SubscriptionId> have) {
    DiffDivergence d;
    d.variant = variant.name;
    d.step = step;
    d.event = event;
    d.expected = std::move(want);
    d.got = std::move(have);
    d.live = LiveSnapshot(live);
    divergence = std::move(d);
    // sync-relaxed-ok: divergence itself is published under mu; stop is
    // only a hint that makes the loops wind down.
    stop.store(true, std::memory_order_relaxed);
  };

  auto reader = [&](uint64_t tid) {
    Rng rng(config.seed ^ (0x85ebca6bu * (tid + 1)));
    std::vector<SubscriptionId> expect, got;
    std::vector<Event> batch;
    BatchResult batch_results;
    int step = 0;
    // sync-relaxed-ok: control flag; guarded state is read under mu.
    while (!stop.load(std::memory_order_relaxed)) {
      if (reader_batch == 0) {
        Event event = RandomDiffEvent(&rng, config.attrs, config.domain,
                                      config.p_present);
        {
          MutexLock lock(mu);
          // sync-relaxed-ok: control flag re-check under mu.
          if (stop.load(std::memory_order_relaxed)) break;
          oracle.Match(event, &expect);
          matcher->Match(event, &got);
          std::vector<SubscriptionId> want = Sorted(expect);
          std::vector<SubscriptionId> have = Sorted(got);
          if (want != have) {
            record_divergence(event, step, std::move(want), std::move(have));
            break;
          }
        }
        ++step;
      } else {
        batch.clear();
        for (size_t i = 0; i < reader_batch; ++i) {
          batch.push_back(RandomDiffEvent(&rng, config.attrs, config.domain,
                                          config.p_present));
        }
        {
          MutexLock lock(mu);
          // sync-relaxed-ok: control flag re-check under mu.
          if (stop.load(std::memory_order_relaxed)) break;
          matcher->MatchBatch(batch, &batch_results);
          bool diverged = false;
          for (size_t lane = 0; lane < batch.size() && !diverged; ++lane) {
            oracle.Match(batch[lane], &expect);
            std::vector<SubscriptionId> want = Sorted(expect);
            std::vector<SubscriptionId> have =
                Sorted(batch_results.matches(lane));
            if (want != have) {
              record_divergence(batch[lane], step + static_cast<int>(lane),
                                std::move(want), std::move(have));
              diverged = true;
            }
          }
          if (diverged) break;
        }
        step += static_cast<int>(reader_batch);
      }
      std::this_thread::yield();
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(writer_threads + reader_threads));
  for (int t = 0; t < writer_threads; ++t) {
    threads.emplace_back(writer, static_cast<uint64_t>(t));
  }
  for (int t = 0; t < reader_threads; ++t) {
    threads.emplace_back(reader, static_cast<uint64_t>(t + writer_threads));
  }
  // Writers exit when the mutation budget is spent; readers then stop.
  for (int t = 0; t < writer_threads; ++t) threads[t].join();
  // sync-relaxed-ok: control flag; readers re-check guarded state under mu.
  stop.store(true, std::memory_order_relaxed);
  for (size_t t = writer_threads; t < threads.size(); ++t) threads[t].join();
  return divergence;
}

std::string MinimizeDivergence(const DiffConfig& config,
                               const DiffDivergence& divergence,
                               const DiffVariant& variant) {
  std::string out;
  out += "divergence: variant '" + divergence.variant +
         "' disagrees with the naive oracle\n";
  char line[256];
  std::snprintf(line, sizeof(line),
                "  config: --seed=%" PRIu64
                " --attrs=%u --domain=%lld --subscriptions=%d --events=%d "
                "--p-present=%.3f%s\n",
                config.seed, config.attrs,
                static_cast<long long>(config.domain), config.subscriptions,
                config.events, config.p_present,
                config.churn ? " --churn" : "");
  out += line;
  std::snprintf(line, sizeof(line), "  step %d, event %s\n", divergence.step,
                divergence.event.ToString().c_str());
  out += line;
  out += "  expected ";
  AppendIds(divergence.expected, &out);
  out += ", got ";
  AppendIds(divergence.got, &out);
  out += "\n";

  std::vector<Subscription> subs = divergence.live;
  if (!SubsetDiverges(subs, divergence.event, variant, nullptr, nullptr)) {
    out +=
        "  NOT REPRODUCIBLE from a fresh build of the live set: the bug "
        "depends on mutation history.\n  Replay the full run with the "
        "config above (same seed => same interleaving of subscribes, "
        "unsubscribes, and events).\n";
    return out;
  }

  // Delta-debug: repeatedly drop chunks (halving the chunk size) while the
  // fresh-build divergence persists, ending with single-subscription
  // elimination. Deterministic, so the printed subset is stable per seed.
  for (size_t chunk = subs.size() / 2; chunk >= 1; chunk /= 2) {
    size_t start = 0;
    while (start < subs.size() && subs.size() > 1) {
      const size_t len = std::min(chunk, subs.size() - start);
      std::vector<Subscription> candidate;
      candidate.reserve(subs.size() - len);
      candidate.insert(candidate.end(), subs.begin(),
                       subs.begin() + static_cast<ptrdiff_t>(start));
      candidate.insert(candidate.end(),
                       subs.begin() + static_cast<ptrdiff_t>(start + len),
                       subs.end());
      if (!candidate.empty() &&
          SubsetDiverges(candidate, divergence.event, variant, nullptr,
                         nullptr)) {
        subs = std::move(candidate);
      } else {
        start += len;
      }
    }
    if (chunk == 1) break;
  }

  std::vector<SubscriptionId> expected, got;
  SubsetDiverges(subs, divergence.event, variant, &expected, &got);
  std::snprintf(line, sizeof(line),
                "  minimal reproducer: %zu subscription(s), expected ",
                subs.size());
  out += line;
  AppendIds(expected, &out);
  out += ", got ";
  AppendIds(got, &out);
  out += "\n";
  for (const Subscription& s : subs) {
    out += "    " + s.ToString() + "\n";
  }
  return out;
}

}  // namespace vfps
