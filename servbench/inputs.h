// Copyright 2026 The vfps Authors.
// The benchmark's workloads: every input the server receives is generated
// here from (workload name, seed), together with the naive-matcher oracle
// that judges the deliveries. See servbench/METRICS.md for why each
// workload exists.

#ifndef VFPS_SERVBENCH_INPUTS_H_
#define VFPS_SERVBENCH_INPUTS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/core/event.h"
#include "src/core/schema_registry.h"
#include "src/core/subscription.h"
#include "src/workload/workload_generator.h"

namespace servbench {

/// Subscription turnover on one connection: every step sends one request,
/// an insert while the live population is below `population` and an
/// UNSUB of a random live subscription otherwise, so the population stays
/// constant (the paper's §6.2.2 equilibrium). With `ticks_per_s` > 0 the
/// same connection advances the server's logical clock with TIME, inserts
/// are SUBUNTIL (now + sub_life_ticks) and expire, and publishes are
/// PUBUNTIL (now + event_life_ticks) so stored events expire too.
struct ChurnPlan {
  size_t conn = 0;
  double steps_per_s = 0;
  size_t population = 0;
  int ticks_per_s = 0;
  int64_t sub_life_ticks = 0;
  int64_t event_life_ticks = 0;
};

/// One churned subscription: its text and the oracle's copy.
struct ChurnSub {
  std::string text;
  vfps::Subscription sub;
};

/// Everything one run sends, and what the oracle expects back.
struct Workload {
  std::string name;
  uint64_t seed = 0;
  /// Server flag: --store-events (the default is true).
  bool store_events = true;

  /// Connections the generator opens; conn_subs[c] lists the stable
  /// subscriptions (indices into stable_text) connection c holds.
  size_t num_conns = 0;
  std::vector<std::vector<uint32_t>> conn_subs;
  std::vector<std::string> stable_text;
  std::vector<vfps::Subscription> stable_sub;

  /// Publishing: closed-loop PUBBATCH of `batch` events with `window`
  /// batches outstanding, or (offered_rate > 0) open-loop single-line
  /// PUB/PUBUNTIL at a fixed rate.
  size_t publisher_conn = 0;
  size_t batch = 1;
  size_t window = 0;
  double offered_rate = 0;
  /// Each event carries a unique string id (grows the server's value
  /// registry: the ParseEvent interning leak rss_growth_mb must show).
  bool unique_ids = false;

  /// Distinct events, cycled; event i of a run is pool[i % pool.size()]
  /// plus its pairing key. pool_checked[p]: the oracle's expected
  /// deliveries (count, hash sum over stable subscriptions) are known.
  std::vector<std::string> pool_text;
  std::vector<vfps::Event> pool_event;
  std::vector<uint8_t> pool_checked;
  std::vector<uint32_t> expected_count;
  std::vector<uint64_t> expected_hash;

  ChurnPlan churn;
  /// Churned subscriptions, produced on demand from a seeded W0 stream;
  /// RestartChurn rewinds the stream (each set-up sends the same inputs).
  ChurnSub NextChurnSub();
  void RestartChurn();
  /// Initial churn population, loaded during set-up (SUBUNTIL deadlines
  /// spread over the first sub_life_ticks when ticks run).
  size_t initial_churn = 0;

  /// The key attribute that pairs deliveries with sends. It is the first
  /// pair of every event text so the server interns it before any other
  /// event-only attribute; the value starts at kKeyBase so it can never
  /// collide with an interned string id.
  static constexpr uint64_t kKeyBase = 1000000000;
  std::string EventText(uint64_t seq) const;

  /// Oracle schema: a0..a31 are interned first so W0-generated predicates
  /// and pairs (attribute ids 0..31) mean the same as their text.
  vfps::SchemaRegistry registry;

 private:
  friend Workload MakeWorkload(const std::string& name, uint64_t seed);
  std::unique_ptr<vfps::WorkloadGenerator> churn_gen_;
  uint64_t churn_made_ = 0;
};

/// Names accepted by MakeWorkload.
const std::vector<std::string>& WorkloadNames();

/// Builds the named workload from `seed` and runs the oracle over the
/// pool. Aborts on an unknown name (callers validate first).
Workload MakeWorkload(const std::string& name, uint64_t seed);

}  // namespace servbench

#endif  // VFPS_SERVBENCH_INPUTS_H_
