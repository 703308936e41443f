// Copyright 2026 The vfps Authors.
// The traced half of the benchmark: replays a workload's inputs in-process
// through each module's public functions (lang parsing, a Broker for
// pubsub and, through its DynamicMatcher, index / cluster / cost; a
// standalone DynamicMatcher that times single matcher calls; net's payload
// formatting), recording spans from this file around
// every call, and folds them with the wire run's METRICS JSON delta into
// the per-layer metrics.

#ifndef VFPS_SERVBENCH_REPLAY_H_
#define VFPS_SERVBENCH_REPLAY_H_

#include <string>
#include <vector>

#include "servbench/inputs.h"
#include "servbench/wire.h"

namespace servbench {

struct ReplayResult {
  std::vector<Span> spans;
  uint64_t events = 0;
  uint64_t requests = 0;
  double parse_event_ns = 0;      // summed
  uint64_t conditions = 0;
  double parse_condition_ns = 0;  // summed
  double publish_ns = 0;          // summed pubsub.publish spans
  double publish_match_ns = 0;    // broker matcher's own phase timers
  double format_ns = 0;           // summed net formatting in the handler
  uint64_t notifications = 0;
  std::vector<double> request_ns;  // parse + publish per request
  std::vector<double> subscribe_ns;
  std::vector<double> match_ns;
  std::vector<double> add_ns;
  std::vector<double> remove_ns;
  double batch_ns = 0;
  uint64_t batch_events = 0;
  // The broker's matcher state after the replay.
  uint64_t matcher_events = 0;
  double phase1_s = 0;
  double phase2_s = 0;
  uint64_t predicates = 0;
  uint64_t checks = 0;
  uint64_t clusters = 0;
  uint64_t matches = 0;
  double memory_mb = 0;
  uint64_t tables_created = 0;
  uint64_t tables_deleted = 0;
  uint64_t subscriptions_moved = 0;
  uint64_t sweeps = 0;
  // Broker state after the replay.
  uint64_t schema_values = 0;
  uint64_t schema_attributes = 0;
  uint64_t stored_events = 0;
};

/// Replays the workload's subscriptions, churn and first events in
/// process, in the proportions the wire run saw.
void RunReplay(Workload* workload, const WireResult& wire,
               ReplayResult* result);

/// Every per-layer metric, in BENCHMARK.json order, ending with the traced
/// wire run's own end-to-end figures prefixed "wire." (compared with an
/// untraced run's they give the tracing overhead).
std::vector<Metric> LayerMetrics(const WireResult& wire,
                                      const ReplayResult& replay);

}  // namespace servbench

#endif  // VFPS_SERVBENCH_REPLAY_H_
