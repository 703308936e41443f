// Copyright 2026 The vfps Authors.
// The paper's workload-generator process (Section 6.1): "a workload
// generator that, according to a workload specification, emits
// subscriptions and events to the publish/subscribe system", running as a
// separate process and submitting in fixed-size batches. Connects to a
// vfps_server, loads n_S subscriptions in batches of n_Sb, then publishes
// n_E events in batches of n_Eb, timing each phase end to end (IPC
// included, like the paper's measurements).
//
//   build/tools/vfps_server --port=7471 &
//   build/tools/vfps_workload --port=7471 --subs=100000 --events=2000

#include <cstdio>
#include <string>
#include <vector>

#include "src/net/client.h"
#include "src/workload/trace.h"
#include "src/util/timer.h"
#include "src/workload/workload_generator.h"
#include "tools/flags.h"

namespace {

std::string ConditionText(const vfps::Subscription& s) {
  std::string text;
  for (size_t i = 0; i < s.predicates().size(); ++i) {
    const vfps::Predicate& p = s.predicates()[i];
    if (i > 0) text += " AND ";
    text.append("a").append(std::to_string(p.attribute)).append(" ");
    text.append(vfps::RelOpToString(p.op)).append(" ");
    text.append(std::to_string(p.value));
  }
  return text;
}

std::string EventText(const vfps::Event& e) {
  std::string text;
  for (size_t i = 0; i < e.pairs().size(); ++i) {
    if (i > 0) text += ", ";
    text.append("a").append(std::to_string(e.pairs()[i].attribute));
    text.append(" = ").append(std::to_string(e.pairs()[i].value));
  }
  return text;
}

}  // namespace

int main(int argc, char** argv) {
  vfps::tools::Flags flags = vfps::tools::Flags::Parse(argc, argv);
  if (flags.Has("help")) {
    std::printf(
        "vfps_workload [--host=127.0.0.1] [--port=7471] [--seed=1]\n"
        "  [--subs=100000] [--sub-batch=10000] [--preds=5] [--fixed-eq=2]\n"
        "  [--fixed-range=0] [--fixed-ne=0] [--attrs=32] [--dom-lo=1]\n"
        "  [--dom-hi=35] [--events=1000] [--event-batch=100]\n"
        "  [--record=FILE]   save the emitted workload as a trace\n"
        "  [--replay=FILE]   send a recorded trace instead of generating\n");
    return 0;
  }

  vfps::WorkloadSpec spec;
  spec.num_attributes = static_cast<uint32_t>(flags.GetInt("attrs", 32));
  spec.num_subscriptions =
      static_cast<uint64_t>(flags.GetInt("subs", 100000));
  spec.subscription_batch =
      static_cast<uint32_t>(flags.GetInt("sub-batch", 10000));
  spec.predicates_per_subscription =
      static_cast<uint32_t>(flags.GetInt("preds", 5));
  spec.fixed_equality = static_cast<uint32_t>(flags.GetInt("fixed-eq", 2));
  spec.fixed_range = static_cast<uint32_t>(flags.GetInt("fixed-range", 0));
  spec.fixed_not_equal = static_cast<uint32_t>(flags.GetInt("fixed-ne", 0));
  spec.value_lo = flags.GetInt("dom-lo", 1);
  spec.value_hi = flags.GetInt("dom-hi", 35);
  spec.event_value_lo = spec.value_lo;
  spec.event_value_hi = spec.value_hi;
  spec.attrs_per_event = spec.num_attributes;
  spec.num_events = static_cast<uint64_t>(flags.GetInt("events", 1000));
  spec.event_batch = static_cast<uint32_t>(flags.GetInt("event-batch", 100));
  spec.seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  vfps::Status valid = spec.Validate();
  if (!valid.ok()) {
    std::fprintf(stderr, "bad spec: %s\n", valid.ToString().c_str());
    return 1;
  }

  auto client_result = vfps::PubSubClient::Connect(
      flags.GetString("host", "127.0.0.1"),
      static_cast<uint16_t>(flags.GetInt("port", 7471)));
  if (!client_result.ok()) {
    std::fprintf(stderr, "connect failed: %s\n",
                 client_result.status().ToString().c_str());
    return 1;
  }
  vfps::PubSubClient client = std::move(client_result).value();

  // Materialize the workload: generated from the spec, or replayed from a
  // recorded trace (which then overrides the counts).
  vfps::Trace trace;
  const std::string replay = flags.GetString("replay", "");
  if (!replay.empty()) {
    auto loaded = vfps::ReadTrace(replay);
    if (!loaded.ok()) {
      std::fprintf(stderr, "replay failed: %s\n",
                   loaded.status().ToString().c_str());
      return 1;
    }
    trace = std::move(loaded).value();
    spec.num_subscriptions = trace.subscriptions.size();
    spec.num_events = trace.events.size();
    std::printf("replaying %zu subscriptions + %zu events from %s\n",
                trace.subscriptions.size(), trace.events.size(),
                replay.c_str());
  } else {
    std::printf("workload: %s\n", spec.ToString().c_str());
    vfps::WorkloadGenerator gen(spec);
    trace.subscriptions =
        gen.MakeSubscriptions(spec.num_subscriptions, 1);
    trace.events = gen.MakeEvents(spec.num_events);
  }
  const std::string record = flags.GetString("record", "");
  if (!record.empty()) {
    vfps::Status saved = vfps::WriteTrace(record, trace);
    if (!saved.ok()) {
      std::fprintf(stderr, "record failed: %s\n",
                   saved.ToString().c_str());
      return 1;
    }
    std::printf("recorded trace to %s\n", record.c_str());
  }

  // --- subscription loading, batch-timed like Figure 3(d) -----------------
  vfps::Timer load_timer;
  uint64_t loaded = 0;
  while (loaded < spec.num_subscriptions) {
    const uint64_t batch =
        std::min<uint64_t>(spec.subscription_batch,
                           spec.num_subscriptions - loaded);
    vfps::Timer batch_timer;
    for (uint64_t i = 0; i < batch; ++i) {
      auto r =
          client.Subscribe(ConditionText(trace.subscriptions[loaded + i]));
      if (!r.ok()) {
        std::fprintf(stderr, "SUB failed: %s\n",
                     r.status().ToString().c_str());
        return 1;
      }
    }
    loaded += batch;
    std::printf("  loaded %10llu / %llu  (batch %.1f ms)\n",
                static_cast<unsigned long long>(loaded),
                static_cast<unsigned long long>(spec.num_subscriptions),
                batch_timer.ElapsedMillis());
  }
  const double load_s = load_timer.ElapsedSeconds();
  std::printf("loading: %.2fs total, %.1f us/subscription (IPC included)\n",
              load_s, load_s * 1e6 /
                          static_cast<double>(spec.num_subscriptions));

  // --- event publishing, batch-timed like Figure 3(a) ---------------------
  uint64_t total_matches = 0;
  vfps::Timer event_timer;
  uint64_t published = 0;
  while (published < spec.num_events) {
    const uint64_t batch =
        std::min<uint64_t>(spec.event_batch, spec.num_events - published);
    for (uint64_t i = 0; i < batch; ++i) {
      auto r = client.Publish(EventText(trace.events[published + i]));
      if (!r.ok()) {
        std::fprintf(stderr, "PUB failed: %s\n",
                     r.status().ToString().c_str());
        return 1;
      }
      total_matches += r.value().matches;
    }
    published += batch;
  }
  const double event_s = event_timer.ElapsedSeconds();
  std::printf(
      "events: %llu in %.2fs -> %.1f events/s, %.3f ms/event, "
      "%.2f matches/event (IPC included)\n",
      static_cast<unsigned long long>(spec.num_events), event_s,
      static_cast<double>(spec.num_events) / event_s,
      event_s * 1e3 / static_cast<double>(spec.num_events),
      static_cast<double>(total_matches) /
          static_cast<double>(spec.num_events));

  auto stats = client.Stats();
  if (stats.ok()) std::printf("server: %s\n", stats.value().c_str());
  return 0;
}
