// Copyright 2026 The vfps Authors.
// Experiment E10 (substitution check) — the paper's timings include the
// interprocess communication between the workload generator process and the
// matching process; our figure benches call the matcher in-process. This
// bench quantifies that substitution: the same publish stream measured
// (a) directly against a Broker, and (b) through the loopback TCP protocol,
// both per-request and pipelined in batches of n_Eb = 100 like the paper's
// batched submission.

#include <algorithm>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench/common/harness.h"
#include "src/net/client.h"
#include "src/net/server.h"
#include "src/util/timer.h"

namespace vfps::bench {
namespace {

int Run() {
  const uint64_t num_subs = Pick(2000, 50000, 200000);
  const uint64_t num_events = Pick(200, 2000, 10000);

  WorkloadSpec spec = workloads::W0(num_subs);
  PrintBanner("ipc_overhead",
              "substitution check: in-process matching vs the paper's "
              "two-process (IPC) deployment, same workload",
              spec);

  WorkloadGenerator gen(spec);
  std::vector<Subscription> subs = gen.MakeSubscriptions(num_subs, 1);
  std::vector<Event> events = gen.MakeEvents(num_events);

  // --- (a) in-process ------------------------------------------------------
  double direct_us;
  {
    std::unique_ptr<Matcher> matcher = MakeMatcher(Algorithm::kDynamic);
    for (const Subscription& s : subs) {
      VFPS_CHECK(matcher->AddSubscription(s).ok());
    }
    std::vector<SubscriptionId> out;
    Timer timer;
    for (const Event& e : events) matcher->Match(e, &out);
    direct_us = timer.ElapsedSeconds() * 1e6 / static_cast<double>(num_events);
  }

  // --- (b) loopback TCP ------------------------------------------------------
  // Event text lines are prebuilt so formatting is not billed to IPC.
  ServerOptions server_options;
  server_options.store_events = false;
  PubSubServer server(server_options);
  VFPS_CHECK(server.Start().ok());
  std::thread loop([&server] { server.RunUntilStopped(); });
  auto client_result = PubSubClient::Connect("127.0.0.1", server.port());
  VFPS_CHECK(client_result.ok());
  PubSubClient client = std::move(client_result).value();

  // Load subscriptions through the wire too (they define the schema names).
  SchemaRegistry names;
  for (AttributeId a = 0; a < spec.num_attributes; ++a) {
    names.InternAttribute(std::string("a").append(std::to_string(a)));
  }
  {
    for (const Subscription& s : subs) {
      std::string condition;
      for (size_t i = 0; i < s.predicates().size(); ++i) {
        const Predicate& p = s.predicates()[i];
        if (i > 0) condition += " AND ";
        condition += names.AttributeName(p.attribute);
        condition += " ";
        condition += RelOpToString(p.op);
        condition += " ";
        condition += std::to_string(p.value);
      }
      VFPS_CHECK(client.Subscribe(condition).ok());
    }
  }
  std::vector<std::string> event_lines;
  event_lines.reserve(events.size());
  for (const Event& e : events) {
    std::string text;
    for (size_t i = 0; i < e.pairs().size(); ++i) {
      if (i > 0) text += ", ";
      text += names.AttributeName(e.pairs()[i].attribute) + " = " +
              std::to_string(e.pairs()[i].value);
    }
    event_lines.push_back(std::move(text));
  }

  // Per-request (synchronous round trips).
  double rt_us;
  {
    Timer timer;
    for (const std::string& line : event_lines) {
      VFPS_CHECK(client.Publish(line).ok());
    }
    rt_us = timer.ElapsedSeconds() * 1e6 / static_cast<double>(num_events);
  }

  // Pipelined in batches of n_Eb = 100 (the paper's submission batching).
  double batch_us;
  {
    Timer timer;
    for (size_t i = 0; i < event_lines.size(); i += spec.event_batch) {
      const size_t end =
          std::min(event_lines.size(), i + spec.event_batch);
      std::vector<std::string> batch(event_lines.begin() + i,
                                     event_lines.begin() + end);
      VFPS_CHECK(client.PublishBatch(batch).ok());
    }
    batch_us = timer.ElapsedSeconds() * 1e6 / static_cast<double>(num_events);
  }

  server.Stop();
  loop.join();

  std::printf("\n%-34s %14s %14s\n", "path", "us/event", "events/s");
  std::printf("%-34s %14.2f %14.0f\n", "in-process Matcher::Match",
              direct_us, 1e6 / direct_us);
  std::printf("%-34s %14.2f %14.0f\n", "loopback TCP round trip", rt_us,
              1e6 / rt_us);
  std::printf("%-34s %14.2f %14.0f\n", "loopback TCP, batches of 100",
              batch_us, 1e6 / batch_us);
  std::printf(
      "\n# IPC adds %.1f us/event (%.2fx). The paper's absolute figures "
      "include this class of overhead; our figure benches exclude it, which "
      "only shifts curves, not the algorithm comparisons.\n",
      rt_us - direct_us, rt_us / direct_us);
  return 0;
}

}  // namespace
}  // namespace vfps::bench

int main() { return vfps::bench::Run(); }
