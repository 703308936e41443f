// Copyright 2026 The vfps Authors.
// Served-path benchmark. One run: build the workload from the seed,
// set the server up several times, drive it for --seconds over loopback,
// check every delivery, and print one JSON result line (last on stdout).
// --trace 1 adds the METRICS JSON delta over the window and the
// in-process replay that yields the per-layer metrics.
//
//   servbench --server=PATH --workload=match_w0 --seed=1 --seconds=10
//             --trace=0 [--holdout-seed=N] [--span-dir=DIR]
//             [--offered-rate=N]
// --offered-rate replaces an open-loop workload's publish rate; it exists
// to find the rate the server saturates at, not for gated runs.

#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string>

#include "servbench/common.h"
#include "servbench/inputs.h"
#include "servbench/replay.h"
#include "servbench/wire.h"
#include "tools/flags.h"

namespace servbench {
namespace {

// The end-to-end metrics BENCHMARK.json gates (bounded, steady on the
// gated workloads); the other wire figures are reported per layer under
// "wire." by a traced run.
const std::string kEndToEnd[] = {"setup_s", "events_per_s",
                                 "deliveries_per_s", "ack_p50_ms",
                                 "delivery_p50_ms", "server_rss_mb",
                                 "server_cpu_us_per_event"};

// CPUs this process may run on, as nproc counts them: the affinity mask,
// not the online count, so taskset and cpusets are respected.
unsigned UsableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return static_cast<unsigned>(CPU_COUNT(&set));
}

void AddMetric(std::string* out, const std::string& name, double value,
               const char* unit) {
  if (out->back() != '{') out->push_back(',');
  *out += "\"" + name + "\":{";
  AppendJsonNumber(out, "value", value);
  *out += std::string(",\"unit\":\"") + unit + "\"}";
}

void WriteSpans(const std::string& path, const std::vector<Span>& wire,
                const std::vector<Span>& replay) {
  std::ofstream out(path);
  for (const auto* spans : {&wire, &replay}) {
    const char* source = spans == &wire ? "wire" : "replay";
    for (const Span& s : *spans) {
      out << "{\"source\":\"" << source << "\",\"id\":" << s.id
          << ",\"parent\":" << s.parent << ",\"request\":" << s.request
          << ",\"name\":\"" << s.name << "\",\"start_ns\":" << s.start
          << ",\"end_ns\":" << s.end << "}\n";
    }
  }
}

int Main(int argc, char** argv) {
  vfps::tools::Flags flags = vfps::tools::Flags::Parse(argc, argv);
  const std::string server = flags.GetString("server", "");
  const std::string name = flags.GetString("workload", "");
  const int64_t seed_flag = flags.GetInt("seed", 1);
  const int64_t holdout = flags.GetInt("holdout-seed", -1);
  const double seconds = std::strtod(flags.GetString("seconds", "10").c_str(),
                                     nullptr);
  const bool traced = flags.GetInt("trace", 0) != 0;
  const double offered_rate =
      std::strtod(flags.GetString("offered-rate", "0").c_str(), nullptr);
  bool known = false;
  for (const std::string& n : WorkloadNames()) known = known || n == name;
  if (server.empty() || !known || seconds <= 0 || seed_flag < 0) {
    std::fprintf(stderr,
                 "usage: servbench --server=PATH --workload=match_w0|fanout|"
                 "churn_pub --seed=N --seconds=S --trace=0|1 "
                 "[--holdout-seed=N] [--span-dir=DIR] [--offered-rate=N]\n");
    return 2;
  }
  // A held-out seed replaces the tuning seed; the result records which.
  const uint64_t seed =
      static_cast<uint64_t>(holdout >= 0 ? holdout : seed_flag);

  Workload w = MakeWorkload(name, seed);
  if (offered_rate > 0) {
    if (w.offered_rate <= 0) {
      std::fprintf(stderr, "servbench: %s is not an open-loop workload\n",
                   name.c_str());
      return 2;
    }
    w.offered_rate = offered_rate;
  }
  const unsigned nproc = UsableCpus();
  // One generator thread, w.num_conns connections: refuse a run that would
  // oversubscribe the cores the server's loop and worker also need.
  if (w.num_conns > nproc) {
    std::fprintf(stderr,
                 "servbench: %s needs %zu connections but nproc is %u\n",
                 name.c_str(), w.num_conns, nproc);
    return 2;
  }

  WireOptions options;
  options.server_path = server;
  options.seconds = seconds;
  options.traced = traced;
  WireResult wire;
  if (!RunWire(&w, options, &wire)) return 1;

  ReplayResult replay;
  if (traced) RunReplay(&w, wire, &replay);

  const WireTotals totals = Totals(wire);
  const double late_p99 = Quantile(wire.late_ms, 0.99);
  // Run validity: open-loop latencies start at the due time, so a
  // generator that sent late measured itself, not the server.
  const bool generator_late = w.offered_rate > 0 && late_p99 > 1.0;
  std::printf(
      "{\"context\":{\"workload\":\"%s\",\"seed\":%llu,\"held_out\":%s,"
      "\"nproc\":%u,\"kernel_isa\":%lld,\"algorithm\":\"dynamic\","
      "\"store_events\":%s,\"build_type\":\"%s\",\"generator_threads\":1,"
      "\"generator_connections\":%zu,\"window\":%zu,\"offered_rate\":%g,"
      "\"setups\":%zu,"
      "\"window_s\":%.3f,\"ack_samples\":%zu,\"delivery_samples\":%llu,"
      "\"churn_samples\":%zu,\"text_checked\":%llu,"
      "\"text_mismatched\":%llu,\"generator_late\":%s}}\n",
      name.c_str(), static_cast<unsigned long long>(seed),
      holdout >= 0 ? "true" : "false", nproc,
      static_cast<long long>(wire.kernel_isa),
      w.store_events ? "true" : "false", VFPS_SERVBENCH_BUILD_TYPE,
      w.num_conns, w.window, w.offered_rate,
      wire.setup_s.size(), wire.window_s, totals.ack_ms.size(),
      static_cast<unsigned long long>(totals.delivery_samples),
      totals.churn_samples,
      static_cast<unsigned long long>(wire.text_checked),
      static_cast<unsigned long long>(wire.text_mismatched),
      generator_late ? "true" : "false");
  if (generator_late) {
    std::fprintf(stderr,
                 "servbench: generator fell behind its schedule "
                 "(late p99 %.3f ms); latencies measure the generator\n",
                 late_p99);
  }

  std::string metrics = "{";
  if (!traced) {
    for (const Metric& m : WireMetrics(wire)) {
      if (std::find(std::begin(kEndToEnd), std::end(kEndToEnd), m.name) !=
          std::end(kEndToEnd)) {
        AddMetric(&metrics, m.name, m.value, m.unit);
      }
    }
  } else {
    for (const Metric& m : LayerMetrics(wire, replay)) {
      AddMetric(&metrics, m.name, m.value, m.unit);
    }
    const std::string span_dir = flags.GetString("span-dir", "");
    if (!span_dir.empty()) {
      WriteSpans(span_dir + "/" + name + "-" + std::to_string(seed) +
                     ".jsonl",
                 wire.spans, replay.spans);
    }
  }
  metrics += "}";
  const bool correct = wire.failed == 0;
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
              "\"metrics\":%s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(wire.attempted),
              static_cast<unsigned long long>(wire.failed), metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace servbench

int main(int argc, char** argv) { return servbench::Main(argc, argv); }
