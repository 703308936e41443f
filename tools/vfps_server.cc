// Copyright 2026 The vfps Authors.
// Standalone publish/subscribe server: the matching engine as a process
// (the paper's deployment). Clients speak the line protocol of
// src/net/protocol.h; see tools/vfps_cli.cc for an interactive client and
// tools/vfps_workload.cc for the paper's workload-generator counterpart.
//
//   build/tools/vfps_server --port=7471 --algorithm=dynamic

#include <chrono>
#include <csignal>
#include <cstdio>
#include <string>

#include "src/net/server.h"
#include "tools/flags.h"

namespace {
vfps::PubSubServer* g_server = nullptr;

void HandleSignal(int /*sig*/) {
  if (g_server != nullptr) g_server->Stop();
}

/// Writes the current metrics JSON snapshot to `path` (overwritten each
/// time, so the file always holds one complete snapshot).
void DumpMetrics(vfps::PubSubServer* server, const std::string& path) {
  const std::string json = server->ExportMetricsJson();
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "metrics dump: cannot open %s\n", path.c_str());
    return;
  }
  std::fputs(json.c_str(), f);
  std::fputc('\n', f);
  std::fclose(f);
}
}  // namespace

int main(int argc, char** argv) {
  vfps::tools::Flags flags = vfps::tools::Flags::Parse(argc, argv);
  if (flags.Has("help")) {
    std::printf(
        "vfps_server --port=N [--bind=ADDR] [--algorithm=dynamic] "
        "[--store-events=true]\n"
        "            [--metrics-dump-interval=SECONDS] "
        "[--metrics-dump-path=FILE]\n"
        "            [--idle-timeout-ms=N] [--max-write-queue=BYTES]\n"
        "            [--busy-high-water=BYTES]\n"
        "algorithms: naive counting propagation propagation-wp static "
        "dynamic tree\n"
        "idle-timeout-ms > 0 reaps connections idle that long;\n"
        "max-write-queue bounds one connection's outbound backlog (slow\n"
        "consumers are disconnected; 0 = unlimited); busy-high-water > 0\n"
        "sheds PUB/PUBBATCH with ERR BUSY once the total outbound backlog\n"
        "passes it (see docs/ROBUSTNESS.md)\n"
        "metrics-dump-interval > 0 rewrites FILE (default "
        "vfps_metrics.json)\nwith a JSON telemetry snapshot every SECONDS "
        "while serving\n");
    return 0;
  }

  vfps::ServerOptions options;
  options.port = static_cast<uint16_t>(flags.GetInt("port", 7471));
  options.bind_address = flags.GetString("bind", "127.0.0.1");
  options.store_events = flags.GetBool("store-events", true);
  options.idle_timeout_ms = static_cast<int>(flags.GetInt("idle-timeout-ms", 0));
  options.max_write_queue_bytes = static_cast<size_t>(
      flags.GetInt("max-write-queue", 8 << 20));
  options.busy_high_water_bytes =
      static_cast<size_t>(flags.GetInt("busy-high-water", 0));
  auto algorithm =
      vfps::AlgorithmFromString(flags.GetString("algorithm", "dynamic"));
  if (!algorithm.ok()) {
    std::fprintf(stderr, "%s\n", algorithm.status().ToString().c_str());
    return 1;
  }
  options.algorithm = algorithm.value();

  vfps::PubSubServer server(options);
  vfps::Status status = server.Start();
  if (!status.ok()) {
    std::fprintf(stderr, "start failed: %s\n", status.ToString().c_str());
    return 1;
  }
  g_server = &server;
  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);

  std::printf("vfps server: %s algorithm, listening on %s:%u\n",
              flags.GetString("algorithm", "dynamic").c_str(),
              options.bind_address.c_str(), server.port());
  const int dump_interval =
      static_cast<int>(flags.GetInt("metrics-dump-interval", 0));
  const std::string dump_path =
      flags.GetString("metrics-dump-path", "vfps_metrics.json");
  if (dump_interval <= 0) {
    server.RunUntilStopped();
  } else {
    // Drive the event loop ourselves to interleave periodic dumps.
    // ExportMetricsJson runs as a job on the server's match worker, so
    // dumps never race request handling.
    auto last_dump = std::chrono::steady_clock::now();
    while (!server.stop_requested()) {
      vfps::Result<int> r = server.RunOnce(250);
      if (!r.ok()) {
        std::fprintf(stderr, "run failed: %s\n",
                     r.status().ToString().c_str());
        break;
      }
      const auto now = std::chrono::steady_clock::now();
      if (now - last_dump >= std::chrono::seconds(dump_interval)) {
        last_dump = now;
        DumpMetrics(&server, dump_path);
      }
    }
    server.Quiesce();  // settle in-flight requests before the final dump
    DumpMetrics(&server, dump_path);  // final snapshot on shutdown
  }
  std::printf("shut down: %zu subscriptions, %zu stored events\n",
              server.broker().subscription_count(),
              server.broker().stored_event_count());
  return 0;
}
