// Copyright 2026 The vfps Authors.
// Experiment E14 (extension) — EVENT fan-out throughput vs connection
// count. The paper measures matching in microseconds per event; this bench
// measures the delivery path that has to keep up with it: N subscriber
// connections all matching every published event (the server formats one
// payload and fans it out N ways), plus M idle connections that must cost
// nothing per round (O(ready) dispatch, deadline-heap idle tracking).
//
//   conn_scaling --subscribers=N --idle=M --events=E --batch=B
//
// Rows are keyed by (n_subscriptions, n_connections) — the regression gate
// refuses to compare rows across different connection counts, so a
// baseline recorded at one scale never gates a run at another. The gated
// metric is deliveries per second: EVENT lines received across all
// subscribers per wall-clock second of publishing.

#include <sys/epoll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench/common/harness.h"
#include "src/net/bench_client.h"
#include "src/net/server.h"
#include "src/util/macros.h"

namespace vfps::bench {
namespace {

using Clock = std::chrono::steady_clock;

struct Args {
  uint64_t subscribers = 0;  // 0 = scale default
  uint64_t idle = 0;         // extra idle connections for the scaling row
  bool idle_set = false;
  uint64_t events = 0;
  uint64_t batch = 64;
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto number = [&](std::string_view prefix, uint64_t* out) {
      if (arg.rfind(prefix, 0) != 0) return false;
      *out = std::strtoull(std::string(arg.substr(prefix.size())).c_str(),
                           nullptr, 10);
      return true;
    };
    if (number("--subscribers=", &args.subscribers)) continue;
    if (number("--idle=", &args.idle)) {
      args.idle_set = true;
      continue;
    }
    if (number("--events=", &args.events)) continue;
    if (number("--batch=", &args.batch)) continue;
    std::fprintf(stderr,
                 "usage: conn_scaling [--subscribers=N] [--idle=M] "
                 "[--events=E] [--batch=B]\n");
    std::exit(2);
  }
  return args;
}

/// Raises RLIMIT_NOFILE as far as the hard limit allows; returns the
/// resulting soft limit.
uint64_t RaiseFdLimit() {
  rlimit rl{};
  if (::getrlimit(RLIMIT_NOFILE, &rl) != 0) return 1024;
  if (rl.rlim_cur < rl.rlim_max) {
    rl.rlim_cur = rl.rlim_max;
    ::setrlimit(RLIMIT_NOFILE, &rl);
    ::getrlimit(RLIMIT_NOFILE, &rl);
  }
  return rl.rlim_cur;
}

struct FanoutMeasurement {
  double deliveries_per_second = 0;
  double publish_events_per_second = 0;
  double p50_round_ms = 0;
  double p99_round_ms = 0;
  uint64_t deliveries = 0;
};

double Percentile(std::vector<double>* v, double q) {
  if (v->empty()) return 0;
  const size_t idx =
      static_cast<size_t>(q * static_cast<double>(v->size() - 1) + 0.5);
  std::nth_element(v->begin(), v->begin() + static_cast<long>(idx), v->end());
  return (*v)[idx];
}

/// Publishes `events` matching events in PUBBATCH rounds of `batch` and
/// drains every subscriber until all fan-out deliveries arrived. One round
/// = send batch, await the publisher's replies and subscribers' EVENT
/// lines; its wall time is the fan-out completion latency.
FanoutMeasurement MeasureFanout(BenchConn* publisher,
                                std::vector<BenchConn>* subscribers,
                                uint64_t events, uint64_t batch) {
  FanoutMeasurement m;
  std::vector<double> round_ms;
  std::string payload;
  // The harness must not become the bottleneck it is measuring: drain only
  // connections the kernel reports readable (a blind sweep costs one
  // syscall per connection per pass). The wait is epoll — O(ready), same
  // as the server under test.
  const size_t publisher_slot = subscribers->size();
  const int epfd = ::epoll_create1(0);
  VFPS_CHECK(epfd >= 0);
  for (size_t i = 0; i < subscribers->size(); ++i) {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = i;
    VFPS_CHECK(::epoll_ctl(epfd, EPOLL_CTL_ADD, (*subscribers)[i].fd(),
                           &ev) == 0);
  }
  {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = publisher_slot;
    VFPS_CHECK(::epoll_ctl(epfd, EPOLL_CTL_ADD, publisher->fd(), &ev) == 0);
  }
  std::vector<epoll_event> ready(4096);
  const auto start = Clock::now();
  uint64_t published = 0;
  while (published < events) {
    const uint64_t n = std::min(batch, events - published);
    payload.clear();
    payload += "PUBBATCH " + std::to_string(n) + "\n";
    for (uint64_t e = 0; e < n; ++e) payload += "k = 1\n";
    const auto t0 = Clock::now();
    VFPS_CHECK(publisher->WriteAll(payload));
    // Expect "OK <n>" + n payload lines on the publisher...
    uint64_t publisher_lines = 1 + n;
    // ...and n EVENT lines on every subscriber.
    uint64_t expected = n * subscribers->size();
    while (publisher_lines > 0 || expected > 0) {
      uint64_t got = 0;
      const int nready = ::epoll_wait(epfd, ready.data(),
                                      static_cast<int>(ready.size()), 30000);
      VFPS_CHECK(nready > 0);
      for (int r = 0; r < nready; ++r) {
        const uint64_t slot = ready[static_cast<size_t>(r)].data.u64;
        if (slot == publisher_slot) {
          if (publisher_lines > 0) {
            const uint64_t lines = publisher->DrainLines();
            publisher_lines -= std::min(lines, publisher_lines);
          }
        } else {
          got += (*subscribers)[slot].DrainLines();
        }
      }
      expected -= std::min(got, expected);
    }
    const auto t1 = Clock::now();
    round_ms.push_back(
        std::chrono::duration<double, std::milli>(t1 - t0).count());
    published += n;
    m.deliveries += n * subscribers->size();
  }
  ::close(epfd);
  const double elapsed_s =
      std::chrono::duration<double>(Clock::now() - start).count();
  m.deliveries_per_second = static_cast<double>(m.deliveries) / elapsed_s;
  m.publish_events_per_second = static_cast<double>(published) / elapsed_s;
  m.p50_round_ms = Percentile(&round_ms, 0.50);
  m.p99_round_ms = Percentile(&round_ms, 0.99);
  return m;
}

int Run(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const uint64_t fd_limit = RaiseFdLimit();
  uint64_t subscribers =
      args.subscribers != 0 ? args.subscribers : Pick(64, 1000, 10000);
  uint64_t idle = args.idle_set ? args.idle : Pick(256, 10000, 50000);
  const uint64_t events = args.events != 0 ? args.events : Pick(200, 2000, 10000);
  const uint64_t batch = std::max<uint64_t>(1, args.batch);

  // Every connection costs one client fd and one server fd in this
  // process; clamp both populations to what the fd limit leaves.
  const uint64_t budget = fd_limit > 512 ? (fd_limit - 512) / 2 : 64;
  if (subscribers > budget) {
    std::printf("# fd limit %llu clamps subscribers %llu -> %llu\n",
                static_cast<unsigned long long>(fd_limit),
                static_cast<unsigned long long>(subscribers),
                static_cast<unsigned long long>(budget));
    subscribers = budget;
  }
  if (subscribers + idle > budget) {
    const uint64_t clamped = budget > subscribers ? budget - subscribers : 0;
    std::printf("# fd limit %llu clamps idle connections %llu -> %llu\n",
                static_cast<unsigned long long>(fd_limit),
                static_cast<unsigned long long>(idle),
                static_cast<unsigned long long>(clamped));
    idle = clamped;
  }

  const unsigned cores = std::thread::hardware_concurrency();
  const char* mode = cores > 1 ? "mt" : "1core";

  std::printf(
      "# conn_scaling: EVENT fan-out throughput vs connection count\n"
      "# extension: the delivery path behind the paper's Section 6.1 "
      "deployment\n"
      "# subscribers=%llu idle=%llu events=%llu batch=%llu\n"
      "# runner: %u hardware threads (mode %s)\n",
      static_cast<unsigned long long>(subscribers),
      static_cast<unsigned long long>(idle),
      static_cast<unsigned long long>(events),
      static_cast<unsigned long long>(batch), cores, mode);

  BenchReport report("conn_scaling");
  std::printf("\n%-14s %-14s %16s %12s %10s %10s\n", "subscribers",
              "connections", "deliveries/s", "events/s", "p50 ms", "p99 ms");

  for (const uint64_t extra_idle : {uint64_t{0}, idle}) {
    ServerOptions options;
    options.store_events = false;
    options.max_connections = subscribers + extra_idle + 16;
    PubSubServer server(options);
    VFPS_CHECK(server.Start().ok());
    std::thread server_thread([&server] { server.RunUntilStopped(); });

    {
      BenchConn publisher;
      VFPS_CHECK(publisher.Connect(server.port()));
      // Pace the connect storm: on a 1-core runner the server thread only
      // runs when this thread blocks, so an unpaced storm overruns the
      // listen backlog and every overflowing SYN eats a ~1s retransmit.
      // Blocking on an ack every few hundred connects keeps the in-flight
      // backlog bounded and lets the loop drain.
      constexpr size_t kConnectStride = 256;
      std::vector<BenchConn> subs(subscribers);
      std::vector<char> acked(subscribers, 0);
      for (size_t i = 0; i < subs.size(); ++i) {
        VFPS_CHECK(subs[i].Connect(server.port()));
        VFPS_CHECK(subs[i].WriteAll("SUB k = 1\n"));
        if (i % kConnectStride == kConnectStride - 1) {
          VFPS_CHECK(subs[i].AwaitLines(1, 30000));
          acked[i] = 1;
        }
      }
      for (size_t i = 0; i < subs.size(); ++i) {
        if (!acked[i]) VFPS_CHECK(subs[i].AwaitLines(1, 30000));
      }
      std::vector<BenchConn> idles(extra_idle);
      for (size_t i = 0; i < idles.size(); ++i) {
        VFPS_CHECK(idles[i].Connect(server.port()));
        if (i % kConnectStride == kConnectStride - 1) {
          VFPS_CHECK(publisher.WriteAll("PING\n"));
          VFPS_CHECK(publisher.AwaitLines(1, 30000));
        }
      }
      // One liveness ping proves the whole population is accepted before
      // the clock starts.
      VFPS_CHECK(publisher.WriteAll("PING\n"));
      VFPS_CHECK(publisher.AwaitLines(1, 10000));

      FanoutMeasurement m = MeasureFanout(&publisher, &subs, events, batch);
      const uint64_t connections = subscribers + extra_idle + 1;
      std::printf("%-14llu %-14llu %16.1f %12.1f %10.3f %10.3f\n",
                  static_cast<unsigned long long>(subscribers),
                  static_cast<unsigned long long>(connections),
                  m.deliveries_per_second, m.publish_events_per_second,
                  m.p50_round_ms, m.p99_round_ms);
      report.BeginRow();
      report.SetText("algorithm", "fanout");
      report.SetText("mode", mode);
      report.Set("n_subscriptions", static_cast<double>(subscribers));
      report.Set("n_connections", static_cast<double>(connections));
      report.Set("events_per_second", m.deliveries_per_second);
      report.Set("publish_events_per_second", m.publish_events_per_second);
      report.Set("p50_ms", m.p50_round_ms);
      report.Set("p99_ms", m.p99_round_ms);
    }  // close all client connections before stopping the server

    server.Stop();
    server_thread.join();
  }

  const std::string report_path = report.WriteJson();
  if (!report_path.empty()) {
    std::printf("\n# wrote %s\n", report_path.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace vfps::bench

int main(int argc, char** argv) { return vfps::bench::Run(argc, argv); }
