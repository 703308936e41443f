// Copyright 2026 The vfps Authors.
// The wire half of the benchmark: launches the built vfps_server as a
// child process and drives it from one epoll thread over loopback TCP,
// checking every delivery against the workload's oracle.

#ifndef VFPS_SERVBENCH_WIRE_H_
#define VFPS_SERVBENCH_WIRE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "servbench/common.h"
#include "servbench/inputs.h"

namespace servbench {

struct WireOptions {
  std::string server_path;
  /// Measured time, split evenly over the run's server instances.
  double seconds = 10;
  /// Scrape METRICS JSON before and after the measured window and record
  /// request spans.
  bool traced = false;
};

/// One recorded span (times in ns on the steady clock). `parent` is 0 for
/// a root; `request` groups the spans of one request.
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t request = 0;
  const char* name = "";
  int64_t start = 0;
  int64_t end = 0;
};

/// One 1-second slice of the measured window. The end-to-end metrics are
/// medians over slices, so a transient stall of the shared host moves one
/// slice rather than the run's figure. Completions count in the slice they
/// arrive in; latencies in the slice their request was sent (or due) in.
struct WindowSlice {
  uint64_t events_acked = 0;
  uint64_t deliveries = 0;
  std::vector<double> ack_ms;
  std::vector<double> churn_ms;
  LatencyHistogram delivery_ns;
};

struct WireResult {
  std::vector<double> setup_s;
  /// Summed over the measured windows.
  double window_s = 0;
  std::vector<WindowSlice> slices;
  double slice_s = 0;
  /// Generator lateness of scheduled sends (open-loop publishes, churn
  /// steps) in the window.
  std::vector<double> late_ms;
  /// Correctness over the whole run (set-up, warm-up, window, drain).
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Sampled deliveries whose EVENT text was compared with the sent event.
  uint64_t text_checked = 0;
  uint64_t text_mismatched = 0;
  /// Per measured server: RSS at the end minus RSS after set-up, and
  /// peak RSS (VmHWM).
  std::vector<double> rss_growth_mb;
  std::vector<double> rss_peak_mb;
  /// Generator CPU share, and server CPU seconds, over the window.
  double cpu_util = 0;
  double server_cpu_s = 0;
  int64_t kernel_isa = -1;
  /// Traced: METRICS JSON bodies before and after each measured window.
  std::vector<std::pair<std::string, std::string>> metrics;
  std::vector<Span> spans;
};

/// Whole-window sums over the slices.
struct WireTotals {
  uint64_t events_acked = 0;
  uint64_t deliveries = 0;
  uint64_t delivery_samples = 0;
  size_t churn_samples = 0;
  std::vector<double> ack_ms;
};
WireTotals Totals(const WireResult& result);

/// The run's end-to-end figures: set-up median, whole-window rates, server
/// CPU per event and peak RSS, and latency quantiles taken per slice with
/// the median over slices reported.
std::vector<Metric> WireMetrics(const WireResult& result);

/// Sets a fresh server up kSetups times, each followed by warm-up, a
/// measured window of seconds / kSetups and a drain: a run averages over
/// several server instances, whose speed on a shared host varies from one
/// to the next, and reports the median set-up time. Returns false (with a message
/// on stderr) if the server cannot be started or stops answering.
bool RunWire(Workload* workload, const WireOptions& options,
             WireResult* result);

}  // namespace servbench

#endif  // VFPS_SERVBENCH_WIRE_H_
