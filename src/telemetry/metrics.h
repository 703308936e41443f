// Copyright 2026 The vfps Authors.
// Telemetry subsystem: lock-free-on-the-hot-path counters, log-bucketed
// latency histograms, a registry that names and exports them, and a scoped
// timer built on src/util/timer.h.
//
// Design rules:
//   * Recording (Counter::Inc, Histogram::Record) is wait-free — relaxed
//     atomic adds, no locks, no allocation — so instruments can sit on the
//     match path and be hammered from every reader thread at once.
//   * Instrument lookup (MetricsRegistry::GetCounter / GetHistogram) takes
//     a mutex and may allocate; callers resolve instruments once at attach
//     time and cache the pointer. Returned pointers are stable for the
//     registry's lifetime.
//   * Exporting walks the same atomics; a snapshot taken while writers are
//     active is a consistent-enough point-in-time view (each instrument is
//     internally monotone, but cross-instrument skew is possible).
//
// The VFPS_TELEMETRY compile-time gate (CMake option, ON by default) does
// NOT remove this library — exporters, the METRICS verb, and server/broker
// accounting always work. It only compiles out the per-event recording in
// the matcher hot loops (see RecordEventTelemetry call sites), so the
// VFPS_TELEMETRY=OFF build leaves the Figure 2 kernels untouched.

#ifndef VFPS_TELEMETRY_METRICS_H_
#define VFPS_TELEMETRY_METRICS_H_

#ifndef VFPS_TELEMETRY
#define VFPS_TELEMETRY 1
#endif

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>

#include "src/util/sync.h"
#include "src/util/timer.h"

namespace vfps {

/// A monotonically increasing counter. Increments are relaxed atomic adds;
/// reads are racy-but-atomic snapshots.
class Counter {
 public:
  void Inc(uint64_t n = 1) {
    // sync-relaxed-ok: independent monotone counter on the match hot path;
    // no other data is published through it.
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t value() const {
    // sync-relaxed-ok: racy-but-atomic snapshot is the documented contract.
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<uint64_t> value_{0};
};

/// A log-bucketed histogram of non-negative 64-bit samples (latencies in
/// nanoseconds, sizes, ...). Buckets are log-linear: 8 sub-buckets per
/// power of two, so any reported quantile overestimates the true sample by
/// at most one bucket width — a relative error bound of 1/8 = 12.5%
/// (values below 16 are bucketed exactly). Recording touches a handful of
/// relaxed atomics.
class Histogram {
 public:
  static constexpr int kSubBucketBits = 3;
  static constexpr int kSubBuckets = 1 << kSubBucketBits;  // 8 per octave
  static constexpr int kBucketCount = (65 - kSubBucketBits) * kSubBuckets;

  /// Records one sample. Negative values clamp to 0.
  void Record(int64_t value) {
    const uint64_t v = value < 0 ? 0 : static_cast<uint64_t>(value);
    // Wait-free hot-path recording; exporters accept cross-cell skew.
    // sync-relaxed-ok: independent monotone accumulator cell.
    buckets_[IndexFor(v)].fetch_add(1, std::memory_order_relaxed);
    // sync-relaxed-ok: see above — independent monotone accumulator.
    count_.fetch_add(1, std::memory_order_relaxed);
    // sync-relaxed-ok: see above — independent monotone accumulator.
    sum_.fetch_add(v, std::memory_order_relaxed);
    // sync-relaxed-ok: monotone max via CAS; only the value itself matters.
    uint64_t cur = max_.load(std::memory_order_relaxed);
    while (v > cur &&
           // sync-relaxed-ok: monotone max CAS, no dependent data.
           !max_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }

  uint64_t count() const {
    // sync-relaxed-ok: racy-but-atomic snapshot is the documented contract.
    return count_.load(std::memory_order_relaxed);
  }
  uint64_t sum() const {
    // sync-relaxed-ok: racy-but-atomic snapshot is the documented contract.
    return sum_.load(std::memory_order_relaxed);
  }
  uint64_t max() const {
    // sync-relaxed-ok: racy-but-atomic snapshot is the documented contract.
    return max_.load(std::memory_order_relaxed);
  }
  double mean() const {
    const uint64_t n = count();
    return n == 0 ? 0.0 : static_cast<double>(sum()) / static_cast<double>(n);
  }

  /// Value at percentile `p` in [0, 100]: the inclusive upper bound of the
  /// bucket containing the p-th sample, i.e. an estimate within +12.5% of
  /// the true order statistic (exact for samples < 16). 0 when empty.
  uint64_t ValueAtPercentile(double p) const;

  /// Maps a sample to its bucket index (exposed for tests).
  static int IndexFor(uint64_t v);
  /// Inclusive upper bound of the values mapping to `index` (for tests and
  /// the exporters' bucket boundaries).
  static uint64_t BucketUpperBound(int index);

 private:
  std::atomic<uint64_t> buckets_[kBucketCount]{};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> max_{0};
};

/// Runs a Histogram-backed stopwatch for a scope: records the elapsed
/// nanoseconds on destruction. A null histogram makes it a no-op, so call
/// sites need no branching.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram* histogram) : histogram_(histogram) {}
  ~ScopedTimer() {
    if (histogram_ != nullptr) histogram_->Record(timer_.ElapsedNanos());
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Histogram* histogram_;
  Timer timer_;
};

/// Point-in-time summary of one histogram (what the exporters print).
struct HistogramSnapshot {
  uint64_t count = 0;
  uint64_t sum = 0;
  double mean = 0;
  uint64_t p50 = 0;
  uint64_t p90 = 0;
  uint64_t p99 = 0;
  uint64_t max = 0;
};

/// Owns named instruments and renders exports. Instrument names follow the
/// Prometheus convention documented in docs/OBSERVABILITY.md:
/// vfps_<component>_<what>[_total|_ns]. Gauges are callbacks sampled at
/// export time (live structural values such as connection counts); they
/// must outlive the registry's last export.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Finds or creates the counter `name`. The pointer stays valid for the
  /// registry's lifetime; cache it and increment lock-free.
  Counter* GetCounter(std::string_view name);

  /// Finds or creates the histogram `name`; same pointer stability.
  Histogram* GetHistogram(std::string_view name);

  /// Registers (or replaces) a gauge: a callback sampled at export time.
  void RegisterGauge(std::string_view name, std::function<int64_t()> fn);

  /// Samples one gauge now; 0 if no such gauge is registered.
  int64_t GaugeValue(std::string_view name) const;

  /// Snapshot of one histogram by name; zeroes if absent.
  HistogramSnapshot Snapshot(std::string_view name) const;

  /// Prometheus text exposition: "# TYPE" headers, counters and sampled
  /// gauges as plain series, histograms as <name>{quantile="..."} summary
  /// series plus _count/_sum. Lines are '\n'-terminated.
  std::string ExportPrometheus() const;

  /// Single-line JSON snapshot (no embedded newlines — safe for the wire
  /// protocol): {"counters":{...},"gauges":{...},"histograms":{...}}.
  std::string ExportJson() const;

 private:
  /// Reader/writer lock (LockRank::kTelemetry, the leaf of the hierarchy):
  /// instrument creation and gauge registration take it exclusively,
  /// lookups and the export snapshots take it shared. Gauge callbacks and
  /// all instrument arithmetic run with it released.
  mutable SharedMutex mu_{LockRank::kTelemetry, "metrics_registry"};
  // std::map keeps export order deterministic; unique_ptr keeps instrument
  // addresses stable across rehash-free inserts.
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_
      VFPS_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_
      VFPS_GUARDED_BY(mu_);
  std::map<std::string, std::function<int64_t()>, std::less<>> gauges_
      VFPS_GUARDED_BY(mu_);
};

}  // namespace vfps

#endif  // VFPS_TELEMETRY_METRICS_H_
