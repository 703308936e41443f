// Copyright 2026 The vfps Authors.

#include "src/telemetry/metrics.h"

#include <bit>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <utility>
#include <vector>

namespace vfps {

namespace {

/// Appends printf-formatted text to `out` (exports are built this way to
/// avoid ostream locale surprises).
void Appendf(std::string* out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));
void Appendf(std::string* out, const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  const int n = std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  if (n > 0) out->append(buf, static_cast<size_t>(n) < sizeof(buf)
                                  ? static_cast<size_t>(n)
                                  : sizeof(buf) - 1);
}

}  // namespace

int Histogram::IndexFor(uint64_t v) {
  // Values below two octaves of sub-buckets are stored exactly.
  if (v < static_cast<uint64_t>(2 * kSubBuckets)) return static_cast<int>(v);
  const int msb = 63 - std::countl_zero(v);
  const int shift = msb - kSubBucketBits;
  const int sub = static_cast<int>((v >> shift) & (kSubBuckets - 1));
  return (msb - kSubBucketBits + 1) * kSubBuckets + sub;
}

uint64_t Histogram::BucketUpperBound(int index) {
  if (index < 2 * kSubBuckets) return static_cast<uint64_t>(index);
  const int octave = index / kSubBuckets;
  const int sub = index % kSubBuckets;
  const uint64_t width = uint64_t{1} << (octave - 1);
  const uint64_t lower = static_cast<uint64_t>(kSubBuckets + sub)
                         << (octave - 1);
  return lower + width - 1;
}

uint64_t Histogram::ValueAtPercentile(double p) const {
  const uint64_t n = count();
  if (n == 0) return 0;
  if (p <= 0) p = 0;
  if (p >= 100) return max();
  uint64_t target =
      static_cast<uint64_t>(p / 100.0 * static_cast<double>(n) + 0.5);
  if (target == 0) target = 1;
  if (target > n) target = n;
  uint64_t cumulative = 0;
  for (int i = 0; i < kBucketCount; ++i) {
    // sync-relaxed-ok: point-in-time bucket snapshot; exporters accept
    // cross-cell skew by design (metrics.h design rules).
    cumulative += buckets_[i].load(std::memory_order_relaxed);
    if (cumulative >= target) {
      const uint64_t upper = BucketUpperBound(i);
      const uint64_t observed_max = max();
      return upper < observed_max ? upper : observed_max;
    }
  }
  return max();
}

Counter* MetricsRegistry::GetCounter(std::string_view name) {
  WriterLock lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return it->second.get();
}

Histogram* MetricsRegistry::GetHistogram(std::string_view name) {
  WriterLock lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), std::make_unique<Histogram>())
             .first;
  }
  return it->second.get();
}

void MetricsRegistry::RegisterGauge(std::string_view name,
                                    std::function<int64_t()> fn) {
  WriterLock lock(mu_);
  gauges_[std::string(name)] = std::move(fn);
}

int64_t MetricsRegistry::GaugeValue(std::string_view name) const {
  std::function<int64_t()> fn;
  {
    ReaderLock lock(mu_);
    auto it = gauges_.find(name);
    if (it == gauges_.end()) return 0;
    fn = it->second;
  }
  // Sampled outside the lock: gauge callbacks may touch structures that in
  // turn export metrics.
  return fn();
}

HistogramSnapshot MetricsRegistry::Snapshot(std::string_view name) const {
  const Histogram* h = nullptr;
  {
    ReaderLock lock(mu_);
    auto it = histograms_.find(name);
    if (it == histograms_.end()) return {};
    h = it->second.get();
  }
  HistogramSnapshot snap;
  snap.count = h->count();
  snap.sum = h->sum();
  snap.mean = h->mean();
  snap.p50 = h->ValueAtPercentile(50);
  snap.p90 = h->ValueAtPercentile(90);
  snap.p99 = h->ValueAtPercentile(99);
  snap.max = h->max();
  return snap;
}

std::string MetricsRegistry::ExportPrometheus() const {
  // Copy the name -> instrument view under the lock, render outside it
  // (gauge callbacks must run unlocked).
  std::vector<std::pair<std::string, const Counter*>> counters;
  std::vector<std::pair<std::string, const Histogram*>> histograms;
  std::vector<std::pair<std::string, std::function<int64_t()>>> gauges;
  {
    ReaderLock lock(mu_);
    for (const auto& [name, c] : counters_) {
      counters.emplace_back(name, c.get());
    }
    for (const auto& [name, h] : histograms_) {
      histograms.emplace_back(name, h.get());
    }
    for (const auto& [name, fn] : gauges_) gauges.emplace_back(name, fn);
  }

  std::string out;
  for (const auto& [name, c] : counters) {
    Appendf(&out, "# TYPE %s counter\n", name.c_str());
    Appendf(&out, "%s %" PRIu64 "\n", name.c_str(), c->value());
  }
  for (const auto& [name, fn] : gauges) {
    Appendf(&out, "# TYPE %s gauge\n", name.c_str());
    Appendf(&out, "%s %lld\n", name.c_str(),
            static_cast<long long>(fn()));
  }
  for (const auto& [name, h] : histograms) {
    Appendf(&out, "# TYPE %s summary\n", name.c_str());
    Appendf(&out, "%s{quantile=\"0.5\"} %" PRIu64 "\n", name.c_str(),
            h->ValueAtPercentile(50));
    Appendf(&out, "%s{quantile=\"0.9\"} %" PRIu64 "\n", name.c_str(),
            h->ValueAtPercentile(90));
    Appendf(&out, "%s{quantile=\"0.99\"} %" PRIu64 "\n", name.c_str(),
            h->ValueAtPercentile(99));
    Appendf(&out, "%s{quantile=\"1\"} %" PRIu64 "\n", name.c_str(), h->max());
    Appendf(&out, "%s_sum %" PRIu64 "\n", name.c_str(), h->sum());
    Appendf(&out, "%s_count %" PRIu64 "\n", name.c_str(), h->count());
  }
  return out;
}

std::string MetricsRegistry::ExportJson() const {
  std::vector<std::pair<std::string, const Counter*>> counters;
  std::vector<std::pair<std::string, const Histogram*>> histograms;
  std::vector<std::pair<std::string, std::function<int64_t()>>> gauges;
  {
    ReaderLock lock(mu_);
    for (const auto& [name, c] : counters_) {
      counters.emplace_back(name, c.get());
    }
    for (const auto& [name, h] : histograms_) {
      histograms.emplace_back(name, h.get());
    }
    for (const auto& [name, fn] : gauges_) gauges.emplace_back(name, fn);
  }

  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, c] : counters) {
    Appendf(&out, "%s\"%s\":%" PRIu64, first ? "" : ",", name.c_str(),
            c->value());
    first = false;
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, fn] : gauges) {
    Appendf(&out, "%s\"%s\":%lld", first ? "" : ",", name.c_str(),
            static_cast<long long>(fn()));
    first = false;
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms) {
    Appendf(&out,
            "%s\"%s\":{\"count\":%" PRIu64 ",\"sum\":%" PRIu64
            ",\"mean\":%.1f,\"p50\":%" PRIu64 ",\"p90\":%" PRIu64
            ",\"p99\":%" PRIu64 ",\"max\":%" PRIu64 "}",
            first ? "" : ",", name.c_str(), h->count(), h->sum(), h->mean(),
            h->ValueAtPercentile(50), h->ValueAtPercentile(90),
            h->ValueAtPercentile(99), h->max());
    first = false;
  }
  out += "}}";
  return out;
}

}  // namespace vfps
