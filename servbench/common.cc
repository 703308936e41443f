// Copyright 2026 The vfps Authors.

#include "servbench/common.h"

#include <chrono>
#include <cstdio>

namespace servbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

size_t LatencyHistogram::IndexFor(uint64_t v) {
  if (v < kSub) return static_cast<size_t>(v);
  const int msb = 63 - std::countl_zero(v);
  const int shift = msb - kSubBits;
  const uint64_t sub = (v >> shift) & (kSub - 1);
  return static_cast<size_t>(shift + 1) * kSub + sub;
}

double LatencyHistogram::Midpoint(size_t index) {
  if (index < kSub) return static_cast<double>(index);
  const int shift = static_cast<int>(index / kSub) - 1;
  const uint64_t sub = index % kSub;
  const double lo = std::ldexp(static_cast<double>(kSub + sub), shift);
  return lo + std::ldexp(0.5, shift);
}

void LatencyHistogram::Record(int64_t ns) {
  ++buckets_[IndexFor(ns < 0 ? 0 : static_cast<uint64_t>(ns))];
  ++count_;
}

double LatencyHistogram::Quantile(double q) const {
  if (count_ == 0) return 0;
  const uint64_t rank = std::min<uint64_t>(
      count_ - 1, static_cast<uint64_t>(q * static_cast<double>(count_)));
  uint64_t seen = 0;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    seen += buckets_[i];
    if (seen > rank) return Midpoint(i);
  }
  return Midpoint(buckets_.size() - 1);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

void AppendJsonNumber(std::string* out, const std::string& name,
                      double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(value) ? value : 0.0);
  if (out->back() != '{') out->push_back(',');
  *out += "\"" + name + "\":" + buf;
}

}  // namespace servbench
