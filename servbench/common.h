// Copyright 2026 The vfps Authors.
// Small helpers shared by the served-path benchmark: a monotonic clock,
// a fine-grained latency histogram, exact quantiles, and the multiset
// fingerprint the delivery oracle compares.

#ifndef VFPS_SERVBENCH_COMMON_H_
#define VFPS_SERVBENCH_COMMON_H_

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

namespace servbench {

/// Nanoseconds on the steady clock.
int64_t NowNs();

/// Log-linear histogram of non-negative nanosecond samples with 128
/// sub-buckets per power of two: a reported quantile is within 0.8% of
/// the true order statistic. Used where samples are too many to keep
/// (deliveries); the metrics it feeds have bounds of 10% and more.
class LatencyHistogram {
 public:
  void Record(int64_t ns);
  uint64_t count() const { return count_; }
  /// Value (ns) at quantile q in [0, 1]; the midpoint of its bucket.
  double Quantile(double q) const;

 private:
  static constexpr int kSubBits = 7;
  static constexpr int kSub = 1 << kSubBits;
  static size_t IndexFor(uint64_t v);
  static double Midpoint(size_t index);
  std::array<uint64_t, (64 - kSubBits + 1) * kSub> buckets_{};
  uint64_t count_ = 0;
};

/// Exact quantile q of `values` (sorted copy, linear interpolation);
/// 0 for an empty vector.
double Quantile(std::vector<double> values, double q);

/// Per-member hash for the order-independent multiset fingerprint
/// (count, sum of hashes) the oracle compares deliveries with: a missing,
/// extra or duplicated delivery changes the sum unless two 64-bit hashes
/// collide.
inline uint64_t MemberHash(uint64_t member) {
  uint64_t z = member + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// One reported figure.
struct Metric {
  std::string name;
  double value;
  const char* unit;
};

/// Appends `"name":value` (with a leading comma unless first) to a JSON
/// object under construction. Values are printed with all their digits.
void AppendJsonNumber(std::string* out, const std::string& name,
                      double value);

}  // namespace servbench

#endif  // VFPS_SERVBENCH_COMMON_H_
