// Copyright 2026 The vfps Authors.
// Bounded enumeration of fixed-size attribute subsets, shared by the greedy
// optimizer's candidate discovery and the dynamic matcher's potential-table
// voting. Enumerating GA(S) exactly is exponential; both callers cap the
// work per subscription.

#ifndef VFPS_COST_SUBSET_ENUM_H_
#define VFPS_COST_SUBSET_ENUM_H_

#include <cstddef>
#include <vector>

#include "src/core/types.h"
#include "src/util/macros.h"

namespace vfps {

/// Enumerates the size-k subsets of the sorted id list `attrs` in
/// lexicographic order, invoking `fn(const std::vector<AttributeId>&)` on
/// each, stopping after `budget` subsets. Returns the number emitted.
template <typename Fn>
size_t EnumerateSubsets(const std::vector<AttributeId>& attrs, size_t k,
                        size_t budget, Fn&& fn) {
  if (k == 0 || k > attrs.size() || budget == 0) return 0;
  std::vector<size_t> idx(k);
  for (size_t i = 0; i < k; ++i) idx[i] = i;
  size_t emitted = 0;
  std::vector<AttributeId> subset(k);
  while (true) {
    for (size_t i = 0; i < k; ++i) subset[i] = attrs[idx[i]];
    fn(subset);
    if (++emitted >= budget) return emitted;
    // Advance the combination odometer; the rightmost index that can move
    // advances and everything after it resets.
    size_t i = k;
    bool done = true;
    while (i > 0) {
      --i;
      if (idx[i] != i + attrs.size() - k) {
        done = false;
        break;
      }
    }
    if (done) return emitted;
    ++idx[i];
    for (size_t j = i + 1; j < k; ++j) idx[j] = idx[j - 1] + 1;
  }
}

/// Enumerates the subsets of sizes [2, max_size] of `n` sorted items,
/// smaller sizes first and each size in lexicographic order, within a
/// total budget, invoking `fn(const size_t* positions, size_t k)` with the
/// ascending item positions of each. Allocation-free: max_size is at most
/// kMaxEnumeratedSubsetSize.
inline constexpr size_t kMaxEnumeratedSubsetSize = 8;
template <typename Fn>
void EnumerateMultiAttrSubsets(size_t n, size_t max_size, size_t budget,
                               Fn&& fn) {
  VFPS_CHECK(max_size <= kMaxEnumeratedSubsetSize);
  size_t pos[kMaxEnumeratedSubsetSize];
  for (size_t k = 2; k <= max_size && k <= n; ++k) {
    for (size_t i = 0; i < k; ++i) pos[i] = i;
    while (true) {
      if (budget == 0) return;
      --budget;
      fn(static_cast<const size_t*>(pos), k);
      // Advance the combination odometer (see EnumerateSubsets).
      size_t i = k;
      while (i > 0 && pos[i - 1] == i - 1 + n - k) --i;
      if (i == 0) break;
      ++pos[i - 1];
      for (size_t j = i; j < k; ++j) pos[j] = pos[j - 1] + 1;
    }
  }
}

}  // namespace vfps

#endif  // VFPS_COST_SUBSET_ENUM_H_
