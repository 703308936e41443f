// Copyright 2026 The vfps Authors.
// Shared skeleton for the vector cluster kernels. Each per-ISA translation
// unit (kernels_avx2/neon.cc) instantiates VectorKernels<Ops> with its
// own Ops policy *inside that TU*, so the instantiation is compiled with
// the TU's arch flags. The skeleton keeps the scalar kernels' structure —
// UNFOLD-wide stripes, prefetch at stripe boundaries, ascending-row output
// order — and delegates only the data-parallel inner steps to Ops:
//
//   // Survivor mask for rows [j, j+8): bit i set iff all n cells of row
//   // j+i are nonzero in rv. May read up to kSimdGatherSlack bytes past
//   // the last rv cell addressed (the gather over-read contract).
//   static uint32_t MatchRows8(const uint8_t* rv,
//                              const PredicateId* const* cols, size_t n,
//                              size_t j);
//
//   // ANDs row j's n column stripes into the alive mask, keeping the
//   // running mask in vector registers across the column loop (spilling
//   // it per column costs more than the wide ANDs save). Returns false on
//   // early death (m is then unspecified); on true, m holds the W
//   // surviving lane words.
//   template <size_t W>
//   static bool RowSurvives(const BatchResultVector& block,
//                           const uint64_t* alive,
//                           const PredicateId* const* cols, size_t n,
//                           size_t j, uint64_t* m);

#ifndef VFPS_CLUSTER_KERNELS_VECTOR_H_
#define VFPS_CLUSTER_KERNELS_VECTOR_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/cluster/kernels.h"
#include "src/util/prefetch.h"

namespace vfps {
namespace vector_kernels {

template <typename Ops>
struct VectorKernels {
  static_assert(kClusterUnfold % 8 == 0,
                "stripe width must be a whole number of 8-row groups");

  /// Per-event scan: 8-row vector groups inside UNFOLD stripes, scalar
  /// remainder for the last count % 8 rows.
  template <bool kPrefetch>
  static void Match(uint32_t n, const uint8_t* rv,
                    const PredicateId* const* cols, const SubscriptionId* ids,
                    size_t count, std::vector<SubscriptionId>* out) {
    const size_t prefetch_cols =
        std::min(static_cast<size_t>(n), kMaxPrefetchColumns);
    size_t j = 0;
    const size_t full = count - count % kClusterUnfold;
    for (; j < full; j += kClusterUnfold) {
      for (size_t g = j; g < j + kClusterUnfold; g += 8) {
        EmitGroup(rv, cols, n, g, ids, out);
      }
      if constexpr (kPrefetch) {
        for (size_t c = 0; c < prefetch_cols; ++c) {
          PrefetchRead(cols[c] + j + kClusterLookahead);
        }
      }
    }
    for (; j + 8 <= count; j += 8) {
      EmitGroup(rv, cols, n, j, ids, out);
    }
    for (; j < count; ++j) {
      bool ok = true;
      for (size_t c = 0; c < n && ok; ++c) ok = rv[cols[c][j]] != 0;
      if (ok) out->push_back(ids[j]);
    }
  }

  /// Batched scan: identical loop structure to the scalar BatchMatchKernel,
  /// with the per-column stripe AND + any-test routed through Ops.
  template <size_t W, bool kPrefetch>
  static void MatchBatchW(const BatchResultVector& block,
                          const uint64_t* alive,
                          const PredicateId* const* cols, size_t n,
                          const SubscriptionId* ids, size_t count,
                          size_t lane_base, BatchResult* out) {
    const size_t prefetch_cols = std::min(n, kMaxPrefetchColumns);
    size_t j = 0;
    const size_t full = count - count % kClusterUnfold;
    for (; j < full; j += kClusterUnfold) {
      for (size_t k = j; k < j + kClusterUnfold; ++k) {
        TestBatchRow<W>(block, alive, cols, n, ids[k], k, lane_base, out);
      }
      if constexpr (kPrefetch) {
        for (size_t c = 0; c < prefetch_cols; ++c) {
          PrefetchRead(cols[c] + j + kClusterLookahead);
        }
      }
    }
    for (; j < count; ++j) {
      TestBatchRow<W>(block, alive, cols, n, ids[j], j, lane_base, out);
    }
  }

  /// ClusterKernels::match entry point.
  static void MatchEntry(uint32_t n, const uint8_t* rv,
                         const PredicateId* const* cols,
                         const SubscriptionId* ids, size_t count,
                         bool use_prefetch, std::vector<SubscriptionId>* out) {
    if (use_prefetch) {
      Match<true>(n, rv, cols, ids, count, out);
    } else {
      Match<false>(n, rv, cols, ids, count, out);
    }
  }

  /// ClusterKernels::match_batch entry point.
  static void MatchBatchEntry(const BatchResultVector& block,
                              const uint64_t* alive,
                              const PredicateId* const* cols, size_t n,
                              const SubscriptionId* ids, size_t count,
                              size_t lane_base, bool use_prefetch,
                              BatchResult* out) {
    if (use_prefetch) {
      BatchDispatch<true>(block, alive, cols, n, ids, count, lane_base, out);
    } else {
      BatchDispatch<false>(block, alive, cols, n, ids, count, lane_base, out);
    }
  }

 private:
  static void EmitGroup(const uint8_t* rv, const PredicateId* const* cols,
                        size_t n, size_t j, const SubscriptionId* ids,
                        std::vector<SubscriptionId>* out) {
    uint32_t mask = Ops::MatchRows8(rv, cols, n, j);
    while (mask != 0) {
      const size_t k = j + static_cast<size_t>(std::countr_zero(mask));
      out->push_back(ids[k]);
      mask &= mask - 1;
    }
  }

  template <size_t W>
  static inline void TestBatchRow(const BatchResultVector& block,
                                  const uint64_t* alive,
                                  const PredicateId* const* cols, size_t n,
                                  SubscriptionId id, size_t j,
                                  size_t lane_base, BatchResult* out) {
    uint64_t m[W];
    if (!Ops::template RowSurvives<W>(block, alive, cols, n, j, m)) return;
    for (size_t w = 0; w < W; ++w) {
      uint64_t bits = m[w];
      while (bits != 0) {
        const size_t lane =
            w * 64 + static_cast<size_t>(std::countr_zero(bits));
        out->Append(lane_base + lane, id);
        bits &= bits - 1;
      }
    }
  }

  template <bool kPrefetch>
  static void BatchDispatch(const BatchResultVector& block,
                            const uint64_t* alive,
                            const PredicateId* const* cols, size_t n,
                            const SubscriptionId* ids, size_t count,
                            size_t lane_base, BatchResult* out) {
    switch (block.words_per_lane()) {
      case 1:
        return MatchBatchW<1, kPrefetch>(block, alive, cols, n, ids, count,
                                         lane_base, out);
      case 2:
        return MatchBatchW<2, kPrefetch>(block, alive, cols, n, ids, count,
                                         lane_base, out);
      case 3:
        return MatchBatchW<3, kPrefetch>(block, alive, cols, n, ids, count,
                                         lane_base, out);
      case 4:
        return MatchBatchW<4, kPrefetch>(block, alive, cols, n, ids, count,
                                         lane_base, out);
      default:
        VFPS_CHECK(false);  // BatchResultVector::kMaxLanes caps width at 4
    }
  }
};

}  // namespace vector_kernels
}  // namespace vfps

#endif  // VFPS_CLUSTER_KERNELS_VECTOR_H_
