// Copyright 2026 The vfps Authors.
// The scalar (portable reference) cluster kernels, moved verbatim from the
// original cluster.cc: the paper's Section 2.2 scan, specialized per size
// N with UNFOLD-wide unrolled stripes and prefetch at stripe boundaries.
// Every vector variant (kernels_avx2/neon.cc) is differentially
// verified against this table.

#include <algorithm>
#include <bit>

#include "src/cluster/cluster.h"
#include "src/cluster/kernels.h"
#include "src/util/prefetch.h"

namespace vfps {
namespace {

/// Tests row `j`: true iff all N column cells are set. Short-circuits in
/// column order, so columns are laid out equality-first by the matchers.
template <int N>
inline bool RowMatches(const uint8_t* rv, const PredicateId* const* cols,
                       size_t j) {
  if constexpr (N == 0) {
    return true;
  } else {
    return rv[cols[0][j]] != 0 && RowMatches<N - 1>(rv, cols + 1, j);
  }
}

/// Issues prefetches for the stripe LOOKAHEAD entries ahead of `j`, for the
/// first min(N, kMaxPrefetchColumns) columns. Prefetching past the end of a
/// column is harmless (advisory instruction, never faults).
template <int N>
inline void PrefetchStripe(const PredicateId* const* cols, size_t j) {
  constexpr size_t kCols =
      static_cast<size_t>(N) < kMaxPrefetchColumns ? static_cast<size_t>(N)
                                                   : kMaxPrefetchColumns;
  for (size_t c = 0; c < kCols; ++c) {
    PrefetchRead(cols[c] + j + kClusterLookahead);
  }
}

/// The cluster matching kernel of Section 2.2, specialized per size N and
/// per prefetch mode: an outer loop over UNFOLD-wide stripes with prefetch
/// instructions at stripe boundaries, plus a remainder loop (footnote 2).
template <int N, bool kPrefetch>
void MatchKernel(const uint8_t* rv, const PredicateId* const* cols,
                 const SubscriptionId* ids, size_t count,
                 std::vector<SubscriptionId>* out) {
  size_t j = 0;
  const size_t full = count - count % kClusterUnfold;
  for (; j < full; j += kClusterUnfold) {
    for (size_t k = j; k < j + kClusterUnfold; ++k) {
      if (RowMatches<N>(rv, cols, k)) out->push_back(ids[k]);
    }
    if constexpr (kPrefetch) PrefetchStripe<N>(cols, j);
  }
  for (; j < count; ++j) {
    if (RowMatches<N>(rv, cols, j)) out->push_back(ids[j]);
  }
}

/// Generic kernel for subscriptions with more than kMaxSpecializedSize
/// predicates: the column loop is a runtime loop ("A generic method is more
/// time consuming because it needs an additional loop", Section 2.2).
template <bool kPrefetch>
void GenericMatchKernel(const uint8_t* rv, const PredicateId* const* cols,
                        size_t n, const SubscriptionId* ids, size_t count,
                        std::vector<SubscriptionId>* out) {
  const size_t prefetch_cols = std::min(n, kMaxPrefetchColumns);
  size_t j = 0;
  const size_t full = count - count % kClusterUnfold;
  for (; j < full; j += kClusterUnfold) {
    for (size_t k = j; k < j + kClusterUnfold; ++k) {
      bool ok = true;
      for (size_t c = 0; c < n && ok; ++c) ok = rv[cols[c][k]] != 0;
      if (ok) out->push_back(ids[k]);
    }
    if constexpr (kPrefetch) {
      for (size_t c = 0; c < prefetch_cols; ++c) {
        PrefetchRead(cols[c] + j + kClusterLookahead);
      }
    }
  }
  for (; j < count; ++j) {
    bool ok = true;
    for (size_t c = 0; c < n && ok; ++c) ok = rv[cols[c][j]] != 0;
    if (ok) out->push_back(ids[j]);
  }
}

/// Tests one row against all batch lanes at once: starts from the alive
/// mask and ANDs in each column's lane stripe, short-circuiting the column
/// loop as soon as no lane survives (the batch generalization of
/// RowMatches' equality-first short circuit). Surviving bits are the lanes
/// this row matches. W is the stripe width in 64-bit words.
template <size_t W>
inline void TestBatchRow(const BatchResultVector& block,
                         const uint64_t* alive,
                         const PredicateId* const* cols, size_t n,
                         SubscriptionId id, size_t j, size_t lane_base,
                         BatchResult* out) {
  uint64_t m[W];
  for (size_t w = 0; w < W; ++w) m[w] = alive[w];
  for (size_t c = 0; c < n; ++c) {
    const uint64_t* stripe = block.stripe(cols[c][j]);
    uint64_t any = 0;
    for (size_t w = 0; w < W; ++w) {
      m[w] &= stripe[w];
      any |= m[w];
    }
    if (any == 0) return;
  }
  for (size_t w = 0; w < W; ++w) {
    uint64_t bits = m[w];
    while (bits != 0) {
      const size_t lane = w * 64 + static_cast<size_t>(std::countr_zero(bits));
      out->Append(lane_base + lane, id);
      bits &= bits - 1;
    }
  }
}

/// The batched cluster kernel: one pass over the columns serves every lane
/// of the batch. Keeps the per-event kernel's UNFOLD stripes and prefetch
/// cadence (the column layout and lookahead are identical); the column
/// loop is a runtime loop since the stripe ANDing already amortizes the
/// loop overhead across up to 256 lanes.
template <size_t W, bool kPrefetch>
void BatchMatchKernel(const BatchResultVector& block, const uint64_t* alive,
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

template <bool kPrefetch>
void BatchDispatch(const BatchResultVector& block, const uint64_t* alive,
                   const PredicateId* const* cols, size_t n,
                   const SubscriptionId* ids, size_t count, size_t lane_base,
                   BatchResult* out) {
  switch (block.words_per_lane()) {
    case 1:
      return BatchMatchKernel<1, kPrefetch>(block, alive, cols, n, ids,
                                            count, lane_base, out);
    case 2:
      return BatchMatchKernel<2, kPrefetch>(block, alive, cols, n, ids,
                                            count, lane_base, out);
    case 3:
      return BatchMatchKernel<3, kPrefetch>(block, alive, cols, n, ids,
                                            count, lane_base, out);
    case 4:
      return BatchMatchKernel<4, kPrefetch>(block, alive, cols, n, ids,
                                            count, lane_base, out);
    default:
      VFPS_CHECK(false);  // BatchResultVector::kMaxLanes caps width at 4
  }
}

template <bool kPrefetch>
void Dispatch(uint32_t n, const uint8_t* rv, const PredicateId* const* cols,
              const SubscriptionId* ids, size_t count,
              std::vector<SubscriptionId>* out) {
  switch (n) {
    case 1:
      return MatchKernel<1, kPrefetch>(rv, cols, ids, count, out);
    case 2:
      return MatchKernel<2, kPrefetch>(rv, cols, ids, count, out);
    case 3:
      return MatchKernel<3, kPrefetch>(rv, cols, ids, count, out);
    case 4:
      return MatchKernel<4, kPrefetch>(rv, cols, ids, count, out);
    case 5:
      return MatchKernel<5, kPrefetch>(rv, cols, ids, count, out);
    case 6:
      return MatchKernel<6, kPrefetch>(rv, cols, ids, count, out);
    case 7:
      return MatchKernel<7, kPrefetch>(rv, cols, ids, count, out);
    case 8:
      return MatchKernel<8, kPrefetch>(rv, cols, ids, count, out);
    case 9:
      return MatchKernel<9, kPrefetch>(rv, cols, ids, count, out);
    case 10:
      return MatchKernel<10, kPrefetch>(rv, cols, ids, count, out);
    default:
      return GenericMatchKernel<kPrefetch>(rv, cols, n, ids, count, out);
  }
}

void ScalarMatch(uint32_t n, const uint8_t* rv,
                 const PredicateId* const* cols, const SubscriptionId* ids,
                 size_t count, bool use_prefetch,
                 std::vector<SubscriptionId>* out) {
  if (use_prefetch) {
    Dispatch<true>(n, rv, cols, ids, count, out);
  } else {
    Dispatch<false>(n, rv, cols, ids, count, out);
  }
}

void ScalarMatchBatch(const BatchResultVector& block, const uint64_t* alive,
                      const PredicateId* const* cols, size_t n,
                      const SubscriptionId* ids, size_t count,
                      size_t lane_base, bool use_prefetch, BatchResult* out) {
  if (use_prefetch) {
    BatchDispatch<true>(block, alive, cols, n, ids, count, lane_base, out);
  } else {
    BatchDispatch<false>(block, alive, cols, n, ids, count, lane_base, out);
  }
}

constexpr ClusterKernels kScalarKernels{SimdIsa::kScalar, &ScalarMatch,
                                        &ScalarMatchBatch};

}  // namespace

namespace internal {

const ClusterKernels* GetScalarClusterKernels() { return &kScalarKernels; }

}  // namespace internal

}  // namespace vfps
