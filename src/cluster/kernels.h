// Copyright 2026 The vfps Authors.
// Runtime-dispatched cluster scan kernels. Each SIMD ISA (src/util/simd.h)
// contributes one translation unit exporting a ClusterKernels table of
// function pointers; Cluster::Match / Cluster::MatchBatch resolve the table
// for the active ISA per call. The scalar table (kernels_scalar.cc) is the
// paper-faithful reference implementation (Section 2.2) every vector
// variant is differentially verified against (tools/vfps_verify --simd,
// tests/simd_kernel_test.cc). See docs/KERNELS.md.

#ifndef VFPS_CLUSTER_KERNELS_H_
#define VFPS_CLUSTER_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/core/batch_result.h"
#include "src/core/batch_result_vector.h"
#include "src/core/types.h"
#include "src/util/simd.h"

namespace vfps {

/// Largest size with a fully unrolled specialized per-event kernel. The
/// paper's implementation specializes "ten or fewer" predicates; bigger
/// clusters take the generic runtime-column-loop kernel.
inline constexpr uint32_t kMaxSpecializedSize = 10;

/// One ISA's pair of phase-2 scan entry points. `cols` holds `n` per-column
/// base pointers into the cluster's columnar storage; rows [0, count) of
/// every column are valid. Kernels must emit matches in ascending row order
/// (the scalar reference does, and the differential harness compares
/// ordered output).
///
/// The per-event kernel's `rv` buffer must stay readable for
/// kSimdGatherSlack bytes past the last addressable cell (ResultVector pads
/// automatically; raw-buffer callers over-allocate).
struct ClusterKernels {
  SimdIsa isa;

  /// Per-event scan: appends ids[j] for every row j whose n cells are all
  /// nonzero in rv.
  void (*match)(uint32_t n, const uint8_t* rv, const PredicateId* const* cols,
                const SubscriptionId* ids, size_t count, bool use_prefetch,
                std::vector<SubscriptionId>* out);

  /// Batched scan: tests every row against all batch lanes at once. A row
  /// matches lane e iff bit e survives ANDing `alive` with the row's column
  /// stripes from `block`; matches land in out lane `lane_base + e`.
  void (*match_batch)(const BatchResultVector& block, const uint64_t* alive,
                      const PredicateId* const* cols, size_t n,
                      const SubscriptionId* ids, size_t count,
                      size_t lane_base, bool use_prefetch, BatchResult* out);
};

/// The kernel table for `isa`, falling back to scalar when this build did
/// not compile that ISA's translation unit (e.g. the AVX2 TU on non-x86).
const ClusterKernels& KernelsForIsa(SimdIsa isa);

/// The table matching ActiveSimdIsa(). Resolved per Cluster::Match call —
/// one relaxed atomic load and a switch, negligible next to a cluster scan.
const ClusterKernels& ActiveClusterKernels();

namespace internal {

/// Per-TU table accessors. A TU whose ISA the build cannot express returns
/// nullptr and KernelsForIsa falls back to scalar. GetScalarClusterKernels
/// never returns nullptr.
const ClusterKernels* GetScalarClusterKernels();
const ClusterKernels* GetAvx2ClusterKernels();
const ClusterKernels* GetNeonClusterKernels();

}  // namespace internal

}  // namespace vfps

#endif  // VFPS_CLUSTER_KERNELS_H_
