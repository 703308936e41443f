// Copyright 2026 The vfps Authors.

#include "src/cluster/kernels.h"

namespace vfps {

const ClusterKernels& KernelsForIsa(SimdIsa isa) {
  const ClusterKernels* table = nullptr;
  switch (isa) {
    case SimdIsa::kScalar:
      table = internal::GetScalarClusterKernels();
      break;
    case SimdIsa::kAvx2:
      table = internal::GetAvx2ClusterKernels();
      break;
    case SimdIsa::kNeon:
      table = internal::GetNeonClusterKernels();
      break;
  }
  return table != nullptr ? *table : *internal::GetScalarClusterKernels();
}

const ClusterKernels& ActiveClusterKernels() {
  return KernelsForIsa(ActiveSimdIsa());
}

}  // namespace vfps
