// Copyright 2026 The vfps Authors.
// Runtime SIMD ISA selection for the hardware-conscious kernels
// (docs/KERNELS.md). The binary always carries every kernel variant its
// target architecture can express (the AVX2 translation unit is compiled
// with per-file arch flags, see src/CMakeLists.txt); which one runs is
// decided once at startup from cpuid/getauxval and can be overridden with
// the VFPS_SIMD environment variable (off|scalar|avx2|neon|auto) for
// testing and A/B ablations. The selection is process-global: concurrent
// readers only read the (atomic) active-ISA word.

#ifndef VFPS_UTIL_SIMD_H_
#define VFPS_UTIL_SIMD_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

namespace vfps {

/// Instruction sets the kernels are specialized for, in dispatch-preference
/// order within one architecture (higher enum value = wider/faster).
/// kScalar is the portable reference implementation every other variant is
/// differentially verified against. The numeric values are exported by the
/// vfps_kernel_isa gauge and stay fixed (1 is unused).
enum class SimdIsa : int {
  kScalar = 0,
  kAvx2 = 2,   // 256-bit stripe ops, 8-lane result-vector gathers
  kNeon = 3,   // AArch64 baseline: 128-bit stripe ops, SWAR row groups
};

/// Readable bytes callers must provide past the last addressable cell of a
/// result-vector buffer handed to the cluster kernels: the AVX2 per-event
/// kernel gathers 32-bit words at byte offsets, so testing the final cell
/// reads up to 3 bytes beyond it. ResultVector pads automatically; tests
/// and benches building raw buffers must over-allocate by this much.
inline constexpr size_t kSimdGatherSlack = 3;

/// Short lowercase name ("scalar", "avx2", "neon").
const char* SimdIsaName(SimdIsa isa);

/// Parses a VFPS_SIMD-style mode string. "off", "scalar", and "none" all
/// mean kScalar; "auto" and "" mean "use the detected best" and return
/// nullopt, as does any unknown string (callers distinguish via the raw
/// text when they need to reject typos).
std::optional<SimdIsa> ParseSimdIsa(std::string_view mode);

/// The widest ISA this build AND this machine support, probed once (cpuid
/// via __builtin_cpu_supports on x86; NEON is architectural on AArch64).
SimdIsa DetectedSimdIsa();

/// Every ISA usable on this machine, narrowest first (always starts with
/// kScalar). The differential sweeps iterate this.
std::vector<SimdIsa> SupportedSimdIsas();

/// The ISA the kernels currently dispatch to. Initialized on first use from
/// DetectedSimdIsa(), narrowed by VFPS_SIMD if set (an unsupported or
/// unknown VFPS_SIMD value warns once on stderr and is ignored).
SimdIsa ActiveSimdIsa();

/// Forces the active ISA (tests, vfps_verify --simd, bench ablations).
/// Returns false — and changes nothing — if `isa` is not supported on this
/// machine/build. Not synchronized with in-flight Match calls; switch only
/// between matching episodes.
bool SetActiveSimdIsa(SimdIsa isa);

namespace simd {

/// dst[w] |= src[w] for w < words, through the active ISA's widest ops
/// (one 256-bit op on AVX2 for the batch pipeline's 4-word stripes).
/// Buffers need no alignment and must not alias.
void OrWords(uint64_t* dst, const uint64_t* src, size_t words);

/// words[0..count) = 0, through the active ISA's widest stores.
void ZeroWords(uint64_t* words, size_t count);

}  // namespace simd

}  // namespace vfps

#endif  // VFPS_UTIL_SIMD_H_
