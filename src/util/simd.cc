// Copyright 2026 The vfps Authors.

#include "src/util/simd.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define VFPS_SIMD_X86 1
#else
#define VFPS_SIMD_X86 0
#endif

#if defined(__aarch64__)
#define VFPS_SIMD_ARM 1
#else
#define VFPS_SIMD_ARM 0
#endif

namespace vfps {

namespace {

void OrWordsScalar(uint64_t* dst, const uint64_t* src, size_t words) {
  for (size_t w = 0; w < words; ++w) dst[w] |= src[w];
}

void ZeroWordsScalar(uint64_t* words, size_t count) {
  for (size_t w = 0; w < count; ++w) words[w] = 0;
}

#if VFPS_SIMD_X86

// The word helpers are tiny enough to live here under a per-function
// target attribute instead of a dedicated -mavx2 translation unit; the
// full kernels (src/cluster/kernels_avx2.cc) use per-file flags.
__attribute__((target("avx2"))) void OrWordsAvx2(uint64_t* dst,
                                                 const uint64_t* src,
                                                 size_t words) {
  size_t w = 0;
  for (; w + 4 <= words; w += 4) {
    const __m256i a =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + w));
    const __m256i b =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + w));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + w),
                        _mm256_or_si256(a, b));
  }
  for (; w < words; ++w) dst[w] |= src[w];
}

__attribute__((target("avx2"))) void ZeroWordsAvx2(uint64_t* words,
                                                   size_t count) {
  const __m256i zero = _mm256_setzero_si256();
  size_t w = 0;
  for (; w + 4 <= count; w += 4) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(words + w), zero);
  }
  for (; w < count; ++w) words[w] = 0;
}

#endif  // VFPS_SIMD_X86

using OrWordsFn = void (*)(uint64_t*, const uint64_t*, size_t);
using ZeroWordsFn = void (*)(uint64_t*, size_t);

std::atomic<OrWordsFn> g_or_words{&OrWordsScalar};
std::atomic<ZeroWordsFn> g_zero_words{&ZeroWordsScalar};

/// Installs the word-op implementations matching `isa`. NEON's 128-bit ops
/// on two 64-bit lanes compile to the same load/or/store sequence GCC
/// emits for the scalar loop, so AArch64 keeps the scalar helpers.
void InstallWordOps(SimdIsa isa) {
  OrWordsFn or_fn = &OrWordsScalar;
  ZeroWordsFn zero_fn = &ZeroWordsScalar;
#if VFPS_SIMD_X86
  if (isa == SimdIsa::kAvx2) {
    or_fn = &OrWordsAvx2;
    zero_fn = &ZeroWordsAvx2;
  }
#else
  (void)isa;
#endif
  // sync-relaxed-ok: fn-pointer dispatch — the pointed-to code is immutable
  // and every candidate is valid, so readers need no ordering with this
  // store (they get either the old or the new function, both correct).
  g_or_words.store(or_fn, std::memory_order_relaxed);
  // sync-relaxed-ok: same fn-pointer dispatch rationale as above.
  g_zero_words.store(zero_fn, std::memory_order_relaxed);
}

SimdIsa ProbeDetectedIsa() {
#if VFPS_SIMD_X86
#if defined(__GNUC__) || defined(__clang__)
  if (__builtin_cpu_supports("avx2")) return SimdIsa::kAvx2;
#endif
  return SimdIsa::kScalar;  // x86-64 without AVX2 runs the scalar kernels
#elif VFPS_SIMD_ARM
  return SimdIsa::kNeon;  // architectural baseline on AArch64
#else
  return SimdIsa::kScalar;
#endif
}

/// Resolves the startup ISA: the detected best, narrowed by VFPS_SIMD.
SimdIsa ResolveStartupIsa() {
  const SimdIsa detected = ProbeDetectedIsa();
  const char* env = std::getenv("VFPS_SIMD");
  if (env == nullptr || *env == '\0' || std::strcmp(env, "auto") == 0) {
    return detected;
  }
  const std::optional<SimdIsa> wanted = ParseSimdIsa(env);
  if (!wanted.has_value()) {
    std::fprintf(stderr,
                 "vfps: unknown VFPS_SIMD value '%s' ignored "
                 "(off|scalar|avx2|neon|auto); using %s\n",
                 env, SimdIsaName(detected));
    return detected;
  }
  for (SimdIsa isa : SupportedSimdIsas()) {
    if (isa == *wanted) return *wanted;
  }
  std::fprintf(stderr,
               "vfps: VFPS_SIMD=%s not supported on this machine/build; "
               "using %s\n",
               env, SimdIsaName(detected));
  return detected;
}

std::atomic<SimdIsa>& ActiveIsaStorage() {
  static std::atomic<SimdIsa> active{[] {
    const SimdIsa isa = ResolveStartupIsa();
    InstallWordOps(isa);
    return isa;
  }()};
  return active;
}

}  // namespace

const char* SimdIsaName(SimdIsa isa) {
  switch (isa) {
    case SimdIsa::kScalar:
      return "scalar";
    case SimdIsa::kAvx2:
      return "avx2";
    case SimdIsa::kNeon:
      return "neon";
  }
  return "?";
}

std::optional<SimdIsa> ParseSimdIsa(std::string_view mode) {
  if (mode == "off" || mode == "scalar" || mode == "none") {
    return SimdIsa::kScalar;
  }
  if (mode == "avx2") return SimdIsa::kAvx2;
  if (mode == "neon") return SimdIsa::kNeon;
  return std::nullopt;
}

SimdIsa DetectedSimdIsa() {
  static const SimdIsa detected = ProbeDetectedIsa();
  return detected;
}

std::vector<SimdIsa> SupportedSimdIsas() {
  std::vector<SimdIsa> isas{SimdIsa::kScalar};
#if VFPS_SIMD_X86
  if (DetectedSimdIsa() == SimdIsa::kAvx2) isas.push_back(SimdIsa::kAvx2);
#elif VFPS_SIMD_ARM
  isas.push_back(SimdIsa::kNeon);
#endif
  return isas;
}

SimdIsa ActiveSimdIsa() {
  // sync-relaxed-ok: standalone enum snapshot; no data is published
  // through it (the dispatch pointers are their own atomics).
  return ActiveIsaStorage().load(std::memory_order_relaxed);
}

bool SetActiveSimdIsa(SimdIsa isa) {
  bool supported = false;
  for (SimdIsa s : SupportedSimdIsas()) supported = supported || s == isa;
  if (!supported) return false;
  // sync-relaxed-ok: standalone enum for introspection; correctness lives
  // in the fn-pointer atomics installed below.
  ActiveIsaStorage().store(isa, std::memory_order_relaxed);
  InstallWordOps(isa);
  return true;
}

namespace simd {

void OrWords(uint64_t* dst, const uint64_t* src, size_t words) {
  // sync-relaxed-ok: fn-pointer dispatch on the hot loop; any installed
  // candidate is valid, so no acquire edge is needed.
  g_or_words.load(std::memory_order_relaxed)(dst, src, words);
}

void ZeroWords(uint64_t* words, size_t count) {
  // sync-relaxed-ok: same fn-pointer dispatch rationale as OrWords.
  g_zero_words.load(std::memory_order_relaxed)(words, count);
}

}  // namespace simd

}  // namespace vfps
