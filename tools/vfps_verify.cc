// Copyright 2026 The vfps Authors.
// Differential verification driver: randomized workloads through every
// matcher variant against the naive oracle (src/verify/differential.h).
// Exits non-zero on the first divergence, after printing a delta-debugged
// minimal reproducer. CI runs this as a gate; developers run it with a
// reported seed to reproduce a failure exactly.
//
//   vfps_verify                         # default sweep, 3 seeds
//   vfps_verify --seeds=20 --events=1000
//   vfps_verify --seed=42 --variant=tree --churn   # replay one config
//   vfps_verify --concurrent            # TSan target: threaded churn over
//                                       # the dynamic and dynamic-eager
//                                       # variants
//   vfps_verify --batch=64              # batched pipeline (MatchBatch)

#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "src/util/simd.h"
#include "src/verify/differential.h"
#include "tools/flags.h"

namespace vfps {
namespace {

/// One deterministic shape per seed: cycle through collision-heavy, sparse,
/// and wide-schema workloads so a seed sweep covers distinct regimes.
DiffConfig ConfigForSeed(uint64_t seed, const tools::Flags& flags) {
  DiffConfig config;
  config.seed = seed;
  switch (seed % 3) {
    case 0:  // tiny domain: heavy predicate sharing and collisions
      config.attrs = 4;
      config.domain = 5;
      config.p_present = 0.9;
      break;
    case 1:  // moderate
      config.attrs = 8;
      config.domain = 30;
      config.p_present = 0.7;
      break;
    default:  // wide schema, sparse events
      config.attrs = 20;
      config.domain = 100;
      config.p_present = 0.35;
      break;
  }
  config.subscriptions =
      static_cast<int>(flags.GetInt("subscriptions", 600));
  // The default crosses dynamic-eager's cold-start census (512 sampled
  // events) on every seed.
  config.events = static_cast<int>(flags.GetInt("events", 1000));
  config.churn = flags.GetBool("churn", seed % 2 == 1);
  // Explicit flags override the per-seed shape.
  config.attrs = static_cast<uint32_t>(flags.GetInt("attrs", config.attrs));
  config.domain = flags.GetInt("domain", config.domain);
  config.p_present = flags.GetDouble("p-present", config.p_present);
  return config;
}

/// SIMD kernel variants to verify: every supported ISA up to the active
/// one (so a VFPS_SIMD=off run sweeps scalar only), or exactly the ISA
/// pinned with --simd. The naive oracle never touches the cluster kernels,
/// so each pass is an independent SIMD-vs-scalar-semantics cross-check.
std::vector<SimdIsa> IsasToVerify(const tools::Flags& flags) {
  if (flags.Has("simd")) return {ActiveSimdIsa()};
  std::vector<SimdIsa> isas;
  const SimdIsa active = ActiveSimdIsa();
  for (SimdIsa isa : SupportedSimdIsas()) {
    if (static_cast<int>(isa) <= static_cast<int>(active)) {
      isas.push_back(isa);
    }
  }
  return isas;
}

int RunSweep(const tools::Flags& flags,
             const std::vector<DiffVariant>& variants) {
  const uint64_t first_seed =
      static_cast<uint64_t>(flags.GetInt("seed", 1));
  const int seeds = flags.Has("seed") && !flags.Has("seeds")
                        ? 1
                        : static_cast<int>(flags.GetInt("seeds", 3));
  const std::vector<SimdIsa> isas = IsasToVerify(flags);
  int total_events = 0;
  for (SimdIsa isa : isas) {
    VFPS_CHECK(SetActiveSimdIsa(isa));
    for (int i = 0; i < seeds; ++i) {
      DiffConfig config = ConfigForSeed(first_seed + static_cast<uint64_t>(i),
                                        flags);
      const size_t batch =
          static_cast<size_t>(flags.GetInt("batch", 0));
      DiffReport report = batch > 0
                              ? RunBatchDifferential(config, variants, batch)
                              : RunDifferential(config, variants);
      total_events += report.events_run;
      if (report.divergence.has_value()) {
        const DiffDivergence& d = *report.divergence;
        std::fprintf(stderr, "divergence under kernel_isa=%s:\n",
                     SimdIsaName(isa));
        for (const DiffVariant& v : variants) {
          if (v.name == d.variant) {
            std::fputs(MinimizeDivergence(config, d, v).c_str(), stderr);
            break;
          }
        }
        return 1;
      }
      std::printf("seed %" PRIu64
                  " [%s]: OK (%d events x %zu variants, %d subscriptions, "
                  "churn=%d)\n",
                  config.seed, SimdIsaName(isa), report.events_run,
                  variants.size(), config.subscriptions,
                  config.churn ? 1 : 0);
    }
  }
  std::printf(
      "verified: %d events x %zu variants x %zu kernel ISAs, zero "
      "divergences\n",
      total_events, variants.size(), isas.size());
  return 0;
}

int RunConcurrent(const tools::Flags& flags,
                  const std::vector<DiffVariant>& variants) {
  const int mutations = static_cast<int>(flags.GetInt("mutations", 2000));
  DiffConfig config;
  config.seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  config.attrs = static_cast<uint32_t>(flags.GetInt("attrs", 8));
  config.domain = flags.GetInt("domain", 20);
  config.p_present = flags.GetDouble("p-present", 0.7);
  for (const DiffVariant& v : variants) {
    // Only the mutable-under-load variants matter here: dynamic (the
    // paper's adaptive algorithm) and its eager-sampling twin (whose
    // event-driven census then runs amid the churn).
    if (v.name != "dynamic" && v.name != "dynamic-eager") continue;
    auto divergence = RunConcurrentDifferential(
        config, v, /*writer_threads=*/2, /*reader_threads=*/2, mutations,
        /*reader_batch=*/static_cast<size_t>(flags.GetInt("batch", 0)));
    if (divergence.has_value()) {
      std::fputs(MinimizeDivergence(config, *divergence, v).c_str(), stderr);
      return 1;
    }
    std::printf("concurrent churn on '%s': OK (%d mutations)\n",
                v.name.c_str(), mutations);
  }
  return 0;
}

int Main(int argc, char** argv) {
  tools::Flags flags = tools::Flags::Parse(argc, argv);
  static constexpr const char* kKnownFlags[] = {
      "help",  "seeds", "seed",    "events",     "subscriptions", "attrs",
      "domain", "p-present", "churn", "variant", "concurrent", "mutations",
      "batch", "simd"};
  for (const auto& [name, value] : flags.values()) {
    bool known = false;
    for (const char* k : kKnownFlags) known = known || name == k;
    if (!known) {
      std::fprintf(stderr, "unknown flag --%s (see --help)\n", name.c_str());
      return 2;
    }
  }
  if (flags.Has("help")) {
    std::puts(
        "vfps_verify: differential verification against the naive oracle\n"
        "  --seeds=N          seeds to sweep (default 3)\n"
        "  --seed=S           first / only seed (default 1)\n"
        "  --events=N         events per seed (default 1000)\n"
        "  --subscriptions=N  subscriptions or churn steps (default 600)\n"
        "  --attrs=N --domain=N --p-present=F   workload shape overrides\n"
        "  --churn[=false]    interleave unsubscribes (default: odd seeds)\n"
        "  --variant=name     verify one variant only\n"
        "  --concurrent       threaded churn over dynamic and "
        "dynamic-eager\n"
        "  --mutations=N      mutations in --concurrent mode (default "
        "2000)\n"
        "  --batch=N          verify MatchBatch with batches of N events\n"
        "                     (sweep mode: batched differential; concurrent\n"
        "                     mode: readers use MatchBatch)\n"
        "  --simd=MODE        pin the cluster kernel ISA "
"(off|scalar|avx2|neon|auto);\n"
        "                     without it the sweep cross-checks every "
"supported ISA\n"
        "                     up to the active one against the scalar "
"oracle");
    return 0;
  }

  if (flags.Has("simd")) {
    const std::string mode = flags.GetString("simd", "auto");
    if (mode != "auto" && !mode.empty()) {
      const std::optional<SimdIsa> isa = ParseSimdIsa(mode);
      if (!isa.has_value()) {
        std::fprintf(stderr,
                     "unknown --simd mode '%s' "
                     "(off|scalar|avx2|neon|auto)\n",
                     mode.c_str());
        return 2;
      }
      if (!SetActiveSimdIsa(*isa)) {
        std::fprintf(stderr,
                     "--simd=%s is not supported on this machine/build "
                     "(detected %s)\n",
                     mode.c_str(), SimdIsaName(DetectedSimdIsa()));
        return 2;
      }
    }
  }

  std::vector<DiffVariant> variants = DefaultDiffVariants();
  if (flags.Has("variant")) {
    const std::string wanted = flags.GetString("variant", "");
    std::vector<DiffVariant> picked;
    for (DiffVariant& v : variants) {
      if (v.name == wanted) picked.push_back(std::move(v));
    }
    if (picked.empty()) {
      std::fprintf(stderr, "unknown --variant '%s'\n", wanted.c_str());
      return 2;
    }
    variants = std::move(picked);
  }

  if (flags.GetBool("concurrent", false)) {
    return RunConcurrent(flags, variants);
  }
  return RunSweep(flags, variants);
}

}  // namespace
}  // namespace vfps

int main(int argc, char** argv) { return vfps::Main(argc, argv); }
