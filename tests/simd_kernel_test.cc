// Copyright 2026 The vfps Authors.
// Boundary property tests for the SIMD cluster kernels (docs/KERNELS.md):
// every supported ISA variant, swept across cluster sizes straddling the
// specialized/generic kernel split and row/lane counts straddling the
// UNFOLD stripes, 8-row vector groups, and 64-lane stripe words, each
// compared against a naive per-row reference evaluation. Plus unit
// coverage of the ISA selection utilities and the word-op dispatch.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/cluster/kernels.h"
#include "src/core/batch_result.h"
#include "src/core/batch_result_vector.h"
#include "src/core/result_vector.h"
#include "src/util/rng.h"
#include "src/util/simd.h"

namespace vfps {
namespace {

/// Saves and restores the process-global active ISA around each test so
/// the sweep cannot leak a forced ISA into later tests.
class SimdKernelTest : public ::testing::Test {
 protected:
  void TearDown() override { ASSERT_TRUE(SetActiveSimdIsa(saved_)); }
  const SimdIsa saved_ = ActiveSimdIsa();
};

constexpr size_t kPredicates = 97;  // deliberately not a power of two

/// Raw rv buffer honoring the kSimdGatherSlack over-read contract.
std::vector<uint8_t> RandomRv(Rng* rng) {
  std::vector<uint8_t> rv(kPredicates + kSimdGatherSlack, 0);
  for (size_t i = 0; i < kPredicates; ++i) {
    // Nonzero cells may hold any value, not just 1 — the kernels' contract
    // is `cell != 0` (exercises the compare-based SIMD masks).
    rv[i] = rng->Chance(0.5) ? static_cast<uint8_t>(1 + rng->Below(255)) : 0;
  }
  return rv;
}

TEST_F(SimdKernelTest, PerEventBoundaryMatrixAgreesWithNaiveReference) {
  // Sizes 0..12 straddle the size-0 fast path, every specialized kernel
  // (1..10), and the generic kernel (11, 12); the row counts straddle the
  // 8-row vector groups, the UNFOLD=16 stripes, and their multiples.
  const size_t kRowCounts[] = {0, 1, 15, 16, 17, 63, 64, 65, 255, 256, 257};
  for (SimdIsa isa : SupportedSimdIsas()) {
    ASSERT_TRUE(SetActiveSimdIsa(isa));
    ASSERT_EQ(ActiveClusterKernels().isa, isa);
    for (uint32_t n = 0; n <= 12; ++n) {
      for (size_t rows : kRowCounts) {
        Rng rng(n * 1000 + rows);
        Cluster cluster(n);
        std::vector<std::vector<PredicateId>> slots_by_row;
        for (size_t r = 0; r < rows; ++r) {
          std::vector<PredicateId> slots(n);
          for (uint32_t c = 0; c < n; ++c) {
            slots[c] = static_cast<PredicateId>(rng.Below(kPredicates));
          }
          cluster.Add(r, slots);
          slots_by_row.push_back(std::move(slots));
        }
        const std::vector<uint8_t> rv = RandomRv(&rng);
        std::vector<SubscriptionId> expect;
        for (size_t r = 0; r < rows; ++r) {
          bool ok = true;
          for (PredicateId s : slots_by_row[r]) ok = ok && rv[s] != 0;
          if (ok) expect.push_back(r);
        }
        for (bool prefetch : {false, true}) {
          std::vector<SubscriptionId> got;
          cluster.Match(rv.data(), prefetch, &got);
          ASSERT_EQ(got, expect)
              << "isa=" << SimdIsaName(isa) << " n=" << n << " rows=" << rows
              << " prefetch=" << prefetch;
        }
      }
    }
  }
}

TEST_F(SimdKernelTest, BatchBoundaryMatrixAgreesWithNaiveReference) {
  // Lane counts straddle every stripe width W=1..4 and the word
  // boundaries; rows straddle the UNFOLD stripe and its remainder.
  const size_t kLaneCounts[] = {1, 63, 64, 65, 128, 129, 192, 193, 256};
  const size_t kRowCounts[] = {1, 15, 16, 17, 64, 257};
  for (SimdIsa isa : SupportedSimdIsas()) {
    ASSERT_TRUE(SetActiveSimdIsa(isa));
    for (uint32_t n : {0u, 1u, 2u, 3u, 5u, 8u, 11u}) {
      for (size_t lanes : kLaneCounts) {
        for (size_t rows : kRowCounts) {
          Rng rng(n * 7919 + lanes * 31 + rows);
          Cluster cluster(n);
          std::vector<std::vector<PredicateId>> slots_by_row;
          for (size_t r = 0; r < rows; ++r) {
            std::vector<PredicateId> slots(n);
            for (uint32_t c = 0; c < n; ++c) {
              slots[c] = static_cast<PredicateId>(rng.Below(kPredicates));
            }
            cluster.Add(r, slots);
            slots_by_row.push_back(std::move(slots));
          }
          BatchResultVector block;
          block.Reset(lanes, kPredicates);
          for (size_t p = 0; p < kPredicates; ++p) {
            for (size_t lane = 0; lane < lanes; ++lane) {
              if (rng.Chance(0.6)) {
                block.Set(static_cast<PredicateId>(p), lane);
              }
            }
          }
          std::vector<uint64_t> alive(block.words_per_lane(), 0);
          for (size_t lane = 0; lane < lanes; ++lane) {
            if (rng.Chance(0.9)) alive[lane / 64] |= uint64_t{1} << (lane % 64);
          }
          BatchResult expect;
          expect.Reset(lanes);
          for (size_t r = 0; r < rows; ++r) {
            for (size_t lane = 0; lane < lanes; ++lane) {
              if (((alive[lane / 64] >> (lane % 64)) & 1) == 0) continue;
              bool ok = true;
              for (PredicateId s : slots_by_row[r]) {
                ok = ok && block.Test(s, lane);
              }
              if (ok) expect.Append(lane, r);
            }
          }
          BatchResult got;
          got.Reset(lanes);
          cluster.MatchBatch(block, alive.data(), /*use_prefetch=*/true,
                             /*lane_base=*/0, &got);
          for (size_t lane = 0; lane < lanes; ++lane) {
            std::vector<SubscriptionId> e = expect.matches(lane);
            std::vector<SubscriptionId> g = got.matches(lane);
            std::sort(e.begin(), e.end());
            std::sort(g.begin(), g.end());
            ASSERT_EQ(g, e) << "isa=" << SimdIsaName(isa) << " n=" << n
                            << " lanes=" << lanes << " rows=" << rows
                            << " lane=" << lane;
          }
        }
      }
    }
  }
}

TEST_F(SimdKernelTest, IsaSelectionUtilities) {
  EXPECT_EQ(ParseSimdIsa("off"), SimdIsa::kScalar);
  EXPECT_EQ(ParseSimdIsa("scalar"), SimdIsa::kScalar);
  EXPECT_EQ(ParseSimdIsa("none"), SimdIsa::kScalar);
  EXPECT_EQ(ParseSimdIsa("avx2"), SimdIsa::kAvx2);
  EXPECT_EQ(ParseSimdIsa("neon"), SimdIsa::kNeon);
  EXPECT_FALSE(ParseSimdIsa("auto").has_value());
  EXPECT_FALSE(ParseSimdIsa("").has_value());
  EXPECT_FALSE(ParseSimdIsa("avx512").has_value());
  EXPECT_FALSE(ParseSimdIsa("sse2").has_value());

  const std::vector<SimdIsa> supported = SupportedSimdIsas();
  ASSERT_FALSE(supported.empty());
  EXPECT_EQ(supported.front(), SimdIsa::kScalar);
  for (SimdIsa isa : supported) {
    EXPECT_TRUE(SetActiveSimdIsa(isa));
    EXPECT_EQ(ActiveSimdIsa(), isa);
    EXPECT_EQ(ActiveClusterKernels().isa, isa);
    EXPECT_STREQ(SimdIsaName(KernelsForIsa(isa).isa), SimdIsaName(isa));
  }
  // An ISA this machine/build cannot run is rejected and changes nothing.
  for (SimdIsa isa : {SimdIsa::kAvx2, SimdIsa::kNeon}) {
    if (std::find(supported.begin(), supported.end(), isa) ==
        supported.end()) {
      const SimdIsa before = ActiveSimdIsa();
      EXPECT_FALSE(SetActiveSimdIsa(isa));
      EXPECT_EQ(ActiveSimdIsa(), before);
    }
  }
}

TEST_F(SimdKernelTest, WordOpsMatchScalarSemantics) {
  Rng rng(42);
  for (SimdIsa isa : SupportedSimdIsas()) {
    ASSERT_TRUE(SetActiveSimdIsa(isa));
    for (size_t words : {size_t{1}, size_t{2}, size_t{3}, size_t{4},
                         size_t{7}, size_t{13}}) {
      std::vector<uint64_t> dst(words), src(words), expect(words);
      for (size_t w = 0; w < words; ++w) {
        dst[w] = rng.Next();
        src[w] = rng.Next();
        expect[w] = dst[w] | src[w];
      }
      simd::OrWords(dst.data(), src.data(), words);
      EXPECT_EQ(dst, expect) << "isa=" << SimdIsaName(isa)
                             << " words=" << words;
      simd::ZeroWords(dst.data(), words);
      EXPECT_EQ(dst, std::vector<uint64_t>(words, 0))
          << "isa=" << SimdIsaName(isa) << " words=" << words;
    }
  }
}

TEST_F(SimdKernelTest, ResultVectorPadsForGatherSlack) {
  ResultVector rv;
  rv.EnsureCapacity(5);
  EXPECT_EQ(rv.capacity(), 5u);
  rv.Set(4);
  EXPECT_TRUE(rv.Test(4));
  // The slack bytes are readable and zero (never influence a gather).
  for (size_t i = 0; i < kSimdGatherSlack; ++i) {
    EXPECT_EQ(rv.data()[5 + i], 0) << i;
  }
  rv.Reset();
  EXPECT_FALSE(rv.Test(4));
}

TEST_F(SimdKernelTest, BatchResultVectorGrowthKeepsDirtyDiscipline) {
  BatchResultVector block;
  block.Reset(100, 8);
  block.Set(3, 50);
  block.Set(7, 99);
  // Capacity growth with an unchanged stripe width must clear the old
  // dirty stripes and zero-initialize only the new region.
  block.Reset(100, 32);
  EXPECT_EQ(block.capacity(), 32u);
  for (PredicateId id = 0; id < 32; ++id) {
    for (size_t lane = 0; lane < 100; ++lane) {
      EXPECT_FALSE(block.Test(id, lane)) << "id=" << id << " lane=" << lane;
    }
  }
  EXPECT_TRUE(block.set_ids().empty());
  block.Set(31, 64);
  EXPECT_TRUE(block.Test(31, 64));
  // A stripe-width change relocates stripes: full re-layout, all clear.
  block.Reset(256, 32);
  EXPECT_EQ(block.words_per_lane(), 4u);
  EXPECT_FALSE(block.Test(31, 64));
  EXPECT_TRUE(block.set_ids().empty());
}

}  // namespace
}  // namespace vfps
