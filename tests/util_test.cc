// Copyright 2026 The vfps Authors.
// Tests for the utility substrate: Status/Result, Rng, hashing.

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <vector>

#include "src/util/hash.h"
#include "src/util/rng.h"
#include "src/util/status.h"

namespace vfps {
namespace {

// --- Status -----------------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.message(), "");
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad input");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad input");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad input");
}

TEST(StatusTest, AllConstructorsMapToCodes) {
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::ResourceExhausted("x").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
}

TEST(StatusTest, CopySharesState) {
  Status a = Status::NotFound("gone");
  Status b = a;
  EXPECT_EQ(b.message(), "gone");
  EXPECT_EQ(b.code(), StatusCode::kNotFound);
}

Status FailingHelper() { return Status::Internal("inner"); }

Status PropagationHelper() {
  VFPS_RETURN_NOT_OK(FailingHelper());
  return Status::OK();
}

TEST(StatusTest, ReturnNotOkPropagates) {
  Status s = PropagationHelper();
  EXPECT_EQ(s.code(), StatusCode::kInternal);
  EXPECT_EQ(s.message(), "inner");
}

// --- Result -------------------------------------------------------------------

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("nope");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::vector<int>> r = std::vector<int>{1, 2, 3};
  std::vector<int> v = std::move(r).value();
  EXPECT_EQ(v.size(), 3u);
}

// --- Rng -----------------------------------------------------------------------

TEST(RngTest, DeterministicForSeed) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += (a.Next() == b.Next());
  EXPECT_LT(equal, 4);
}

TEST(RngTest, BelowStaysInBounds) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.Below(17), 17u);
  }
  for (int i = 0; i < 16; ++i) EXPECT_EQ(rng.Below(1), 0u);
}

TEST(RngTest, RangeIsInclusiveAndCoversEndpoints) {
  Rng rng(11);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 20000; ++i) {
    int64_t v = rng.Range(-3, 3);
    ASSERT_GE(v, -3);
    ASSERT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, BelowIsRoughlyUniform) {
  Rng rng(123);
  constexpr int kBuckets = 10;
  constexpr int kDraws = 100000;
  int counts[kBuckets] = {};
  for (int i = 0; i < kDraws; ++i) ++counts[rng.Below(kBuckets)];
  for (int c : counts) {
    EXPECT_GT(c, kDraws / kBuckets * 0.9);
    EXPECT_LT(c, kDraws / kBuckets * 1.1);
  }
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    double d = rng.NextDouble();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
  }
}

TEST(RngTest, ChanceMatchesProbability) {
  Rng rng(9);
  int hits = 0;
  for (int i = 0; i < 100000; ++i) hits += rng.Chance(0.25);
  EXPECT_NEAR(hits / 100000.0, 0.25, 0.01);
}

// --- Hashing ----------------------------------------------------------------------

TEST(HashTest, Mix64IsDeterministicAndSpreads) {
  EXPECT_EQ(Mix64(42), Mix64(42));
  std::set<uint64_t> outputs;
  for (uint64_t i = 0; i < 1000; ++i) outputs.insert(Mix64(i));
  EXPECT_EQ(outputs.size(), 1000u);  // no collisions on consecutive ints
}

TEST(HashTest, CombineIsOrderSensitive) {
  uint64_t ab = HashCombine(HashCombine(0, 1), 2);
  uint64_t ba = HashCombine(HashCombine(0, 2), 1);
  EXPECT_NE(ab, ba);
}

}  // namespace
}  // namespace vfps
