// Copyright 2026 The vfps Authors.
// Tests for phase 2 storage: columnar clusters, the specialized/generic
// match kernels (with and without prefetch), cluster lists, and
// multi-attribute hash tables.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/cluster/cluster_list.h"
#include "src/cluster/multi_attr_hash.h"
#include "src/core/predicate.h"
#include "src/core/predicate_table.h"
#include "src/util/rng.h"
#include "src/util/simd.h"

namespace vfps {
namespace {

// Raw result-vector buffers handed to Cluster::Match must stay readable
// for kSimdGatherSlack bytes past the last cell (the AVX2 gather
// over-read contract; ResultVector pads automatically).
std::vector<uint8_t> PaddedRv(size_t cells, uint8_t fill = 0) {
  return std::vector<uint8_t>(cells + kSimdGatherSlack, fill);
}

// --- Cluster -------------------------------------------------------------------

TEST(ClusterTest, SizeZeroMatchesEverything) {
  Cluster c(0);
  c.Add(10, {});
  c.Add(11, {});
  std::vector<SubscriptionId> out;
  std::vector<uint8_t> rv = PaddedRv(4);
  c.Match(rv.data(), /*use_prefetch=*/true, &out);
  EXPECT_EQ(out, (std::vector<SubscriptionId>{10, 11}));
}

TEST(ClusterTest, MatchesOnlyFullySatisfiedRows) {
  Cluster c(2);
  std::vector<uint8_t> rv = PaddedRv(8);
  PredicateId s0[] = {0, 1};
  PredicateId s1[] = {2, 3};
  PredicateId s2[] = {0, 3};
  c.Add(100, s0);
  c.Add(101, s1);
  c.Add(102, s2);
  rv[0] = rv[3] = 1;  // predicates 0 and 3 hold
  std::vector<SubscriptionId> out;
  c.Match(rv.data(), true, &out);
  EXPECT_EQ(out, (std::vector<SubscriptionId>{102}));
  out.clear();
  rv[1] = 1;  // now 0,1,3 hold
  c.Match(rv.data(), false, &out);
  EXPECT_EQ(out, (std::vector<SubscriptionId>{100, 102}));
}

TEST(ClusterTest, GrowthAcrossManyRows) {
  // Force several capacity doublings and remainder-loop coverage.
  Cluster c(3);
  std::vector<uint8_t> rv = PaddedRv(10, 1);  // everything satisfied
  constexpr size_t kRows = 1000 + 7;  // not a multiple of UNFOLD
  for (size_t i = 0; i < kRows; ++i) {
    PredicateId slots[] = {0, 1, 2};
    c.Add(i, slots);
  }
  std::vector<SubscriptionId> out;
  c.Match(rv.data(), true, &out);
  ASSERT_EQ(out.size(), kRows);
  for (size_t i = 0; i < kRows; ++i) EXPECT_EQ(out[i], i);
}

TEST(ClusterTest, RemoveAtSwapsLastRow) {
  Cluster c(1);
  PredicateId p0[] = {0};
  c.Add(10, p0);
  c.Add(11, p0);
  c.Add(12, p0);
  // Removing the middle row moves id 12 into row 1.
  EXPECT_EQ(c.RemoveAt(1), 12u);
  EXPECT_EQ(c.count(), 2u);
  EXPECT_EQ(c.id_at(1), 12u);
  // Removing the last row moves nothing.
  EXPECT_EQ(c.RemoveAt(1), kInvalidSubscriptionId);
  EXPECT_EQ(c.count(), 1u);
  EXPECT_EQ(c.id_at(0), 10u);
}

TEST(ClusterTest, SlotAccessors) {
  Cluster c(2);
  PredicateId slots[] = {7, 9};
  c.Add(1, slots);
  EXPECT_EQ(c.slot_at(0, 0), 7u);
  EXPECT_EQ(c.slot_at(0, 1), 9u);
  EXPECT_EQ(c.size(), 2u);
}

// Every specialized kernel size (1..10) plus the generic path (>10), with
// and without prefetch, against a scalar reference implementation.
class ClusterKernelTest
    : public ::testing::TestWithParam<std::tuple<int, bool>> {};

TEST_P(ClusterKernelTest, AgreesWithReferenceEvaluation) {
  const int n = std::get<0>(GetParam());
  const bool prefetch = std::get<1>(GetParam());
  Rng rng(n * 17 + prefetch);
  constexpr size_t kPredicates = 64;
  constexpr size_t kRows = 333;

  Cluster cluster(n);
  std::vector<std::vector<PredicateId>> rows;
  for (size_t r = 0; r < kRows; ++r) {
    std::vector<PredicateId> slots;
    for (int i = 0; i < n; ++i) {
      slots.push_back(static_cast<PredicateId>(rng.Below(kPredicates)));
    }
    cluster.Add(r, slots);
    rows.push_back(std::move(slots));
  }

  for (int trial = 0; trial < 20; ++trial) {
    std::vector<uint8_t> rv = PaddedRv(kPredicates);
    for (auto& b : rv) b = rng.Chance(0.6) ? 1 : 0;
    std::vector<SubscriptionId> expect;
    for (size_t r = 0; r < kRows; ++r) {
      bool ok = true;
      for (PredicateId s : rows[r]) ok = ok && rv[s];
      if (ok) expect.push_back(r);
    }
    std::vector<SubscriptionId> got;
    cluster.Match(rv.data(), prefetch, &got);
    ASSERT_EQ(got, expect) << "n=" << n << " prefetch=" << prefetch;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllKernels, ClusterKernelTest,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11,
                                         14),
                       ::testing::Bool()));

// --- ClusterList ------------------------------------------------------------------

TEST(ClusterListTest, GroupsBySizeAndMatchesAll) {
  ClusterList list;
  std::vector<uint8_t> rv = PaddedRv(8, 1);
  PredicateId one[] = {0};
  PredicateId two[] = {1, 2};
  ClusterSlot a = list.Add(1, {});
  ClusterSlot b = list.Add(2, one);
  ClusterSlot c = list.Add(3, two);
  EXPECT_EQ(a.size, 0u);
  EXPECT_EQ(b.size, 1u);
  EXPECT_EQ(c.size, 2u);
  EXPECT_EQ(list.subscription_count(), 3u);
  // Checked rows exclude the size-0 cluster.
  EXPECT_EQ(list.CheckedRowsPerMatch(), 2u);

  std::vector<SubscriptionId> out;
  list.Match(rv.data(), true, &out);
  std::sort(out.begin(), out.end());
  EXPECT_EQ(out, (std::vector<SubscriptionId>{1, 2, 3}));
}

TEST(ClusterListTest, RemovePatchesMovedRow) {
  ClusterList list;
  PredicateId one[] = {0};
  ClusterSlot s1 = list.Add(1, one);
  list.Add(2, one);
  ClusterSlot s3 = list.Add(3, one);
  (void)s3;
  // Removing s1 moves the last row (id 3) into row 0.
  EXPECT_EQ(list.Remove(s1), 3u);
  EXPECT_EQ(list.subscription_count(), 2u);
  // Drain: removing at row 1 (id 2) then row 0 (id 3).
  EXPECT_EQ(list.Remove(ClusterSlot{1, 1}), kInvalidSubscriptionId);
  EXPECT_EQ(list.Remove(ClusterSlot{1, 0}), kInvalidSubscriptionId);
  EXPECT_TRUE(list.empty());
}

// --- MultiAttrHashTable --------------------------------------------------------------

TEST(MultiAttrHashTest, ExtractKeyFromEvent) {
  MultiAttrHashTable table(AttributeSet{1, 3});
  std::vector<Value> key;
  EXPECT_TRUE(table.ExtractKey(
      Event::CreateUnchecked({{1, 10}, {2, 20}, {3, 30}}), &key));
  EXPECT_EQ(key, (std::vector<Value>{10, 30}));
  EXPECT_FALSE(
      table.ExtractKey(Event::CreateUnchecked({{1, 10}, {2, 20}}), &key));
}

TEST(MultiAttrHashTest, ExtractKeyFromSubscription) {
  MultiAttrHashTable table(AttributeSet{1, 3});
  Subscription s = Subscription::Create(
      1, {Predicate(3, RelOp::kEq, 30), Predicate(1, RelOp::kEq, 10),
          Predicate(5, RelOp::kLt, 2)});
  std::vector<Value> key;
  table.ExtractKey(s, &key);
  EXPECT_EQ(key, (std::vector<Value>{10, 30}));
}

TEST(MultiAttrHashTest, AddProbeRemoveLifecycle) {
  MultiAttrHashTable table(AttributeSet{1, 2});
  std::vector<Value> k1{10, 20}, k2{10, 21};
  PredicateId slots[] = {0};
  ClusterSlot s1 = table.Add(k1, 100, slots);
  table.Add(k2, 101, slots);
  EXPECT_EQ(table.entry_count(), 2u);
  EXPECT_EQ(table.subscription_count(), 2u);
  ASSERT_NE(table.Probe(k1), nullptr);
  ASSERT_NE(table.Probe(k2), nullptr);
  EXPECT_EQ(table.Probe({11, 20}), nullptr);
  // Removing the only subscription of an entry drops the entry.
  EXPECT_EQ(table.Remove(k1, s1), kInvalidSubscriptionId);
  EXPECT_EQ(table.entry_count(), 1u);
  EXPECT_EQ(table.subscription_count(), 1u);
  EXPECT_EQ(table.Probe(k1), nullptr);
}

TEST(MultiAttrHashTest, ManyEntriesNoCrosstalk) {
  MultiAttrHashTable table(AttributeSet{0});
  PredicateId slots[] = {0};
  for (Value v = 0; v < 500; ++v) {
    table.Add({v}, static_cast<SubscriptionId>(v), slots);
  }
  std::vector<uint8_t> rv = PaddedRv(2, 1);
  for (Value v = 0; v < 500; ++v) {
    const ClusterList* list = table.Probe({v});
    ASSERT_NE(list, nullptr);
    std::vector<SubscriptionId> out;
    list->Match(rv.data(), true, &out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], static_cast<SubscriptionId>(v));
  }
}

// CheckInvariants is callable in every build (the automatic per-mutation
// invocation is what VFPS_DEBUG_INVARIANTS gates); a healthy structure
// must validate across grow, remove-with-relocation, and entry-drop
// lifecycles.
TEST(InvariantTest, StructuresValidateThroughLifecycles) {
  Cluster cluster(2);
  EXPECT_TRUE(cluster.CheckInvariants());
  PredicateId slots[] = {3, 7};
  for (SubscriptionId id = 1; id <= 100; ++id) cluster.Add(id, slots);
  EXPECT_TRUE(cluster.CheckInvariants());
  cluster.RemoveAt(0);
  cluster.RemoveAt(cluster.count() - 1);
  EXPECT_TRUE(cluster.CheckInvariants());

  ClusterList list;
  PredicateId one[] = {1};
  PredicateId three[] = {1, 2, 3};
  ClusterSlot s1 = list.Add(10, one);
  list.Add(11, three);
  list.Add(12, {});
  EXPECT_TRUE(list.CheckInvariants());
  list.Remove(s1);  // drops the size-1 cluster entirely
  EXPECT_TRUE(list.CheckInvariants());

  MultiAttrHashTable table(AttributeSet{0, 1});
  ClusterSlot t1 = table.Add({1, 2}, 20, one);
  table.Add({3, 4}, 21, one);
  EXPECT_TRUE(table.CheckInvariants());
  table.Remove({1, 2}, t1);  // empties and drops the {1,2} entry
  EXPECT_TRUE(table.CheckInvariants());
  EXPECT_EQ(table.entry_count(), 1u);

  PredicateTable predicates;
  auto r1 = predicates.Intern(Predicate(0, RelOp::kEq, 5));
  auto r2 = predicates.Intern(Predicate(0, RelOp::kEq, 5));
  EXPECT_EQ(r1.id, r2.id);
  predicates.Intern(Predicate(1, RelOp::kLe, 9));
  EXPECT_TRUE(predicates.CheckInvariants());
  predicates.Release(r1.id);
  EXPECT_TRUE(predicates.CheckInvariants());
  predicates.Release(r1.id);  // refcount hits zero, slot freed
  EXPECT_TRUE(predicates.CheckInvariants());
  // The freed slot is recycled for new content.
  auto r3 = predicates.Intern(Predicate(2, RelOp::kGt, 1));
  EXPECT_EQ(r3.id, r1.id);
  EXPECT_TRUE(predicates.CheckInvariants());
}

TEST(MultiAttrHashTest, ForEachEntryVisitsAll) {
  MultiAttrHashTable table(AttributeSet{0, 1});
  PredicateId slots[] = {0};
  table.Add({1, 2}, 10, slots);
  table.Add({3, 4}, 11, slots);
  std::set<SubscriptionId> seen;
  table.ForEachEntry([&](const std::vector<Value>& key,
                         const ClusterList& list) {
    EXPECT_EQ(key.size(), 2u);
    list.ForEachId([&](SubscriptionId id) { seen.insert(id); });
  });
  EXPECT_EQ(seen, (std::set<SubscriptionId>{10, 11}));
}

}  // namespace
}  // namespace vfps
