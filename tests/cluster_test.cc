// Copyright 2026 The vfps Authors.
// Tests for phase 2 storage: columnar clusters, the specialized/generic
// match kernels (with and without prefetch), cluster lists, and
// multi-attribute hash tables.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
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

TEST(LaneValueCacheTest, ExtractsSchemaOrderedKeysPerLane) {
  const AttributeSet schema{1, 3};
  const std::vector<Event> events{
      Event::CreateUnchecked({{1, 10}, {2, 20}, {3, 30}}),
      Event::CreateUnchecked({{1, 11}, {2, 21}}),  // lacks attribute 3
      Event::CreateUnchecked({{3, 32}, {7, 72}, {1, 12}}),
      Event::CreateUnchecked({})};
  LaneValueCache cache;
  cache.Fill(events);
  std::vector<Value> key;
  EXPECT_TRUE(cache.ExtractKey(schema, 0, &key));
  EXPECT_EQ(key, (std::vector<Value>{10, 30}));
  EXPECT_FALSE(cache.ExtractKey(schema, 1, &key));
  EXPECT_TRUE(cache.ExtractKey(schema, 2, &key));
  EXPECT_EQ(key, (std::vector<Value>{12, 32}));
  EXPECT_FALSE(cache.ExtractKey(schema, 3, &key));
  // Attributes no lane carries, including ones past every cached id.
  EXPECT_FALSE(cache.ExtractKey(AttributeSet{1, 9}, 0, &key));
  EXPECT_FALSE(cache.ExtractKey(AttributeSet{1, 1000}, 0, &key));

  // A refill forgets the previous events: the single lane (the Match
  // case) lacks attribute 3 even though the old lane 0 carried it.
  const Event single = Event::CreateUnchecked({{1, 40}, {7, 70}});
  cache.Fill({&single, 1});
  EXPECT_FALSE(cache.ExtractKey(schema, 0, &key));
  EXPECT_TRUE(cache.ExtractKey(AttributeSet{1, 7}, 0, &key));
  EXPECT_EQ(key, (std::vector<Value>{40, 70}));
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
  table.ForEachEntry([&](std::span<const Value> key,
                         const ClusterList& list) {
    EXPECT_EQ(key.size(), 2u);
    list.ForEachId([&](SubscriptionId id) { seen.insert(id); });
  });
  EXPECT_EQ(seen, (std::set<SubscriptionId>{10, 11}));
}

// --- Entry directory ---------------------------------------------------------

/// `count` distinct keys of `arity` values whose tags end in `low_byte`:
/// in a directory of at most 256 slots they all share one home slot, and
/// low_byte 0xff makes that home the last slot, so their run wraps around
/// to the start of the slot array. `next` numbers the candidates tried.
std::vector<std::vector<Value>> KeysWithHome(size_t arity, uint32_t low_byte,
                                             size_t count, Value* next) {
  std::vector<std::vector<Value>> keys;
  std::vector<Value> key(arity);
  while (keys.size() < count) {
    const Value v = (*next)++;
    for (size_t k = 0; k < arity; ++k) key[k] = v * 8 + static_cast<Value>(k);
    if ((MultiAttrKeyTag(key.data(), arity) & 0xffu) == low_byte) {
      keys.push_back(key);
    }
  }
  return keys;
}

AttributeSet SchemaOfArity(size_t arity) {
  std::vector<AttributeId> ids;
  for (size_t k = 0; k < arity; ++k) {
    ids.push_back(static_cast<AttributeId>(3 * k + 1));
  }
  return AttributeSet(std::move(ids));
}

/// Random Add/Remove against a std::map model; after every step the table
/// must agree with the model through Probe, entry_count, ForEachEntry and
/// CheckInvariants.
void RunDirectoryModel(size_t arity, uint64_t seed, int steps) {
  MultiAttrHashTable table(SchemaOfArity(arity));
  Value next = 1;
  std::vector<std::vector<Value>> pool;
  // Colliding runs at the end of the slot array (wrapping to its start)
  // and at its start, where wrapped keys interleave with native ones.
  const std::pair<uint32_t, size_t> homes[] = {
      {0xff, 24}, {0xfe, 8}, {0x00, 16}, {0x01, 8}};
  for (const auto& [low_byte, count] : homes) {
    for (auto& key : KeysWithHome(arity, low_byte, count, &next)) {
      pool.push_back(std::move(key));
    }
  }
  const size_t wrap_keys = 24;  // pool[0, 24): home = last slot
  Rng rng(seed);
  while (pool.size() < 140) {  // plus unstructured keys, some negative
    std::vector<Value> key(arity);
    for (Value& v : key) v = static_cast<Value>(rng.Below(2001)) - 1000;
    if (std::find(pool.begin(), pool.end(), key) == pool.end()) {
      pool.push_back(std::move(key));
    }
  }

  struct Row {
    SubscriptionId id;
    ClusterSlot slot;
  };
  std::map<std::vector<Value>, std::vector<Row>> model;
  std::vector<size_t> rows_of(pool.size(), 0);  // model sizes by pool index
  std::vector<Value> scratch;
  size_t rows = 0;
  SubscriptionId next_id = 1;
  size_t wrapped_steps = 0;
  size_t peak_entries = 0;
  size_t shrunk_to = 256;
  for (int step = 0; step < steps; ++step) {
    // Alternate filling and draining phases so the directory grows and
    // shrinks repeatedly. Adds go to any pool key, removals to a stored
    // one.
    const bool filling = (step / 1500) % 2 == 0;
    const bool add = model.empty() || rng.Below(100) < (filling ? 70u : 10u);
    auto it = model.end();
    if (!add) {
      it = std::next(model.begin(),
                     static_cast<std::ptrdiff_t>(rng.Below(model.size())));
    }
    const size_t key_index =
        add ? rng.Below(pool.size())
            : static_cast<size_t>(
                  std::find(pool.begin(), pool.end(), it->first) -
                  pool.begin());
    const std::vector<Value>& key = pool[key_index];
    if (add) {
      const SubscriptionId id = next_id++;
      model[key].push_back(Row{id, table.Add(key, id, {})});
      ++rows_of[key_index];
      ++rows;
    } else {
      std::vector<Row>& list = it->second;
      const size_t r = rng.Below(list.size());
      const ClusterSlot slot = list[r].slot;
      const SubscriptionId moved = table.Remove(key, slot);
      list.erase(list.begin() + static_cast<std::ptrdiff_t>(r));
      --rows_of[key_index];
      --rows;
      if (moved != kInvalidSubscriptionId) {
        auto row = std::find_if(list.begin(), list.end(),
                                [&](const Row& x) { return x.id == moved; });
        ASSERT_NE(row, list.end()) << "step " << step;
        row->slot = slot;
      }
      if (list.empty()) model.erase(it);
    }

    ASSERT_TRUE(table.CheckInvariants()) << "step " << step;
    ASSERT_EQ(table.entry_count(), model.size()) << "step " << step;
    ASSERT_EQ(table.subscription_count(), rows) << "step " << step;
    ASSERT_LE(table.slot_capacity(), 256u);  // the home bytes collide
    peak_entries = std::max(peak_entries, model.size());
    if (peak_entries > 96) {  // 256 slots: track the shrink afterwards
      shrunk_to = std::min(shrunk_to, table.slot_capacity());
    }
    size_t wrap_present = 0;
    for (size_t k = 0; k < pool.size(); ++k) {
      const ClusterList* list = table.Probe(pool[k]);
      if (rows_of[k] == 0) {
        ASSERT_EQ(list, nullptr) << "step " << step << " key " << k;
        continue;
      }
      ASSERT_NE(list, nullptr) << "step " << step << " key " << k;
      ASSERT_EQ(list->subscription_count(), rows_of[k])
          << "step " << step << " key " << k;
      wrap_present += k < wrap_keys;
    }
    // Two keys homed at the last slot cannot both sit there: one wrapped.
    wrapped_steps += wrap_present >= 2;
    // The touched key's list holds exactly the model's ids.
    if (auto m = model.find(key); m != model.end()) {
      std::vector<SubscriptionId> ids, want;
      table.Probe(key)->ForEachId(
          [&](SubscriptionId id) { ids.push_back(id); });
      for (const Row& row : m->second) want.push_back(row.id);
      std::sort(ids.begin(), ids.end());
      std::sort(want.begin(), want.end());
      ASSERT_EQ(ids, want) << "step " << step;
    }
    // ForEachEntry visits each model key once, with its list.
    size_t visited = 0;
    table.ForEachEntry([&](std::span<const Value> k, const ClusterList& list) {
      scratch.assign(k.begin(), k.end());
      auto m = model.find(scratch);
      ASSERT_NE(m, model.end()) << "step " << step;
      ASSERT_EQ(list.subscription_count(), m->second.size());
      ++visited;
    });
    ASSERT_EQ(visited, model.size()) << "step " << step;
  }
  EXPECT_GT(wrapped_steps, static_cast<size_t>(steps) / 2);
  EXPECT_GT(peak_entries, 100u);  // grew past 128 slots...
  EXPECT_LE(shrunk_to, 32u);       // ...and drained back to a few
}

TEST(MultiAttrHashTest, DirectoryMatchesMapModelArity2) {
  RunDirectoryModel(/*arity=*/2, /*seed=*/11, /*steps=*/20000);
}

TEST(MultiAttrHashTest, DirectoryMatchesMapModelArity4) {
  RunDirectoryModel(/*arity=*/4, /*seed=*/12, /*steps=*/20000);
}

}  // namespace
}  // namespace vfps
