// Copyright 2026 The vfps Authors.
// In-memory B+-tree. The paper (§2.3) indexes inequality predicates with
// "simple B-Trees"; this template is that substrate. Keys live in wide
// sorted arrays inside fixed-size nodes so that lookups and range scans walk
// contiguous memory (cache-conscious, in the spirit of Rao & Ross [13]),
// and leaves are doubly linked so a range scan touches only leaves.
//
// Keys are unique (the predicate interning layer guarantees one entry per
// distinct predicate value). Deletion rebalances by borrowing from or
// merging with siblings, so occupancy stays >= 50% outside the root.

#ifndef VFPS_BTREE_BTREE_H_
#define VFPS_BTREE_BTREE_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <utility>

#include "src/util/macros.h"

namespace vfps {

/// B+-tree mapping unique keys of type K to payloads of type V.
/// kFanout is the max entry count per node (leaf and internal alike).
template <typename K, typename V, int kFanout = 32>
class BPlusTree {
  static_assert(kFanout >= 4, "fanout too small for rebalancing");

 public:
  BPlusTree() = default;
  ~BPlusTree() { Clear(); }

  BPlusTree(const BPlusTree&) = delete;
  BPlusTree& operator=(const BPlusTree&) = delete;

  /// Move transfers ownership of the whole tree; the source is left empty.
  BPlusTree(BPlusTree&& other) noexcept { Swap(other); }
  BPlusTree& operator=(BPlusTree&& other) noexcept {
    if (this != &other) {
      Clear();
      Swap(other);
    }
    return *this;
  }

  /// Inserts (key, value). Returns false (and changes nothing) if the key
  /// is already present.
  bool Insert(const K& key, const V& value) {
    if (root_ == nullptr) {
      LeafNode* leaf = NewLeaf();
      leaf->keys[0] = key;
      leaf->values[0] = value;
      leaf->count = 1;
      root_ = leaf;
      height_ = 1;
      size_ = 1;
      return true;
    }
    SplitResult split;
    if (!InsertRec(root_, height_, key, value, &split)) return false;
    if (split.new_node != nullptr) {
      InternalNode* new_root = NewInternal();
      new_root->keys[0] = split.separator;
      new_root->children[0] = root_;
      new_root->children[1] = split.new_node;
      new_root->count = 1;
      root_ = new_root;
      ++height_;
    }
    ++size_;
    return true;
  }

  /// Removes `key`. Returns false if absent.
  bool Erase(const K& key) {
    if (root_ == nullptr) return false;
    if (!EraseRec(root_, height_, key)) return false;
    --size_;
    // Shrink the root when it degenerates.
    if (height_ > 1) {
      InternalNode* r = AsInternal(root_);
      if (r->count == 0) {
        root_ = r->children[0];
        delete r;
        --height_;
      }
    } else if (AsLeaf(root_)->count == 0) {
      delete AsLeaf(root_);
      root_ = nullptr;
      height_ = 0;
    }
    return true;
  }

  /// Pointer to the payload for `key`, or nullptr if absent. The pointer is
  /// invalidated by the next Insert/Erase.
  V* Find(const K& key) {
    LeafNode* leaf = FindLeaf(key);
    if (leaf == nullptr) return nullptr;
    int i = LowerBound(leaf->keys, leaf->count, key);
    if (i < leaf->count && leaf->keys[i] == key) return &leaf->values[i];
    return nullptr;
  }
  const V* Find(const K& key) const {
    return const_cast<BPlusTree*>(this)->Find(key);
  }

  /// Visits every (key, value) with key in the given bounds, ascending.
  /// A disengaged bound means unbounded on that side. `fn` is called as
  /// fn(const K&, const V&).
  template <typename Fn>
  void ScanRange(std::optional<K> lo, bool lo_inclusive, std::optional<K> hi,
                 bool hi_inclusive, Fn&& fn) const {
    if (root_ == nullptr) return;
    const LeafNode* leaf;
    int i;
    if (lo.has_value()) {
      leaf = const_cast<BPlusTree*>(this)->FindLeaf(*lo);
      i = LowerBound(leaf->keys, leaf->count, *lo);
      if (!lo_inclusive && i < leaf->count && leaf->keys[i] == *lo) ++i;
    } else {
      leaf = LeftmostLeaf();
      i = 0;
    }
    while (leaf != nullptr) {
      for (; i < leaf->count; ++i) {
        const K& k = leaf->keys[i];
        if (hi.has_value()) {
          if (hi_inclusive ? (k > *hi) : (k >= *hi)) return;
        }
        fn(k, leaf->values[i]);
      }
      leaf = leaf->next;
      i = 0;
    }
  }

  /// Visits all entries in ascending key order.
  template <typename Fn>
  void ScanAll(Fn&& fn) const {
    ScanRange(std::nullopt, true, std::nullopt, true, std::forward<Fn>(fn));
  }

  /// Number of entries.
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Tree height in levels (0 when empty, 1 for a lone leaf).
  int height() const { return height_; }

  /// Removes all entries.
  void Clear() {
    if (root_ != nullptr) FreeRec(root_, height_);
    root_ = nullptr;
    height_ = 0;
    size_ = 0;
  }

  /// Approximate heap footprint in bytes.
  size_t MemoryUsage() const {
    return leaf_nodes_ * sizeof(LeafNode) +
           internal_nodes_ * sizeof(InternalNode);
  }

  /// Validates structural invariants (ordering, occupancy, leaf links).
  /// For tests; aborts via VFPS_CHECK on violation.
  void CheckInvariants() const {
    if (root_ == nullptr) {
      VFPS_CHECK(size_ == 0 && height_ == 0);
      return;
    }
    size_t counted = 0;
    CheckRec(root_, height_, /*is_root=*/true, nullptr, nullptr, &counted);
    VFPS_CHECK(counted == size_);
    // Leaf chain must be sorted end to end and cover all entries.
    const LeafNode* leaf = LeftmostLeaf();
    size_t chained = 0;
    const K* prev = nullptr;
    while (leaf != nullptr) {
      for (int i = 0; i < leaf->count; ++i) {
        if (prev != nullptr) VFPS_CHECK(*prev < leaf->keys[i]);
        prev = &leaf->keys[i];
        ++chained;
      }
      if (leaf->next != nullptr) VFPS_CHECK(leaf->next->prev == leaf);
      leaf = leaf->next;
    }
    VFPS_CHECK(chained == size_);
  }

 private:
  void Swap(BPlusTree& other) {
    std::swap(root_, other.root_);
    std::swap(height_, other.height_);
    std::swap(size_, other.size_);
    std::swap(leaf_nodes_, other.leaf_nodes_);
    std::swap(internal_nodes_, other.internal_nodes_);
  }

  struct LeafNode;
  struct InternalNode;

  static constexpr int kMinEntries = kFanout / 2;

  struct LeafNode {
    int count = 0;
    K keys[kFanout];
    V values[kFanout];
    LeafNode* next = nullptr;
    LeafNode* prev = nullptr;
  };

  struct InternalNode {
    // `count` separator keys and `count + 1` children.
    int count = 0;
    K keys[kFanout];
    void* children[kFanout + 1];
  };

  struct SplitResult {
    K separator{};
    void* new_node = nullptr;
  };

  static LeafNode* AsLeaf(void* n) { return static_cast<LeafNode*>(n); }
  static const LeafNode* AsLeaf(const void* n) {
    return static_cast<const LeafNode*>(n);
  }
  static InternalNode* AsInternal(void* n) {
    return static_cast<InternalNode*>(n);
  }
  static const InternalNode* AsInternal(const void* n) {
    return static_cast<const InternalNode*>(n);
  }

  LeafNode* NewLeaf() {
    ++leaf_nodes_;
    return new LeafNode();
  }
  InternalNode* NewInternal() {
    ++internal_nodes_;
    return new InternalNode();
  }

  static int LowerBound(const K* keys, int count, const K& key) {
    return static_cast<int>(std::lower_bound(keys, keys + count, key) - keys);
  }
  /// Child slot to descend into: first key strictly greater than `key`.
  static int ChildIndex(const InternalNode* n, const K& key) {
    return static_cast<int>(
        std::upper_bound(n->keys, n->keys + n->count, key) - n->keys);
  }

  LeafNode* FindLeaf(const K& key) {
    void* node = root_;
    if (node == nullptr) return nullptr;
    for (int level = height_; level > 1; --level) {
      InternalNode* in = AsInternal(node);
      node = in->children[ChildIndex(in, key)];
    }
    return AsLeaf(node);
  }

  const LeafNode* LeftmostLeaf() const {
    const void* node = root_;
    for (int level = height_; level > 1; --level) {
      node = AsInternal(node)->children[0];
    }
    return AsLeaf(node);
  }

  // --- Insert -------------------------------------------------------------

  bool InsertRec(void* node, int level, const K& key, const V& value,
                 SplitResult* split) {
    if (level == 1) return InsertLeaf(AsLeaf(node), key, value, split);
    InternalNode* in = AsInternal(node);
    int ci = ChildIndex(in, key);
    SplitResult child_split;
    if (!InsertRec(in->children[ci], level - 1, key, value, &child_split)) {
      return false;
    }
    if (child_split.new_node != nullptr) {
      InsertIntoInternal(in, ci, child_split, split);
    } else {
      split->new_node = nullptr;
    }
    return true;
  }

  bool InsertLeaf(LeafNode* leaf, const K& key, const V& value,
                  SplitResult* split) {
    split->new_node = nullptr;
    int i = LowerBound(leaf->keys, leaf->count, key);
    if (i < leaf->count && leaf->keys[i] == key) return false;
    if (leaf->count < kFanout) {
      ShiftRight(leaf, i);
      leaf->keys[i] = key;
      leaf->values[i] = value;
      ++leaf->count;
      return true;
    }
    // Split: left keeps the lower half, right gets the upper half.
    LeafNode* right = NewLeaf();
    int mid = kFanout / 2;
    right->count = kFanout - mid;
    std::copy(leaf->keys + mid, leaf->keys + kFanout, right->keys);
    std::copy(leaf->values + mid, leaf->values + kFanout, right->values);
    leaf->count = mid;
    right->next = leaf->next;
    right->prev = leaf;
    if (right->next != nullptr) right->next->prev = right;
    leaf->next = right;
    // Insert into the proper half.
    if (key < right->keys[0]) {
      InsertLeaf(leaf, key, value, split);
    } else {
      InsertLeaf(right, key, value, split);
    }
    split->separator = right->keys[0];
    split->new_node = right;
    return true;
  }

  void InsertIntoInternal(InternalNode* in, int ci,
                          const SplitResult& child_split, SplitResult* split) {
    split->new_node = nullptr;
    if (in->count < kFanout) {
      for (int k = in->count; k > ci; --k) {
        in->keys[k] = in->keys[k - 1];
        in->children[k + 1] = in->children[k];
      }
      in->keys[ci] = child_split.separator;
      in->children[ci + 1] = child_split.new_node;
      ++in->count;
      return;
    }
    // Split the internal node around its middle separator.
    InternalNode* right = NewInternal();
    int mid = kFanout / 2;
    K up_key = in->keys[mid];
    right->count = kFanout - mid - 1;
    std::copy(in->keys + mid + 1, in->keys + kFanout, right->keys);
    std::copy(in->children + mid + 1, in->children + kFanout + 1,
              right->children);
    in->count = mid;
    // Re-insert the pending separator into the correct half.
    SplitResult dummy;
    if (child_split.separator < up_key) {
      InsertIntoInternal(in, ci, child_split, &dummy);
    } else {
      InsertIntoInternal(right, ci - mid - 1, child_split, &dummy);
    }
    split->separator = up_key;
    split->new_node = right;
  }

  static void ShiftRight(LeafNode* leaf, int from) {
    for (int k = leaf->count; k > from; --k) {
      leaf->keys[k] = leaf->keys[k - 1];
      leaf->values[k] = leaf->values[k - 1];
    }
  }

  // --- Erase --------------------------------------------------------------

  bool EraseRec(void* node, int level, const K& key) {
    if (level == 1) {
      LeafNode* leaf = AsLeaf(node);
      int i = LowerBound(leaf->keys, leaf->count, key);
      if (i >= leaf->count || leaf->keys[i] != key) return false;
      for (int k = i; k + 1 < leaf->count; ++k) {
        leaf->keys[k] = leaf->keys[k + 1];
        leaf->values[k] = leaf->values[k + 1];
      }
      --leaf->count;
      return true;
    }
    InternalNode* in = AsInternal(node);
    int ci = ChildIndex(in, key);
    if (!EraseRec(in->children[ci], level - 1, key)) return false;
    FixUnderflow(in, ci, level - 1);
    return true;
  }

  /// Restores occupancy of in->children[ci] (at `child_level`) by borrowing
  /// from or merging with an adjacent sibling.
  void FixUnderflow(InternalNode* in, int ci, int child_level) {
    if (child_level == 1) {
      LeafNode* child = AsLeaf(in->children[ci]);
      if (child->count >= kMinEntries) return;
      if (ci > 0 && AsLeaf(in->children[ci - 1])->count > kMinEntries) {
        LeafNode* left = AsLeaf(in->children[ci - 1]);
        ShiftRight(child, 0);
        child->keys[0] = left->keys[left->count - 1];
        child->values[0] = left->values[left->count - 1];
        ++child->count;
        --left->count;
        in->keys[ci - 1] = child->keys[0];
        return;
      }
      if (ci < in->count && AsLeaf(in->children[ci + 1])->count > kMinEntries) {
        LeafNode* right = AsLeaf(in->children[ci + 1]);
        child->keys[child->count] = right->keys[0];
        child->values[child->count] = right->values[0];
        ++child->count;
        for (int k = 0; k + 1 < right->count; ++k) {
          right->keys[k] = right->keys[k + 1];
          right->values[k] = right->values[k + 1];
        }
        --right->count;
        in->keys[ci] = right->keys[0];
        return;
      }
      // Merge with a sibling (prefer left so we always merge rightward).
      int li = (ci > 0) ? ci - 1 : ci;  // merge children[li] <- children[li+1]
      LeafNode* left = AsLeaf(in->children[li]);
      LeafNode* right = AsLeaf(in->children[li + 1]);
      std::copy(right->keys, right->keys + right->count,
                left->keys + left->count);
      std::copy(right->values, right->values + right->count,
                left->values + left->count);
      left->count += right->count;
      left->next = right->next;
      if (left->next != nullptr) left->next->prev = left;
      delete right;
      --leaf_nodes_;
      RemoveChild(in, li);
      return;
    }
    InternalNode* child = AsInternal(in->children[ci]);
    if (child->count + 1 > kMinEntries) return;  // child has >= kMin children
    if (ci > 0 && AsInternal(in->children[ci - 1])->count + 1 > kMinEntries) {
      InternalNode* left = AsInternal(in->children[ci - 1]);
      for (int k = child->count; k > 0; --k) {
        child->keys[k] = child->keys[k - 1];
        child->children[k + 1] = child->children[k];
      }
      child->children[1] = child->children[0];
      child->keys[0] = in->keys[ci - 1];
      child->children[0] = left->children[left->count];
      ++child->count;
      in->keys[ci - 1] = left->keys[left->count - 1];
      --left->count;
      return;
    }
    if (ci < in->count &&
        AsInternal(in->children[ci + 1])->count + 1 > kMinEntries) {
      InternalNode* right = AsInternal(in->children[ci + 1]);
      child->keys[child->count] = in->keys[ci];
      child->children[child->count + 1] = right->children[0];
      ++child->count;
      in->keys[ci] = right->keys[0];
      right->children[0] = right->children[1];
      for (int k = 0; k + 1 < right->count; ++k) {
        right->keys[k] = right->keys[k + 1];
        right->children[k + 1] = right->children[k + 2];
      }
      --right->count;
      return;
    }
    int li = (ci > 0) ? ci - 1 : ci;
    InternalNode* left = AsInternal(in->children[li]);
    InternalNode* right = AsInternal(in->children[li + 1]);
    left->keys[left->count] = in->keys[li];
    std::copy(right->keys, right->keys + right->count,
              left->keys + left->count + 1);
    std::copy(right->children, right->children + right->count + 1,
              left->children + left->count + 1);
    left->count += right->count + 1;
    delete right;
    --internal_nodes_;
    RemoveChild(in, li);
  }

  /// Removes separator keys[li] and child children[li + 1] from `in`.
  static void RemoveChild(InternalNode* in, int li) {
    for (int k = li; k + 1 < in->count; ++k) {
      in->keys[k] = in->keys[k + 1];
      in->children[k + 1] = in->children[k + 2];
    }
    --in->count;
  }

  // --- Teardown / checking ------------------------------------------------

  void FreeRec(void* node, int level) {
    if (level == 1) {
      delete AsLeaf(node);
      --leaf_nodes_;
      return;
    }
    InternalNode* in = AsInternal(node);
    for (int i = 0; i <= in->count; ++i) FreeRec(in->children[i], level - 1);
    delete in;
    --internal_nodes_;
  }

  void CheckRec(const void* node, int level, bool is_root, const K* lo,
                const K* hi, size_t* counted) const {
    if (level == 1) {
      const LeafNode* leaf = AsLeaf(node);
      if (!is_root) VFPS_CHECK(leaf->count >= kMinEntries);
      for (int i = 0; i < leaf->count; ++i) {
        if (i > 0) VFPS_CHECK(leaf->keys[i - 1] < leaf->keys[i]);
        if (lo != nullptr) VFPS_CHECK(!(leaf->keys[i] < *lo));
        if (hi != nullptr) VFPS_CHECK(leaf->keys[i] < *hi);
      }
      *counted += static_cast<size_t>(leaf->count);
      return;
    }
    const InternalNode* in = AsInternal(node);
    if (!is_root) VFPS_CHECK(in->count + 1 >= kMinEntries);
    VFPS_CHECK(in->count >= 1 || is_root);
    for (int i = 1; i < in->count; ++i) {
      VFPS_CHECK(in->keys[i - 1] < in->keys[i]);
    }
    for (int i = 0; i <= in->count; ++i) {
      const K* clo = (i == 0) ? lo : &in->keys[i - 1];
      const K* chi = (i == in->count) ? hi : &in->keys[i];
      CheckRec(in->children[i], level - 1, false, clo, chi, counted);
    }
  }

  void* root_ = nullptr;
  int height_ = 0;  // levels; leaves are level 1
  size_t size_ = 0;
  size_t leaf_nodes_ = 0;
  size_t internal_nodes_ = 0;
};

}  // namespace vfps

#endif  // VFPS_BTREE_BTREE_H_
