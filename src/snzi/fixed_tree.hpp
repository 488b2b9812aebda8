#pragma once
// Fixed-depth SNZI tree with hashed leaf placement (paper section 5).
//
// This is the paper's second baseline: "The fixed-depth SNZI algorithm
// allocates for each finish block a SNZI tree of 2^{d+1} - 1 nodes, for a
// given depth d. [...] we map DAG vertices to SNZI nodes using a hash
// function to ensure that operations are spread evenly across the SNZI
// tree." Every depart must target the node its matching arrive targeted, so
// arrive() returns the leaf for the caller to retain.
//
// Layout. The base node lives in the tree object; the 2^{d+1} - 2 nodes
// below it (2^d - 1 sibling pairs) are ONE cell of a per-depth registry
// pool, in heap order: heap node j (base = 1, children of k are 2k and
// 2k+1) sits at index j - 2. Parent links are set once at construction and
// never change, so leaves are found by index and the tree holds no
// pointer table. Nothing ever grows a fixed tree.

#include <bit>
#include <cstddef>
#include <cstdint>

#include "mem/registry.hpp"
#include "snzi/node.hpp"
#include "snzi/root.hpp"
#include "snzi/stats.hpp"
#include "util/rng.hpp"

namespace spdag::snzi {

inline constexpr int fixed_tree_max_depth = 24;

// THE node-array pool of a registry for one depth: the nodes below the base
// of a depth-d tree in one cell. Null for depth 0, whose base is the whole
// tree. Throws std::invalid_argument for a depth outside
// [0, fixed_tree_max_depth].
object_pool* fixed_tree_pool(pool_registry& pools, int depth);

class fixed_tree {
 public:
  // depth 0 is a single node (the base); depth d has 2^{d+1} - 1 nodes.
  // `cells` is fixed_tree_pool(registry, depth) for some registry (null =
  // the default registry's). Throws std::invalid_argument for a depth
  // outside [0, fixed_tree_max_depth].
  explicit fixed_tree(int depth, std::uint64_t initial_surplus = 0,
                      tree_stats* stats = nullptr,
                      object_pool* cells = nullptr);
  ~fixed_tree();

  fixed_tree(const fixed_tree&) = delete;
  fixed_tree& operator=(const fixed_tree&) = delete;

  // The leaf a given placement key maps to.
  node* leaf_for(std::uint64_t key) noexcept {
    return at(leaf_count() + (mix64(key) & (leaf_count() - 1)));
  }

  // Arrive at the hashed leaf; the returned node must be passed to depart().
  node* arrive(std::uint64_t key) noexcept { return arrive(key, 1); }

  // Batched arrive: posts n surplus units on one hashed leaf in one
  // operation. The returned leaf supports n independent depart() calls.
  node* arrive(std::uint64_t key, std::uint32_t n) noexcept {
    node* leaf = leaf_for(key);
    leaf->arrive(n);
    return leaf;
  }

  // Returns true iff the tree surplus reached zero.
  bool depart(node* leaf) noexcept { return leaf->depart(); }

  bool query() const noexcept { return root_.query(); }
  bool is_zero() const noexcept { return !root_.query(); }

  int depth() const noexcept { return depth_; }
  std::size_t leaf_count() const noexcept { return std::size_t{1} << depth_; }
  std::size_t node_count() const noexcept {
    return (std::size_t{2} << depth_) - 1;
  }

  // Visits every node, f(node&, depth), level by level from the base.
  template <typename F>
  void for_each_node(F&& f) const {
    for (std::size_t j = 1; j <= node_count(); ++j) {
      f(*const_cast<fixed_tree*>(this)->at(j),
        static_cast<std::size_t>(std::bit_width(j)) - 1);
    }
  }

  // Non-concurrent reuse: zero surplus everywhere, then `initial_surplus`.
  void reset(std::uint64_t initial_surplus);

 private:
  // Heap node j, 1-based.
  node* at(std::size_t j) noexcept { return j == 1 ? &base_ : &below_[j - 2]; }
  void init_nodes() noexcept;

  int depth_;
  object_pool* cells_;  // null for depth 0
  root_node root_;
  tree_context ctx_;
  node base_;
  node* below_ = nullptr;  // heap nodes 2 .. node_count(), one cell
};

}  // namespace spdag::snzi
