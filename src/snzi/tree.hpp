#pragma once
// snzi_tree: a complete dynamic SNZI object (paper section 2).
//
// Owns the root (indicator), a single *base* hierarchical node that serves
// as the initial handle target, and the recycling pool. Child pairs are
// drawn from a shared slab pool (src/mem/), "snzi_pair" in the runtime's
// pool registry, and all go back to it when the tree is destroyed, which
// for an in-counter is every release. The tree-local free list is the
// recycling pool of the paper's appendix B: it takes pairs that reclamation
// (threshold 1) unlinked and pairs that lost a grow race, and reset() parks
// every reachable pair there. It stays local because node::init()'s
// stale-reader argument needs a recycled pair re-initialized under the same
// tree, which the shared pool cannot promise. The analysis in the paper
// (section 4) starts from exactly this shape: "this finish vertex has a
// single SNZI node as the root of its in-counter".

#include <cstdint>
#include <utility>

#include "snzi/node.hpp"
#include "snzi/root.hpp"
#include "snzi/stats.hpp"

namespace spdag::snzi {

struct tree_config {
  // grow() creates children with probability 1/grow_threshold.
  // 1 = always grow (the analyzed setting); 0 = never grow.
  std::uint64_t grow_threshold = 1;
  // Recycle drained child pairs (appendix B). Only sound with threshold 1.
  bool reclaim = false;
  tree_stats* stats = nullptr;
  // Pool child pairs come from; null = the default registry's snzi_pair
  // pool. Borrowed, must outlive the tree.
  object_pool* pairs = nullptr;
};

class snzi_tree {
 public:
  explicit snzi_tree(std::uint64_t initial_surplus = 0, tree_config cfg = {});

  snzi_tree(const snzi_tree&) = delete;
  snzi_tree& operator=(const snzi_tree&) = delete;

  // Returns every pair — reachable or free-listed — to the slab pool.
  ~snzi_tree();

  // The node new handles start at.
  node* base() noexcept { return &base_; }
  root_node* root() noexcept { return &root_; }
  const root_node* root() const noexcept { return &root_; }

  // Non-zero indicator (reads one word; no non-trivial steps).
  bool query() const noexcept { return root_.query(); }
  bool is_zero() const noexcept { return !root_.query(); }

  // Counter-style convenience: operate directly on the base node.
  int arrive() noexcept { return base_.arrive(); }
  bool depart() noexcept { return base_.depart(); }

  std::uint64_t grow_threshold() const noexcept { return ctx_.grow_threshold; }
  void set_grow_threshold(std::uint64_t t) noexcept { ctx_.grow_threshold = t; }
  tree_stats* stats() const noexcept { return ctx_.stats; }

  // Non-concurrent reinitialization for object pooling: parks every
  // reachable pair on the tree-local free list (keeping the working set)
  // and forgets the structure.
  void reset(std::uint64_t initial_surplus);

  // --- non-concurrent introspection (tests, space accounting) ---
  std::size_t node_count() const;         // reachable nodes incl. base
  std::size_t max_depth() const;          // base = depth 0
  std::uint32_t max_node_ops() const;     // max ops_ over reachable nodes
  std::size_t recycled_pool_size() const { return free_pair_count(ctx_); }
  // Bytes of pairs this tree ever drew from the slab pool; constant across
  // reset() generations once the working set is parked (the reuse invariant
  // the old arena's bytes_allocated() tracked).
  std::size_t allocated_bytes() const {
    return ctx_.pair_allocs.load(std::memory_order_relaxed) *
           sizeof(child_pair);
  }

  // Visits every reachable node (pre-order), f(node&, depth).
  template <typename F>
  void for_each_node(F&& f) const {
    walk(const_cast<node*>(&base_), 0, f);
  }

 private:
  template <typename F>
  static void walk(node* n, std::size_t depth, F& f) {
    f(*n, depth);
    if (child_pair* kids = n->children()) {
      walk(&kids->left, depth + 1, f);
      walk(&kids->right, depth + 1, f);
    }
  }

  // reset() helper: pushes every pair under n onto the free list.
  void park_subtree(node& n);
  // Destructor helper: returns every pair under n to the slab pool.
  void release_subtree(node& n);

  root_node root_;
  tree_context ctx_;
  node base_;
};

}  // namespace spdag::snzi
