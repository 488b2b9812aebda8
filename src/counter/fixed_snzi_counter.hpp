#pragma once
// Fixed-depth SNZI dependency counter: the paper's second baseline.
//
// Builds a static SNZI tree of 2^{d+1} - 1 nodes per counter, so per finish
// block (one pool cell holds every node below the base,
// snzi/fixed_tree.hpp), and maps each arrive onto a leaf by hashing a
// per-thread draw, so operations spread evenly. The decrement token is the
// leaf the arrive targeted — this keeps
// the SNZI invariant that surplus never goes negative at any node (paper
// section 5: "every snzi_depart call targets the same SNZI node that was
// targeted by a matching snzi_arrive call").

#include <cassert>
#include <cstdint>

#include "counter/dep_counter.hpp"
#include "snzi/fixed_tree.hpp"
#include "util/rng.hpp"

namespace spdag {

class fixed_snzi_counter final : public dep_counter {
 public:
  // `cells` is snzi::fixed_tree_pool(registry, depth) (null = the default
  // registry's).
  explicit fixed_snzi_counter(int depth, std::uint32_t initial = 0,
                              snzi::tree_stats* stats = nullptr,
                              object_pool* cells = nullptr)
      : tree_(depth, 0, stats, cells) {
    reset_surplus(initial);
  }

  arrive_result arrive(token /*inc_hint*/, bool /*from_left*/) override {
    snzi::node* leaf = tree_.arrive(thread_rng()());
    return {reinterpret_cast<token>(leaf), 0, 0};
  }

  arrive_result add(token /*inc_hint*/, bool /*from_left*/,
                    std::uint32_t k) override {
    assert(k >= 1 && "a batched increment covers at least one unit");
    // All k units land on one hashed leaf in one batched SNZI arrive; the
    // returned token then supports the k matching departs on that leaf.
    snzi::node* leaf = tree_.arrive(thread_rng()(), k);
    return {reinterpret_cast<token>(leaf), 0, 0};
  }

  bool depart(token dec) override {
    auto* leaf = reinterpret_cast<snzi::node*>(dec);
    assert(leaf != nullptr && "fixed SNZI depart requires the arrive's token");
    return tree_.depart(leaf);
  }

  bool is_zero() const override { return tree_.is_zero(); }

  token root_token() override { return reinterpret_cast<token>(initial_leaf_); }
  bool uses_tokens() const override { return true; }

  void reset(std::uint32_t n) override {
    // The tree structure is static; only surplus needs rebuilding. A counter
    // is reset fresh from construction, or after the matching departs of an
    // earlier use, so its surplus is zero everywhere and arriving suffices.
    assert(tree_.is_zero() && "resetting a fixed SNZI counter with surplus");
    reset_surplus(n);
  }

  int depth() const noexcept { return tree_.depth(); }
  std::size_t node_count() const { return tree_.node_count(); }

 private:
  void reset_surplus(std::uint32_t n) {
    assert(n <= 1 && "token-based counters support initial surplus 0 or 1");
    initial_leaf_ = tree_.leaf_for(0);
    for (std::uint32_t i = 0; i < n; ++i) initial_leaf_->arrive();
  }

  snzi::fixed_tree tree_;
  snzi::node* initial_leaf_ = nullptr;
};

}  // namespace spdag
