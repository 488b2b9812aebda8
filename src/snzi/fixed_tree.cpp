#include "snzi/fixed_tree.hpp"

#include <new>
#include <stdexcept>

namespace spdag::snzi {

namespace {

void check_depth(int depth) {
  if (depth < 0 || depth > fixed_tree_max_depth) {
    throw std::invalid_argument("fixed_tree depth out of range [0, 24]");
  }
}

}  // namespace

object_pool* fixed_tree_pool(pool_registry& pools, int depth) {
  check_depth(depth);
  if (depth == 0) return nullptr;
  const std::size_t below = (std::size_t{2} << depth) - 2;
  return &pools.get("snzi_fixed", below * sizeof(node), alignof(node));
}

fixed_tree::fixed_tree(int depth, std::uint64_t initial_surplus,
                       tree_stats* stats, object_pool* cells)
    : depth_((check_depth(depth), depth)),
      cells_(cells != nullptr ? cells
                              : fixed_tree_pool(default_pool_registry(), depth)),
      root_(0, stats) {
  ctx_.root = &root_;
  ctx_.stats = stats;
  if (cells_ != nullptr) {
    void* cell = cells_->allocate();
    below_ = static_cast<node*>(cell);
    for (std::size_t i = 0; i + 1 < node_count(); ++i) ::new (&below_[i]) node();
  }
  init_nodes();
  // The initial surplus lives at the same hashed leaf root_token-style
  // departs will target (key 0), keeping arrive/depart placement matched.
  for (std::uint64_t i = 0; i < initial_surplus; ++i) leaf_for(0)->arrive();
}

fixed_tree::~fixed_tree() {
  // Nodes are trivially destructible: the cell goes straight back.
  if (below_ != nullptr) cells_->deallocate(below_);
}

void fixed_tree::init_nodes() noexcept {
  base_.init(nullptr, nullptr, &ctx_);
  for (std::size_t j = 2; j <= node_count(); ++j) {
    at(j)->init(at(j / 2), nullptr, &ctx_);
  }
}

void fixed_tree::reset(std::uint64_t initial_surplus) {
  root_.reset(0);
  init_nodes();
  for (std::uint64_t i = 0; i < initial_surplus; ++i) leaf_for(0)->arrive();
}

}  // namespace spdag::snzi
