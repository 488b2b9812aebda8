// Tests for the fixed-depth SNZI tree with hashed leaf placement
// (the paper's fixed-SNZI baseline, section 5).

#include <gtest/gtest.h>

#include <map>
#include <thread>
#include <vector>

#include "snzi/fixed_tree.hpp"

namespace spdag::snzi {
namespace {

TEST(FixedTree, DepthZeroIsSingleNode) {
  fixed_tree t(0);
  EXPECT_EQ(t.node_count(), 1u);
  EXPECT_EQ(t.leaf_count(), 1u);
  EXPECT_FALSE(t.query());
}

TEST(FixedTree, NodeCountMatchesPaperFormula) {
  // 2^{d+1} - 1 nodes for depth d.
  for (int d = 0; d <= 6; ++d) {
    fixed_tree t(d);
    EXPECT_EQ(t.node_count(), (std::size_t{2} << d) - 1) << "depth " << d;
    EXPECT_EQ(t.leaf_count(), std::size_t{1} << d) << "depth " << d;
  }
}

TEST(FixedTree, RejectsAbsurdDepths) {
  EXPECT_THROW(fixed_tree(-1), std::invalid_argument);
  EXPECT_THROW(fixed_tree(25), std::invalid_argument);
}

TEST(FixedTree, LeafPlacementIsDeterministic) {
  fixed_tree t(4);
  for (std::uint64_t k = 0; k < 64; ++k) {
    EXPECT_EQ(t.leaf_for(k), t.leaf_for(k));
  }
}

TEST(FixedTree, HashSpreadsKeysAcrossLeaves) {
  fixed_tree t(4);  // 16 leaves
  std::map<node*, int> histogram;
  constexpr int kKeys = 1600;
  for (std::uint64_t k = 0; k < kKeys; ++k) histogram[t.leaf_for(k)]++;
  EXPECT_EQ(histogram.size(), t.leaf_count())
      << "every leaf should receive some keys";
  for (const auto& [leaf, count] : histogram) {
    EXPECT_GT(count, kKeys / 32) << "pathologically cold leaf";
    EXPECT_LT(count, kKeys / 4) << "pathologically hot leaf";
  }
}

TEST(FixedTree, MatchedArriveDepartRoundTrip) {
  fixed_tree t(3);
  std::vector<node*> tokens;
  tokens.reserve(100);
  for (std::uint64_t k = 0; k < 100; ++k) tokens.push_back(t.arrive(k));
  EXPECT_TRUE(t.query());
  for (std::size_t i = 0; i + 1 < tokens.size(); ++i) {
    EXPECT_FALSE(t.depart(tokens[i]));
  }
  EXPECT_TRUE(t.depart(tokens.back()));
  EXPECT_FALSE(t.query());
}

TEST(FixedTree, InitialSurplusDepartsViaInitialLeaf) {
  fixed_tree t(2, /*initial_surplus=*/1);
  EXPECT_TRUE(t.query());
  EXPECT_TRUE(t.depart(t.leaf_for(0)));
  EXPECT_FALSE(t.query());
}

TEST(FixedTree, ResetRebuildsCleanTree) {
  fixed_tree t(3);
  node* tok = t.arrive(7);
  t.depart(tok);
  t.reset(1);
  EXPECT_EQ(t.node_count(), 15u);
  EXPECT_TRUE(t.query());
  EXPECT_TRUE(t.depart(t.leaf_for(0)));
}

TEST(FixedTreeConcurrent, ManyThreadsBalancedOps) {
  fixed_tree t(4);
  constexpr int kThreads = 8;
  constexpr int kOps = 10000;
  std::vector<std::thread> threads;
  for (int id = 0; id < kThreads; ++id) {
    threads.emplace_back([&t, id] {
      for (int i = 0; i < kOps; ++i) {
        node* tok = t.arrive(static_cast<std::uint64_t>(id) * kOps + i);
        t.depart(tok);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_FALSE(t.query());
  t.for_each_node(
      [](const node& n, std::size_t) { EXPECT_EQ(n.surplus_half(), 0u); });
}

TEST(FixedTreeConcurrent, ZeroDetectionUnderContention) {
  for (int round = 0; round < 50; ++round) {
    fixed_tree t(2);
    constexpr int kThreads = 4;
    std::vector<node*> tokens;
    for (int i = 0; i < kThreads; ++i) {
      tokens.push_back(t.arrive(static_cast<std::uint64_t>(i)));
    }
    std::atomic<int> zeros{0};
    std::vector<std::thread> threads;
    for (int i = 0; i < kThreads; ++i) {
      threads.emplace_back([&t, &zeros, tok = tokens[static_cast<size_t>(i)]] {
        if (t.depart(tok)) zeros.fetch_add(1);
      });
    }
    for (auto& th : threads) th.join();
    EXPECT_EQ(zeros.load(), 1) << "exactly one depart zeroes the tree";
    EXPECT_FALSE(t.query());
  }
}

}  // namespace
}  // namespace spdag::snzi
