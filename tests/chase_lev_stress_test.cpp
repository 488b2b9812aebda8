// Parameterized stress tests for the Chase-Lev deque: conservation under
// concurrent theft across initial capacities (forcing growth mid-flight)
// and thief counts.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>
#include <tuple>
#include <vector>

#include "sched/chase_lev.hpp"

namespace spdag {
namespace {

struct item {
  explicit item(int v) : value(v) {}
  int value;
};

using Param = std::tuple<std::size_t /*log_capacity*/, int /*thieves*/>;

class ChaseLevStress : public ::testing::TestWithParam<Param> {};

TEST_P(ChaseLevStress, ConservationUnderTheftAndGrowth) {
  const auto [log_cap, n_thieves] = GetParam();
  constexpr int kItems = 20000;
  chase_lev_deque<item> d(log_cap);
  std::vector<std::unique_ptr<item>> items;
  items.reserve(kItems);
  for (int i = 0; i < kItems; ++i) items.push_back(std::make_unique<item>(i));

  // The thieves wait for an opening burst of (1 << log_cap) + 1 pushes that
  // nobody takes from, so the ring has to grow whatever they do afterwards
  // (free-running thieves can keep a small deque below its capacity).
  const int burst = (1 << static_cast<int>(log_cap)) + 1;
  std::atomic<bool> go{false};
  std::vector<std::vector<int>> stolen(static_cast<std::size_t>(n_thieves));
  std::atomic<bool> owner_done{false};
  std::vector<std::thread> thieves;
  for (int t = 0; t < n_thieves; ++t) {
    thieves.emplace_back([&, t] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      auto& mine = stolen[static_cast<std::size_t>(t)];
      while (!owner_done.load(std::memory_order_acquire) ||
             d.size_estimate() > 0) {
        if (item* it = d.steal_top()) mine.push_back(it->value);
      }
    });
  }

  std::vector<int> popped;
  for (int i = 0; i < kItems; ++i) {
    d.push_bottom(items[static_cast<std::size_t>(i)].get());
    if (i + 1 == burst) go.store(true, std::memory_order_release);
    // After the burst, interleave pops at varying density to hit the
    // take-last race often.
    if (i + 1 >= burst && (i % 5) < 2) {
      if (item* it = d.pop_bottom()) popped.push_back(it->value);
    }
  }
  for (;;) {
    item* it = d.pop_bottom();
    if (it == nullptr && d.size_estimate() == 0) break;
    if (it != nullptr) popped.push_back(it->value);
  }
  owner_done.store(true, std::memory_order_release);
  for (auto& th : thieves) th.join();

  std::vector<int> all(popped);
  for (const auto& s : stolen) all.insert(all.end(), s.begin(), s.end());
  std::sort(all.begin(), all.end());
  ASSERT_EQ(all.size(), static_cast<std::size_t>(kItems))
      << "items lost or duplicated (log_cap=" << log_cap
      << ", thieves=" << n_thieves << ")";
  for (int i = 0; i < kItems; ++i) {
    ASSERT_EQ(all[static_cast<std::size_t>(i)], i);
  }
  // Tiny initial capacities must have grown to hold the burst. (Braces:
  // the EXPECT macro expands to an if/else, which -Wdangling-else flags.)
  if (log_cap <= 4) {
    EXPECT_GT(d.capacity(), std::size_t{1} << log_cap);
  }
}

INSTANTIATE_TEST_SUITE_P(
    CapacitiesAndThieves, ChaseLevStress,
    ::testing::Combine(::testing::Values(std::size_t{2}, std::size_t{4},
                                         std::size_t{10}),
                       ::testing::Values(1, 2, 4)),
    [](const ::testing::TestParamInfo<Param>& info) {
      return "cap" + std::to_string(std::size_t{1} << std::get<0>(info.param)) +
             "_thieves" + std::to_string(std::get<1>(info.param));
    });

TEST(ChaseLevEdge, PopFromEmptyRepeatedly) {
  chase_lev_deque<item> d;
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(d.pop_bottom(), nullptr);
    EXPECT_EQ(d.steal_top(), nullptr);
  }
  item a(7);
  d.push_bottom(&a);
  EXPECT_EQ(d.pop_bottom(), &a);
  EXPECT_EQ(d.pop_bottom(), nullptr);
}

TEST(ChaseLevEdge, AlternatingPushPopKeepsIndicesSane) {
  chase_lev_deque<item> d(2);
  item a(1);
  for (int i = 0; i < 100000; ++i) {
    d.push_bottom(&a);
    ASSERT_EQ(d.pop_bottom(), &a);
  }
  EXPECT_EQ(d.size_estimate(), 0);
  EXPECT_EQ(d.capacity(), 4u) << "balanced push/pop must not grow the ring";
}

TEST(ChaseLevEdge, TakeLastRaceNeverDuplicates) {
  // One item, one owner pop racing one thief, many rounds.
  for (int round = 0; round < 3000; ++round) {
    chase_lev_deque<item> d;
    item a(round);
    d.push_bottom(&a);
    item* got_thief = nullptr;
    std::thread thief([&] { got_thief = d.steal_top(); });
    item* got_owner = d.pop_bottom();
    thief.join();
    const int takers = (got_owner != nullptr) + (got_thief != nullptr);
    ASSERT_EQ(takers, 1) << "round " << round;
  }
}

}  // namespace
}  // namespace spdag
