// High-fan-out future stress: many tasks across many workers registering
// against one future while its producer completes it, over every out-set
// implementation. The conservation law under test is exactly-once delivery:
// with the produced value 1, the consumers' sum must equal the consumer
// count — a lost waiter undercounts, a double delivery overcounts (and the
// finish discipline means run() returning proves every consumer ran).

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <tuple>

#include "dag/future.hpp"
#include "harness/workloads.hpp"
#include "mem/slab_pool.hpp"
#include "mem/thread_slot.hpp"
#include "outset/simple_outset.hpp"
#include "outset/tree_outset.hpp"
#include "sched/runtime.hpp"
#include "util/dummy_work.hpp"

namespace spdag {
namespace {

class FanoutMatrix
    : public ::testing::TestWithParam<std::tuple<std::string, std::string>> {};

TEST_P(FanoutMatrix, RacingProducerDeliversExactlyOnce) {
  // Producer completes immediately: most registrations race the finalize or
  // land after it (the rejected/ready-bypass paths).
  runtime_config cfg{4, "dyn"};
  cfg.outset = std::get<0>(GetParam());
  cfg.sched = std::get<1>(GetParam());
  runtime rt(cfg);
  for (int round = 0; round < 20; ++round) {
    EXPECT_EQ(harness::fanout(rt, 1000), 1000u) << "round " << round;
  }
  EXPECT_EQ(rt.engine().live_vertices(), 0u);
}

TEST_P(FanoutMatrix, SlowProducerCapturesTheWholeWave) {
  // Producer spins long enough that registrations pile up on the pending
  // future, then one finalize broadcasts the full set.
  runtime_config cfg{4, "dyn"};
  cfg.outset = std::get<0>(GetParam());
  cfg.sched = std::get<1>(GetParam());
  runtime rt(cfg);
  for (int round = 0; round < 5; ++round) {
    EXPECT_EQ(harness::fanout(rt, 2000, 0, /*producer_ns=*/2'000'000), 2000u)
        << "round " << round;
  }
  EXPECT_EQ(rt.engine().live_vertices(), 0u);
}

TEST_P(FanoutMatrix, ChurnReusesPooledOutsets) {
  runtime_config cfg{2, "dyn"};
  cfg.outset = std::get<0>(GetParam());
  cfg.sched = std::get<1>(GetParam());
  runtime rt(cfg);
  // The out-set cells' pool (one concrete out-set type per spec).
  const bool tree = rt.outsets().name() != "simple";
  auto& pool = dynamic_cast<slab_cache&>(
      tree ? rt.pools().get("outset", sizeof(tree_outset), alignof(tree_outset))
           : rt.pools().get("outset", sizeof(simple_outset),
                            alignof(simple_outset)));
  // Carving plateaus rather than staying flat: a cell allocated on one
  // worker and released on another parks in the releaser's magazine, and
  // a worker carves a refill batch only when its magazine and the recycle
  // list are both dry, i.e. while every free cell sits in another thread's
  // magazine. So the pool never holds more than the live out-sets plus one
  // full magazine per thread, however many futures churn through it.
  // Pins: that bound over 400 futures, and every released future's
  // out-set is destroyed (live() == 0) by the time run() returns.
  for (int round = 0; round < 400; ++round) {
    ASSERT_EQ(harness::fanout(rt, 64), 64u);
    ASSERT_EQ(pool.stats().live(), 0u) << "round " << round;
  }
  EXPECT_EQ(rt.outsets().created(), pool.stats().carved);
  EXPECT_LE(rt.outsets().created(),
            static_cast<std::size_t>(mem::claimed_thread_slots()) *
                pool.magazine_slots())
      << "future churn must recycle out-set cells through the magazines";
  const outset_totals t = rt.outsets().totals();
  EXPECT_EQ(t.adds, t.delivered)
      << "every captured registration must be delivered";
}

INSTANTIATE_TEST_SUITE_P(
    OutsetsAndScheds, FanoutMatrix,
    ::testing::Combine(::testing::Values("simple", "tree", "tree:4"),
                       ::testing::Values("ws", "private")),
    [](const ::testing::TestParamInfo<std::tuple<std::string, std::string>>&
           info) {
      std::string name = std::get<0>(info.param) + "_" + std::get<1>(info.param);
      for (char& ch : name) {
        if (ch == ':') ch = '_';
      }
      return name;
    });

TEST(FutureFanout, PerConsumerValuesArriveIntact) {
  // Beyond counting: every consumer must observe the actual produced value.
  runtime_config cfg{3, "dyn"};
  cfg.outset = "tree";
  runtime rt(cfg);
  constexpr std::uint64_t kConsumers = 500;
  std::atomic<std::uint64_t> sum{0};
  std::atomic<std::uint64_t> mismatches{0};
  auto* s = &sum;
  auto* m = &mismatches;
  rt.run([s, m] {
    fork2_future<std::uint64_t>(
        [] {
          spin_ns(200'000);
          return std::uint64_t{0xfeedULL};
        },
        [s, m](future<std::uint64_t> f) {
          struct rec {
            static void go(future<std::uint64_t> f,
                           std::atomic<std::uint64_t>* s,
                           std::atomic<std::uint64_t>* m, std::uint64_t k) {
              if (k >= 2) {
                fork2([=] { go(f, s, m, k / 2); },
                      [=] { go(f, s, m, k - k / 2); });
                return;
              }
              if (k == 1) {
                future_then(f, [s, m](std::uint64_t v) {
                  if (v != 0xfeedULL) m->fetch_add(1);
                  s->fetch_add(1);
                });
              }
            }
          };
          rec::go(f, s, m, kConsumers);
        });
  });
  EXPECT_EQ(sum.load(), kConsumers);
  EXPECT_EQ(mismatches.load(), 0u);
}

TEST(FutureFanout, TreeOutsetEngineFactoryIsUsed) {
  // The runtime's spec string must actually reach the futures.
  runtime_config cfg{2, "dyn"};
  cfg.outset = "tree:4";
  runtime rt(cfg);
  EXPECT_EQ(rt.outsets().name(), "tree:4");
  EXPECT_EQ(&rt.engine().outsets(), &rt.outsets());
  ASSERT_EQ(harness::fanout(rt, 256), 256u);
  // Every future_state acquires its out-set from the engine's factory at
  // construction, regardless of how the registration races resolve (a fast
  // producer can legitimately push every consumer onto the ready bypass).
  EXPECT_GE(rt.outsets().created(), 1u)
      << "futures must draw out-sets from the engine's factory";
  const outset_totals t = rt.outsets().totals();
  EXPECT_EQ(t.adds, t.delivered)
      << "every captured registration must be delivered";
}

}  // namespace
}  // namespace spdag
