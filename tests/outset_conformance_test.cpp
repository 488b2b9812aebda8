// Parameterized conformance suite: every outset implementation must satisfy
// the same observable contract — exactly-once hand-off of every registered
// waiter across arbitrary add/finalize interleavings. Instantiated over
// out-set specs like counter_conformance_test is over counter specs.
//
// The out-set never dereferences the consumer/engine pointers it carries, so
// these tests tag waiters with fake consumer pointers (an index encoded as a
// pointer) and count deliveries through the sink.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "outset/factory.hpp"
#include "outset/simple_outset.hpp"
#include "outset/tree_outset.hpp"

namespace spdag {
namespace {

vertex* fake_consumer(std::size_t index) {
  return reinterpret_cast<vertex*>((index + 1) << 4);
}
std::size_t consumer_index(const outset_waiter* w) {
  return (reinterpret_cast<std::uintptr_t>(w->consumer) >> 4) - 1;
}

// Sink that counts per-waiter deliveries and repools the record.
struct delivery_log {
  outset_factory* factory = nullptr;
  std::vector<std::atomic<std::uint32_t>> delivered;

  explicit delivery_log(outset_factory* f, std::size_t n)
      : factory(f), delivered(n) {}

  static void sink(void* ctx, outset_waiter* w) {
    auto* log = static_cast<delivery_log*>(ctx);
    log->delivered[consumer_index(w)].fetch_add(1, std::memory_order_relaxed);
    log->factory->release_waiter(w);
  }
};

class OutsetConformance : public ::testing::TestWithParam<std::string> {
 protected:
  // Each fixture owns its pool registry so carved-cell counts below see
  // only this test's traffic (the default registry is process-wide).
  void SetUp() override {
    registry_ = std::make_unique<slab_pool_registry>();
    factory_ = make_outset_factory(GetParam(), registry_.get());
  }
  std::unique_ptr<slab_pool_registry> registry_;
  std::unique_ptr<outset_factory> factory_;
};

TEST_P(OutsetConformance, FinalizeDeliversEveryCapturedWaiterOnce) {
  constexpr std::size_t kWaiters = 100;
  outset* o = factory_->acquire();
  delivery_log log(factory_.get(), kWaiters);
  for (std::size_t i = 0; i < kWaiters; ++i) {
    EXPECT_TRUE(o->add(factory_->acquire_waiter(fake_consumer(i), nullptr)));
  }
  o->finalize(&delivery_log::sink, &log);
  for (std::size_t i = 0; i < kWaiters; ++i) {
    EXPECT_EQ(log.delivered[i].load(), 1u) << "waiter " << i;
  }
  factory_->release(o);
}

TEST_P(OutsetConformance, AddAfterFinalizeIsRejected) {
  outset* o = factory_->acquire();
  delivery_log log(factory_.get(), 1);
  o->finalize(&delivery_log::sink, &log);
  outset_waiter* w = factory_->acquire_waiter(fake_consumer(0), nullptr);
  EXPECT_FALSE(o->add(w)) << "the registrant must self-deliver after finalize";
  factory_->release_waiter(w);
  EXPECT_EQ(log.delivered[0].load(), 0u);
  EXPECT_GE(o->totals().rejected_adds, 1u);
  factory_->release(o);
}

TEST_P(OutsetConformance, FinalizeOnEmptyOutsetDeliversNothing) {
  outset* o = factory_->acquire();
  delivery_log log(factory_.get(), 1);
  o->finalize(&delivery_log::sink, &log);
  EXPECT_EQ(o->totals().delivered, 0u);
  factory_->release(o);
}

TEST_P(OutsetConformance, ExactlyOnceAcrossConcurrentAddsAndFinalize) {
  // The core guarantee: with adders racing the finalizer, every waiter is
  // either captured (delivered by finalize exactly once) or rejected (its
  // adder delivers) — never both, never neither.
  constexpr int kThreads = 4;
  constexpr std::size_t kPerThread = 256;
  for (int round = 0; round < 50; ++round) {
    outset* o = factory_->acquire();
    delivery_log log(factory_.get(), kThreads * kPerThread);
    std::atomic<std::uint32_t> self_delivered{0};
    std::atomic<bool> go{false};
    std::vector<std::thread> adders;
    for (int t = 0; t < kThreads; ++t) {
      adders.emplace_back([&, t] {
        while (!go.load(std::memory_order_acquire)) {
        }
        for (std::size_t i = 0; i < kPerThread; ++i) {
          const std::size_t idx = static_cast<std::size_t>(t) * kPerThread + i;
          outset_waiter* w =
              factory_->acquire_waiter(fake_consumer(idx), nullptr);
          if (!o->add(w)) {
            // Rejected: the "schedule it yourself" path.
            log.delivered[idx].fetch_add(1, std::memory_order_relaxed);
            self_delivered.fetch_add(1, std::memory_order_relaxed);
            factory_->release_waiter(w);
          }
        }
      });
    }
    std::thread finalizer([&] {
      go.store(true, std::memory_order_release);
      // Land the finalize mid-wave.
      std::this_thread::yield();
      o->finalize(&delivery_log::sink, &log);
    });
    for (auto& th : adders) th.join();
    finalizer.join();
    for (std::size_t i = 0; i < log.delivered.size(); ++i) {
      ASSERT_EQ(log.delivered[i].load(), 1u)
          << "round " << round << ", waiter " << i;
    }
    factory_->release(o);
  }
}

TEST_P(OutsetConformance, GroupAddMatchesSingleAdds) {
  // One add_group of a pre-linked chain must be observably identical to n
  // single adds: every waiter delivered exactly once by finalize, n tallied
  // adds, and one group_adds tick (every instantiated spec overrides the
  // base default with a one-CAS capture).
  constexpr std::uint32_t kChain = 64;
  outset* o = factory_->acquire();
  const outset_totals before = o->totals();
  delivery_log log(factory_.get(), kChain);
  std::vector<outset_waiter*> ws(kChain);
  for (std::uint32_t i = 0; i < kChain; ++i) {
    ws[i] = factory_->acquire_waiter(fake_consumer(i), nullptr);
  }
  for (std::uint32_t i = 0; i + 1 < kChain; ++i) {
    ws[i]->next.store(ws[i + 1], std::memory_order_relaxed);
  }
  ws[kChain - 1]->next.store(nullptr, std::memory_order_relaxed);
  const std::uint32_t captured = o->add_group(ws[0], ws[kChain - 1], kChain);
  EXPECT_EQ(captured, kChain) << "uncontended group add must capture all";
  o->finalize(&delivery_log::sink, &log);
  for (std::uint32_t i = 0; i < kChain; ++i) {
    EXPECT_EQ(log.delivered[i].load(), 1u) << "waiter " << i;
  }
  const outset_totals after = o->totals();
  EXPECT_EQ(after.adds - before.adds, kChain);
  EXPECT_EQ(after.delivered - before.delivered, kChain);
  EXPECT_EQ(after.group_adds - before.group_adds, 1u);
  factory_->release(o);
}

TEST_P(OutsetConformance, GroupAddAfterFinalizeRejectsWholeChain) {
  outset* o = factory_->acquire();
  delivery_log log(factory_.get(), 8);
  o->finalize(&delivery_log::sink, &log);
  std::vector<outset_waiter*> ws(8);
  for (std::size_t i = 0; i < 8; ++i) {
    ws[i] = factory_->acquire_waiter(fake_consumer(i), nullptr);
  }
  for (std::size_t i = 0; i + 1 < 8; ++i) {
    ws[i]->next.store(ws[i + 1], std::memory_order_relaxed);
  }
  ws[7]->next.store(nullptr, std::memory_order_relaxed);
  const std::uint32_t captured = o->add_group(ws[0], ws[7], 8);
  EXPECT_EQ(captured, 0u) << "finalized out-set must reject the whole group";
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(log.delivered[i].load(), 0u);
    factory_->release_waiter(ws[i]);
  }
  EXPECT_GE(o->totals().rejected_adds, 8u);
  factory_->release(o);
}

TEST_P(OutsetConformance, ExactlyOnceAcrossConcurrentGroupAddsAndFinalize) {
  // Grouped registrations racing the finalizer: the captured PREFIX is
  // delivered by finalize, the rejected suffix by its adder — exactly once
  // for every waiter either way.
  constexpr int kThreads = 4;
  constexpr std::uint32_t kGroups = 64;
  constexpr std::uint32_t kChain = 8;
  for (int round = 0; round < 50; ++round) {
    outset* o = factory_->acquire();
    delivery_log log(factory_.get(), kThreads * kGroups * kChain);
    std::atomic<bool> go{false};
    std::vector<std::thread> adders;
    for (int t = 0; t < kThreads; ++t) {
      adders.emplace_back([&, t] {
        while (!go.load(std::memory_order_acquire)) {
        }
        for (std::uint32_t gidx = 0; gidx < kGroups; ++gidx) {
          outset_waiter* ws[kChain];
          const std::size_t base =
              (static_cast<std::size_t>(t) * kGroups + gidx) * kChain;
          for (std::uint32_t j = 0; j < kChain; ++j) {
            ws[j] = factory_->acquire_waiter(fake_consumer(base + j), nullptr);
          }
          for (std::uint32_t j = 0; j + 1 < kChain; ++j) {
            ws[j]->next.store(ws[j + 1], std::memory_order_relaxed);
          }
          ws[kChain - 1]->next.store(nullptr, std::memory_order_relaxed);
          const std::uint32_t captured =
              o->add_group(ws[0], ws[kChain - 1], kChain);
          for (std::uint32_t j = captured; j < kChain; ++j) {
            log.delivered[base + j].fetch_add(1, std::memory_order_relaxed);
            factory_->release_waiter(ws[j]);
          }
        }
      });
    }
    std::thread finalizer([&] {
      go.store(true, std::memory_order_release);
      std::this_thread::yield();
      o->finalize(&delivery_log::sink, &log);
    });
    for (auto& th : adders) th.join();
    finalizer.join();
    for (std::size_t i = 0; i < log.delivered.size(); ++i) {
      ASSERT_EQ(log.delivered[i].load(), 1u)
          << "round " << round << ", waiter " << i;
    }
    factory_->release(o);
  }
}

TEST_P(OutsetConformance, ResetRepoolsAbandonedRegistrations) {
  outset* o = factory_->acquire();
  for (std::size_t i = 0; i < 32; ++i) {
    ASSERT_TRUE(o->add(factory_->acquire_waiter(fake_consumer(i), nullptr)));
  }
  factory_->release(o);  // reset: no deliveries, records back to the pool
  // created() and waiters_created() count cells CARVED from slabs; the
  // first refill may carve a whole geometry-sized magazine batch beyond the
  // live cells (magazine-resident spares, not leaks). Pins: carving stays
  // FLAT across rounds, and release returns every cell, so nothing in the
  // registry stays live.
  const std::size_t outsets_after_first = factory_->created();
  const std::size_t carved_after_first = factory_->waiters_created();
  EXPECT_GE(outsets_after_first, 1u);
  EXPECT_GE(carved_after_first, 32u);
  EXPECT_EQ(registry_->totals().live(), 0u);
  // The recycled records and out-set cell are reused: no new carving.
  outset* p = factory_->acquire();
  for (std::size_t i = 0; i < 32; ++i) {
    ASSERT_TRUE(p->add(factory_->acquire_waiter(fake_consumer(i), nullptr)));
  }
  delivery_log log(factory_.get(), 32);
  p->finalize(&delivery_log::sink, &log);
  for (std::size_t i = 0; i < 32; ++i) EXPECT_EQ(log.delivered[i].load(), 1u);
  factory_->release(p);
  EXPECT_EQ(factory_->created(), outsets_after_first)
      << "release must recycle out-set cells";
  EXPECT_EQ(factory_->waiters_created(), carved_after_first)
      << "release_waiter must actually pool records";
  EXPECT_EQ(registry_->totals().live(), 0u);
}

TEST_P(OutsetConformance, CountersTallyAddsAndDeliveries) {
  outset* o = factory_->acquire();
  const outset_totals before = o->totals();
  for (std::size_t i = 0; i < 16; ++i) {
    ASSERT_TRUE(o->add(factory_->acquire_waiter(fake_consumer(i), nullptr)));
  }
  delivery_log log(factory_.get(), 16);
  o->finalize(&delivery_log::sink, &log);
  const outset_totals after = o->totals();
  EXPECT_EQ(after.adds - before.adds, 16u);
  EXPECT_EQ(after.delivered - before.delivered, 16u);
  factory_->release(o);
}

INSTANTIATE_TEST_SUITE_P(AllOutsets, OutsetConformance,
                         ::testing::Values("simple", "tree", "tree:4",
                                           "outset:tree:8", "tree:2:0",
                                           "tree:2:1:4"),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           std::string name = info.param;
                           for (char& ch : name) {
                             if (ch == ':') ch = '_';
                           }
                           return name;
                         });

// --- tree-specific structure tests ---

TEST(TreeOutset, StaysSingleNodeWithoutContention) {
  tree_outset o;
  simple_outset_factory pool;  // waiter records only
  for (std::size_t i = 0; i < 1000; ++i) {
    ASSERT_TRUE(o.add(pool.acquire_waiter(fake_consumer(i), nullptr)));
  }
  // Uncontended adds are one CAS on the base node, like simple_outset.
  EXPECT_EQ(o.node_count(), 1u);
  EXPECT_EQ(o.totals().add_cas_retries, 0u);
}

TEST(TreeOutset, GrowsUnderContentionAndRecyclesGroups) {
  tree_outset_config cfg;
  cfg.fanout = 2;
  tree_outset o(cfg);
  simple_outset_factory pool;
  constexpr int kThreads = 4;
  std::atomic<bool> go{false};
  std::vector<std::thread> adders;
  for (int t = 0; t < kThreads; ++t) {
    adders.emplace_back([&, t] {
      while (!go.load(std::memory_order_acquire)) {
      }
      for (std::size_t i = 0; i < 5000; ++i) {
        ASSERT_TRUE(o.add(pool.acquire_waiter(
            fake_consumer(static_cast<std::size_t>(t) * 5000 + i), nullptr)));
      }
    });
  }
  go.store(true, std::memory_order_release);
  for (auto& th : adders) th.join();
  const std::size_t grown_nodes = o.node_count();
  EXPECT_EQ(o.totals().adds, static_cast<std::uint64_t>(kThreads) * 5000u);
  // Scrub and reuse: groups return to the free stack, not to malloc.
  o.reset(
      [](void* ctx, outset_waiter* w) {
        static_cast<simple_outset_factory*>(ctx)->release_waiter(w);
      },
      &pool);
  EXPECT_EQ(o.node_count(), 1u);
  if (grown_nodes > 1) {
    // At least every installed group is back on the free stack; grow() races
    // can park additional loser groups there too, so this is a lower bound.
    EXPECT_GE(o.recycled_group_count(), (grown_nodes - 1) / cfg.fanout);
  }
}

TEST(TreeOutset, DepthNeverExceedsCap) {
  tree_outset_config cfg;
  cfg.fanout = 2;
  cfg.max_depth = 3;
  tree_outset o(cfg);
  simple_outset_factory pool;
  constexpr int kThreads = 8;
  std::atomic<bool> go{false};
  std::vector<std::thread> adders;
  for (int t = 0; t < kThreads; ++t) {
    adders.emplace_back([&, t] {
      while (!go.load(std::memory_order_acquire)) {
      }
      for (std::size_t i = 0; i < 2000; ++i) {
        ASSERT_TRUE(o.add(pool.acquire_waiter(
            fake_consumer(static_cast<std::size_t>(t) * 2000 + i), nullptr)));
      }
    });
  }
  go.store(true, std::memory_order_release);
  for (auto& th : adders) th.join();
  EXPECT_LE(o.max_depth(), 3u);
}

// --- factory / spec parsing ---

TEST(OutsetFactory, ParsesSpecs) {
  EXPECT_EQ(make_outset_factory("simple")->name(), "simple");
  EXPECT_EQ(make_outset_factory("tree")->name(), "tree:2");
  EXPECT_EQ(make_outset_factory("tree:4")->name(), "tree:4");
  EXPECT_EQ(make_outset_factory("outset:simple")->name(), "simple");
  EXPECT_EQ(make_outset_factory("outset:tree:8")->name(), "tree:8");
  EXPECT_THROW(make_outset_factory("bogus"), std::invalid_argument);
  EXPECT_THROW(make_outset_factory("tree:1"), std::invalid_argument);
  EXPECT_THROW(make_outset_factory("tree:100000"), std::invalid_argument);
  // There is no flat-combining out-set: "simple:fc" is rejected, and on
  // "tree" the suffix must die in the numeric field parser.
  EXPECT_THROW(make_outset_factory("simple:fc"), std::invalid_argument);
  EXPECT_THROW(make_outset_factory("outset:simple:fc"), std::invalid_argument);
  EXPECT_THROW(make_outset_factory("tree:fc"), std::invalid_argument);
  EXPECT_THROW(make_outset_factory("tree:4:fc"), std::invalid_argument);
  EXPECT_THROW(make_outset_factory("outset:tree:fc"), std::invalid_argument);
  EXPECT_THROW(make_outset_factory("simple:fc:fc"), std::invalid_argument);
}

TEST(OutsetFactory, ParsesGrowthThreshold) {
  // "tree:<fanout>:<threshold>" — the out-set analogue of "dyn:<threshold>".
  auto damped = make_outset_factory("tree:4:100");
  EXPECT_EQ(damped->name(), "tree:4:100");
  auto& cfg = static_cast<tree_outset_factory&>(*damped).config();
  EXPECT_EQ(cfg.fanout, 4u);
  EXPECT_EQ(cfg.grow_threshold, 100u);
  // Threshold 1 (always grow) is the default and stays out of the name.
  EXPECT_EQ(make_outset_factory("tree:4:1")->name(), "tree:4");
  EXPECT_EQ(make_outset_factory("outset:tree:2:50")->name(), "tree:2:50");
  EXPECT_THROW(make_outset_factory("tree:1:50"), std::invalid_argument);
  // Strict numeric fields: negatives must not wrap, garbage must not parse.
  EXPECT_THROW(make_outset_factory("tree:4:-1"), std::invalid_argument);
  EXPECT_THROW(make_outset_factory("tree:4:50x"), std::invalid_argument);
  EXPECT_THROW(make_outset_factory("tree:4x"), std::invalid_argument);
  EXPECT_THROW(make_outset_factory("tree:4:"), std::invalid_argument);
}

TEST(TreeOutset, ThresholdZeroNeverGrows) {
  // The degenerate damping setting: collided adds always stay and fight on
  // the base line, so the tree behaves like simple_outset structurally.
  tree_outset_config cfg;
  cfg.grow_threshold = 0;
  tree_outset o(cfg);
  simple_outset_factory pool;
  constexpr int kThreads = 4;
  std::atomic<bool> go{false};
  std::vector<std::thread> adders;
  for (int t = 0; t < kThreads; ++t) {
    adders.emplace_back([&, t] {
      while (!go.load(std::memory_order_acquire)) {
      }
      for (std::size_t i = 0; i < 2000; ++i) {
        ASSERT_TRUE(o.add(pool.acquire_waiter(
            fake_consumer(static_cast<std::size_t>(t) * 2000 + i), nullptr)));
      }
    });
  }
  go.store(true, std::memory_order_release);
  for (auto& th : adders) th.join();
  EXPECT_EQ(o.node_count(), 1u) << "threshold 0 must never install children";
}

TEST(OutsetFactory, WideFanoutGroupsFitTheSlab) {
  // Regression: a group wider than the pool's default slab block must not
  // break carving (the block is sized up to fit one cell).
  auto f = make_outset_factory("tree:128");
  outset* o = f->acquire();
  simple_outset_factory pool;
  constexpr int kThreads = 4;
  std::atomic<bool> go{false};
  std::vector<std::thread> adders;
  for (int t = 0; t < kThreads; ++t) {
    adders.emplace_back([&, t] {
      while (!go.load(std::memory_order_acquire)) {
      }
      for (std::size_t i = 0; i < 2000; ++i) {
        ASSERT_TRUE(o->add(pool.acquire_waiter(
            fake_consumer(static_cast<std::size_t>(t) * 2000 + i), nullptr)));
      }
    });
  }
  go.store(true, std::memory_order_release);
  for (auto& th : adders) th.join();
  EXPECT_EQ(o->totals().adds, static_cast<std::uint64_t>(kThreads) * 2000u);
  f->release(o);
}

TEST(OutsetFactory, DisplayNames) {
  EXPECT_EQ(make_outset_factory("simple")->display_name(), "CAS list");
  EXPECT_EQ(make_outset_factory("tree")->display_name(), "out-set tree");
}

TEST(OutsetFactory, DefaultFactoryIsSimpleAndProcessWide) {
  EXPECT_EQ(default_outset_factory().name(), "simple");
  EXPECT_EQ(&default_outset_factory(), &default_outset_factory());
}

}  // namespace
}  // namespace spdag
