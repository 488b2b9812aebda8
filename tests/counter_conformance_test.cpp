// Parameterized conformance suite: every dep_counter implementation must
// satisfy the same observable contract, checked against the same script.
// Instantiated over counter specs.

#include <gtest/gtest.h>

#include <atomic>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "incounter/factory.hpp"

namespace spdag {
namespace {

class CounterConformance : public ::testing::TestWithParam<std::string> {
 protected:
  // Each fixture owns its pool registry so the cell counts below see only
  // this factory's traffic (the default registry is process-wide).
  void SetUp() override {
    registry_ = std::make_unique<slab_pool_registry>();
    factory_ = make_counter_factory(GetParam(), nullptr, registry_.get());
  }
  std::unique_ptr<slab_pool_registry> registry_;
  std::unique_ptr<counter_factory> factory_;
};

// Stats of every pool in `pools` whose name starts with `prefix`.
pool_stats pools_named(const pool_registry& pools, const std::string& prefix) {
  pool_stats sum;
  for (const auto& row : pools.rows()) {
    if (row.name.rfind(prefix, 0) == 0) sum += row.stats;
  }
  return sum;
}

TEST_P(CounterConformance, FreshZeroCounterIsZero) {
  dep_counter* c = factory_->acquire(0);
  EXPECT_TRUE(c->is_zero());
  factory_->release(c);
}

TEST_P(CounterConformance, InitialSurplusOneIsNonZero) {
  dep_counter* c = factory_->acquire(1);
  EXPECT_FALSE(c->is_zero());
  EXPECT_TRUE(c->depart(c->root_token()));
  EXPECT_TRUE(c->is_zero());
  factory_->release(c);
}

TEST_P(CounterConformance, ArriveThenDepartRoundTrip) {
  dep_counter* c = factory_->acquire(1);
  const arrive_result r = c->arrive(c->root_token(), true);
  EXPECT_FALSE(c->is_zero());
  EXPECT_FALSE(c->depart(r.dec)) << "one obligation still outstanding";
  EXPECT_TRUE(c->depart(c->root_token()));
  factory_->release(c);
}

TEST_P(CounterConformance, DeepSpawnChain) {
  dep_counter* c = factory_->acquire(1);
  std::vector<token> decs{c->root_token()};
  token inc = c->root_token();
  for (int i = 0; i < 64; ++i) {
    const arrive_result r = c->arrive(inc, (i & 1) == 0);
    decs.push_back(r.dec);
    inc = ((i & 1) == 0) ? r.inc_left : r.inc_right;
  }
  for (std::size_t i = decs.size(); i-- > 1;) {
    EXPECT_FALSE(c->depart(decs[i])) << "premature zero at obligation " << i;
  }
  EXPECT_TRUE(c->depart(decs[0]));
  EXPECT_TRUE(c->is_zero());
  factory_->release(c);
}

TEST_P(CounterConformance, WideFanIn) {
  dep_counter* c = factory_->acquire(1);
  // Simulated fanin: spawn along the frontier like the dag does.
  struct live { token inc; token dec; bool left; };
  std::vector<live> frontier{{c->root_token(), c->root_token(), true}};
  for (int gen = 0; gen < 7; ++gen) {
    std::vector<live> next;
    for (const live& v : frontier) {
      const arrive_result r = c->arrive(v.inc, v.left);
      next.push_back({r.inc_left, v.dec, true});
      next.push_back({r.inc_right, r.dec, false});
    }
    frontier = std::move(next);
  }
  int zero_reports = 0;
  for (const live& v : frontier) {
    if (c->depart(v.dec)) ++zero_reports;
  }
  EXPECT_EQ(zero_reports, 1) << "exactly one depart must report zero";
  EXPECT_TRUE(c->is_zero());
  factory_->release(c);
}

TEST_P(CounterConformance, BatchAddRoundTrip) {
  // add(k) must carry exactly k obligations: k departs on the returned token
  // leave the root obligation pending; only the root depart reports zero.
  for (const std::uint32_t k : {1u, 2u, 5u, 32u, 100u}) {
    dep_counter* c = factory_->acquire(1);
    const arrive_result r = c->add(c->root_token(), true, k);
    for (std::uint32_t i = 0; i < k; ++i) {
      EXPECT_FALSE(c->depart(r.dec)) << "premature zero, k=" << k << " i=" << i;
    }
    EXPECT_FALSE(c->is_zero());
    EXPECT_TRUE(c->depart(c->root_token())) << "k=" << k;
    EXPECT_TRUE(c->is_zero());
    factory_->release(c);
  }
}

TEST_P(CounterConformance, BatchAddMatchesKArrives) {
  // Interleave batched and single increments from the handles a batch
  // returns: the shared inc handles must behave like any arrive handle.
  dep_counter* c = factory_->acquire(1);
  const arrive_result batch = c->add(c->root_token(), true, 4);
  std::vector<token> decs;
  token inc = batch.inc_left;
  for (int i = 0; i < 8; ++i) {
    const arrive_result r = c->arrive(inc, (i & 1) == 0);
    decs.push_back(r.dec);
    inc = ((i & 1) == 0) ? r.inc_left : r.inc_right;
  }
  const arrive_result nested = c->add(batch.inc_right, false, 3);
  for (const token d : decs) EXPECT_FALSE(c->depart(d));
  for (int i = 0; i < 3; ++i) EXPECT_FALSE(c->depart(nested.dec));
  for (int i = 0; i < 4; ++i) EXPECT_FALSE(c->depart(batch.dec));
  EXPECT_TRUE(c->depart(c->root_token()));
  EXPECT_TRUE(c->is_zero());
  factory_->release(c);
}

TEST_P(CounterConformance, BatchAddConcurrentDecrementers) {
  // The k surplus units of one add(k) resolved by k racing threads: no
  // thread may observe zero while the root obligation is pending, and the
  // counter must read exactly zero after the root departs.
  for (int round = 0; round < 20; ++round) {
    dep_counter* c = factory_->acquire(1);
    constexpr std::uint32_t kUnits = 8;
    const arrive_result r = c->add(c->root_token(), true, kUnits);
    std::atomic<int> zeros{0};
    std::vector<std::thread> threads;
    for (std::uint32_t t = 0; t < kUnits; ++t) {
      threads.emplace_back([c, &zeros, d = r.dec] {
        if (c->depart(d)) zeros.fetch_add(1);
      });
    }
    for (auto& th : threads) th.join();
    EXPECT_EQ(zeros.load(), 0) << "root obligation still pending";
    EXPECT_TRUE(c->depart(c->root_token()));
    EXPECT_TRUE(c->is_zero());
    factory_->release(c);
  }
}

TEST_P(CounterConformance, PoolRecyclingYieldsCleanCounters) {
  // Pins: a released counter's cell parks in this thread's magazine and
  // the next acquire reuses it, so after the first round the pool carves
  // nothing new; every release returns its cells (the counter's and, for
  // SNZI counters, the tree's), so nothing stays live.
  std::size_t carved = 0;
  for (int round = 0; round < 4; ++round) {
    dep_counter* a = factory_->acquire(1);
    const arrive_result r = a->arrive(a->root_token(), true);
    a->depart(r.dec);
    a->depart(a->root_token());
    factory_->release(a);
    dep_counter* b = factory_->acquire(1);
    EXPECT_FALSE(b->is_zero()) << "a recycled cell must come back clean";
    EXPECT_TRUE(b->depart(b->root_token()));
    factory_->release(b);
    if (round == 0) carved = factory_->created();
    EXPECT_EQ(factory_->created(), carved)
        << "round " << round << ": release must recycle cells";
    EXPECT_EQ(registry_->totals().live(), 0u) << "round " << round;
  }
  EXPECT_GE(carved, 1u);
}

TEST_P(CounterConformance, ConcurrentSpawnersAndSignalers) {
  // Each thread builds its own spawn chain from a private handle, then
  // resolves its obligations; the root obligation resolves last.
  for (int round = 0; round < 20; ++round) {
    dep_counter* c = factory_->acquire(1);
    constexpr int kThreads = 4;
    constexpr int kDepth = 64;
    // Seed one obligation + handle per thread from the main thread.
    std::vector<arrive_result> seeds;
    token inc = c->root_token();
    for (int t = 0; t < kThreads; ++t) {
      const arrive_result r = c->arrive(inc, (t & 1) == 0);
      seeds.push_back(r);
      inc = r.inc_left;
    }
    std::vector<std::thread> threads;
    std::atomic<int> zeros{0};
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([c, &zeros, seed = seeds[static_cast<size_t>(t)]] {
        std::vector<token> decs{seed.dec};
        token my_inc = seed.inc_right;
        for (int i = 0; i < kDepth; ++i) {
          const arrive_result r = c->arrive(my_inc, (i & 1) == 0);
          decs.push_back(r.dec);
          my_inc = r.inc_right;
        }
        for (auto it = decs.rbegin(); it != decs.rend(); ++it) {
          if (c->depart(*it)) zeros.fetch_add(1);
        }
      });
    }
    for (auto& th : threads) th.join();
    EXPECT_EQ(zeros.load(), 0) << "root obligation still pending";
    EXPECT_FALSE(c->is_zero());
    EXPECT_TRUE(c->depart(c->root_token()));
    EXPECT_TRUE(c->is_zero());
    factory_->release(c);
  }
}

INSTANTIATE_TEST_SUITE_P(AllCounters, CounterConformance,
                         ::testing::Values("faa", "snzi:1", "snzi:2", "snzi:4",
                                           "dyn:1", "dyn:4", "dyn:100"),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           std::string name = info.param;
                           for (char& ch : name) {
                             if (ch == ':') ch = '_';
                           }
                           return name;
                         });

TEST(CounterFactory, ParsesSpecs) {
  EXPECT_EQ(make_counter_factory("faa")->name(), "faa");
  EXPECT_EQ(make_counter_factory("snzi:3")->name(), "snzi:3");
  EXPECT_EQ(make_counter_factory("dyn:77")->name(), "dyn:77");
  EXPECT_THROW(make_counter_factory("bogus"), std::invalid_argument);
  // There is no flat-combining ("fc") or mutex ("locked") counter: neither
  // name parses, alone or as a suffix on the tree specs' numeric fields.
  EXPECT_THROW(make_counter_factory("fc"), std::invalid_argument);
  EXPECT_THROW(make_counter_factory("locked"), std::invalid_argument);
  EXPECT_THROW(make_counter_factory("snzi:fc"), std::invalid_argument);
  EXPECT_THROW(make_counter_factory("dyn:fc"), std::invalid_argument);
  EXPECT_THROW(make_counter_factory("fc:fc"), std::invalid_argument);
}

TEST(CounterFactory, DefaultDynThresholdFollowsPaperFormula) {
  auto f = make_counter_factory("dyn");
  auto* dyn = dynamic_cast<incounter_factory*>(f.get());
  ASSERT_NE(dyn, nullptr);
  EXPECT_EQ(dyn->config().grow_threshold % 25, 0u)
      << "default threshold should be 25 * cores (paper section 5)";
}

TEST(CounterFactory, DisplayNamesMatchPaperLegend) {
  EXPECT_EQ(make_counter_factory("faa")->display_name(), "Fetch & Add");
  EXPECT_EQ(make_counter_factory("snzi:4")->display_name(), "SNZI depth=4");
  EXPECT_EQ(make_counter_factory("dyn:1")->display_name(), "in-counter");
}

TEST(FixedSnziCounter, EachCounterIsOneTreeCellAndNoPairs) {
  // The paper's fixed-depth baseline allocates a tree per finish block.
  // Pins: a snzi:4 counter is built as one cell of the per-depth tree pool
  // (all 30 nodes below the base), draws no SNZI child pair, and gives the
  // cell back at release.
  slab_pool_registry pools;
  std::unique_ptr<counter_factory> factory =
      make_counter_factory("snzi:4", nullptr, &pools);
  const std::uint64_t trees_before = pools_named(pools, "snzi_fixed:").allocs;
  for (int i = 0; i < 1000; ++i) {
    dep_counter* c = factory->acquire(1);
    const arrive_result r = c->arrive(c->root_token(), true);
    EXPECT_FALSE(c->depart(r.dec));
    EXPECT_TRUE(c->depart(c->root_token()));
    factory->release(c);
  }
  const pool_stats trees = pools_named(pools, "snzi_fixed:");
  EXPECT_EQ(trees.allocs - trees_before, 1000u);
  EXPECT_EQ(trees.live(), 0u);
  EXPECT_EQ(pools_named(pools, "snzi_pair:").allocs, 0u);
  EXPECT_EQ(pools_named(pools, "counter:").live(), 0u);
}

}  // namespace
}  // namespace spdag
