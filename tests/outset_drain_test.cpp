// Parallel-finalize (subtree drain) suite for the tree out-set, plus the
// deep-broadcast (scatter) mode and the destruction-time waiter-reclaim
// regression.
//
// The core property under test is unchanged from the conformance suite —
// exactly-once hand-off of every registered waiter — but here the finalize
// walk itself is partitioned: drain tasks are handed to a spawner and run
// on other threads, concurrently with racing adds, while the walk stays
// iterative (explicit frame stack, so a max_depth tree never grows the call
// stack). Runs under the TSan CI job.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "harness/workloads.hpp"
#include "outset/factory.hpp"
#include "outset/tree_outset.hpp"
#include "sched/runtime.hpp"

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

// --- deep-broadcast (scatter) structure ---

TEST(TreeOutsetScatter, ScatterSpreadsUncontendedAdds) {
  // Without scatter, 200 single-threaded adds stay on the base node; with
  // scatter they dive to the forced depth, growing groups along the way.
  tree_outset_config cfg;
  cfg.scatter_depth = 3;
  tree_outset o(cfg);
  simple_outset_factory pool;  // waiter records only (default registry)
  for (std::size_t i = 0; i < 200; ++i) {
    ASSERT_TRUE(o.add(pool.acquire_waiter(fake_consumer(i), nullptr)));
  }
  EXPECT_GT(o.node_count(), 1u) << "scatter must grow the tree";
  EXPECT_GE(o.max_depth(), 1u);
  EXPECT_LE(o.max_depth(), 3u) << "scatter must respect its own depth";
  delivery_log log(&pool, 200);
  o.finalize(&delivery_log::sink, &log);
  for (std::size_t i = 0; i < 200; ++i) {
    EXPECT_EQ(log.delivered[i].load(), 1u) << "waiter " << i;
  }
}

// --- serial spawner: every group becomes exactly one task ---

TEST(TreeOutsetDrain, SpawnerReceivesEveryGroupExactlyOnce) {
  tree_outset_config cfg;
  cfg.scatter_depth = 4;
  tree_outset o(cfg);
  simple_outset_factory pool;
  constexpr std::size_t kWaiters = 512;
  for (std::size_t i = 0; i < kWaiters; ++i) {
    ASSERT_TRUE(o.add(pool.acquire_waiter(fake_consumer(i), nullptr)));
  }
  const std::size_t groups = (o.node_count() - 1) / o.fanout();
  ASSERT_GT(groups, 0u);

  delivery_log log(&pool, kWaiters);
  std::vector<outset_drain_task*> tasks;
  o.finalize(
      &delivery_log::sink, &log,
      [](void* ctx, outset_drain_task* t) {
        static_cast<std::vector<outset_drain_task*>*>(ctx)->push_back(t);
      },
      &tasks);
  // Tasks re-offload their own child groups, so the list grows while we
  // walk it; index iteration tolerates the reallocation.
  for (std::size_t i = 0; i < tasks.size(); ++i) tasks[i]->run();

  EXPECT_EQ(tasks.size(), groups)
      << "one drain task per reachable group, no more, no fewer";
  EXPECT_EQ(o.totals().subtrees_offloaded, groups);
  for (std::size_t i = 0; i < kWaiters; ++i) {
    EXPECT_EQ(log.delivered[i].load(), 1u) << "waiter " << i;
  }
  EXPECT_EQ(o.totals().delivered, kWaiters);
}

// --- parallel drainers racing adders: the TSan-critical property ---

TEST(TreeOutsetDrain, ParallelDrainersDeliverExactlyOnceUnderRacingAdds) {
  // Adders race one finalizer whose walk is partitioned across two drainer
  // threads; every waiter must be delivered (by a drain) or self-delivered
  // (rejected add) exactly once, never both, never neither.
  struct drain_queue {
    std::mutex mu;
    std::deque<outset_drain_task*> tasks;
    std::atomic<int> pending{0};

    static void spawn(void* ctx, outset_drain_task* t) {
      auto* q = static_cast<drain_queue*>(ctx);
      q->pending.fetch_add(1, std::memory_order_acq_rel);
      std::lock_guard<std::mutex> lock(q->mu);
      q->tasks.push_back(t);
    }
    outset_drain_task* pop() {
      std::lock_guard<std::mutex> lock(mu);
      if (tasks.empty()) return nullptr;
      outset_drain_task* t = tasks.front();
      tasks.pop_front();
      return t;
    }
  };

  constexpr int kAdders = 4;
  constexpr int kDrainers = 2;
  constexpr std::size_t kPerThread = 500;
  constexpr std::size_t kPre = 64;
  for (int round = 0; round < 20; ++round) {
    tree_outset_config cfg;
    cfg.scatter_depth = 4;
    tree_outset o(cfg);
    simple_outset_factory pool;
    delivery_log log(&pool, kAdders * kPerThread + kPre);
    drain_queue queue;
    std::atomic<bool> finalize_done{false};
    std::atomic<bool> go{false};

    // Pre-registered wave: scatter grows groups for these even on a machine
    // where the finalizer would otherwise win the whole race, so the walk
    // always has subtrees to offload.
    for (std::size_t i = 0; i < kPre; ++i) {
      const std::size_t idx = static_cast<std::size_t>(kAdders) * kPerThread + i;
      ASSERT_TRUE(o.add(pool.acquire_waiter(fake_consumer(idx), nullptr)));
    }

    std::vector<std::thread> threads;
    for (int t = 0; t < kAdders; ++t) {
      threads.emplace_back([&, t] {
        while (!go.load(std::memory_order_acquire)) {
        }
        for (std::size_t i = 0; i < kPerThread; ++i) {
          const std::size_t idx = static_cast<std::size_t>(t) * kPerThread + i;
          outset_waiter* w = pool.acquire_waiter(fake_consumer(idx), nullptr);
          if (!o.add(w)) {
            log.delivered[idx].fetch_add(1, std::memory_order_relaxed);
            pool.release_waiter(w);
          }
        }
      });
    }
    for (int d = 0; d < kDrainers; ++d) {
      threads.emplace_back([&] {
        while (!go.load(std::memory_order_acquire)) {
        }
        for (;;) {
          outset_drain_task* t = queue.pop();
          if (t != nullptr) {
            t->run();
            queue.pending.fetch_sub(1, std::memory_order_acq_rel);
            continue;
          }
          if (finalize_done.load(std::memory_order_acquire) &&
              queue.pending.load(std::memory_order_acquire) == 0) {
            break;
          }
          std::this_thread::yield();
        }
      });
    }
    std::thread finalizer([&] {
      go.store(true, std::memory_order_release);
      std::this_thread::yield();  // land mid-wave
      o.finalize(&delivery_log::sink, &log, &drain_queue::spawn, &queue);
      finalize_done.store(true, std::memory_order_release);
    });
    for (auto& th : threads) th.join();
    finalizer.join();

    for (std::size_t i = 0; i < log.delivered.size(); ++i) {
      ASSERT_EQ(log.delivered[i].load(), 1u)
          << "round " << round << ", waiter " << i;
    }
    EXPECT_GT(o.totals().subtrees_offloaded, 0u)
        << "a scatter-deep tree must offload subtree drains";
  }
}

// --- end-to-end: deep-tree finalize through the runtime's drain vertices ---

// Spec × scheduler matrix over the runtime: forced-depth scatter trees (two
// shapes) plus the never-grow ablation, each under both schedulers. Every
// offloaded subtree reaches the engine as a drain vertex, which the
// scheduler runs like any other vertex.
class DeepTreeRuntime
    : public ::testing::TestWithParam<std::tuple<std::string, std::string>> {};

TEST_P(DeepTreeRuntime, DeepTreeFinalizeDeliversEveryConsumer) {
  const std::string& sched = std::get<0>(GetParam());
  const std::string& spec = std::get<1>(GetParam());
  // Scatter specs ("tree:f:t:scatter") force grown trees, so finalize MUST
  // offload subtree drains; "tree:<f>:0" is the defined never-grow ablation
  // whose walk is the base line only — nothing to offload, and no drain
  // vertex may be invented.
  const bool scatter = spec.find(":1:") != std::string::npos;
  runtime_config cfg{4, "dyn"};
  cfg.outset = spec;
  cfg.sched = sched;
  runtime rt(cfg);
  constexpr std::uint64_t kConsumers = 4000;
  for (int round = 0; round < 5; ++round) {
    const outset_totals before = rt.outsets().totals();
    // The producer completes only after every consumer registered, so the
    // out-set captures all of them and none takes the ready bypass.
    ASSERT_EQ(harness::fanout_timed(rt, kConsumers, 0, nullptr), kConsumers)
        << "round " << round;
    const outset_totals after = rt.outsets().totals();
    EXPECT_EQ(after.adds - before.adds, kConsumers) << "round " << round;
    EXPECT_EQ(after.delivered - before.delivered, kConsumers)
        << "round " << round;
  }
  EXPECT_EQ(rt.engine().live_vertices(), 0u);
  const outset_totals t = rt.outsets().totals();
  if (scatter) {
    EXPECT_GT(t.subtrees_offloaded, 0u)
        << "deep trees must hand subtree drains to the executor";
  } else {
    EXPECT_EQ(t.subtrees_offloaded, 0u)
        << "the never-grow ablation has no subtrees to offload";
  }
  EXPECT_EQ(rt.engine().stats().drains_enqueued.load(), t.subtrees_offloaded)
      << "every offloaded subtree must become exactly one drain vertex";
}

class TimedDeepTree : public ::testing::TestWithParam<std::string> {};

TEST_P(TimedDeepTree, TimedFanoutMeasuresBroadcastLatency) {
  runtime_config cfg{2, "dyn"};
  cfg.outset = "tree:2:1:6";
  cfg.sched = GetParam();
  runtime rt(cfg);
  harness::fanout_timing timing;
  ASSERT_EQ(harness::fanout_timed(rt, 1000, 0, &timing), 1000u);
  EXPECT_GT(timing.finalize_to_last_s, 0.0)
      << "finalize-to-last-delivery latency must be measured";
}

INSTANTIATE_TEST_SUITE_P(
    SchedsBySpecs, DeepTreeRuntime,
    ::testing::Combine(::testing::Values("ws", "private"),
                       ::testing::Values("tree:2:1:4", "tree:4:1:2",
                                         "tree:2:0")),
    [](const ::testing::TestParamInfo<std::tuple<std::string, std::string>>&
           info) {
      std::string name =
          std::get<0>(info.param) + "_" + std::get<1>(info.param);
      for (char& ch : name) {
        if (ch == ':') ch = '_';
      }
      return name;
    });

INSTANTIATE_TEST_SUITE_P(Scheds, TimedDeepTree,
                         ::testing::Values("ws", "private"));

// --- destruction-time waiter reclamation (regression) ---

TEST(TreeOutsetDtor, RepoolsStrandedWaitersOnDestruction) {
  // A tree destroyed with registrations still parked in it must return the
  // records to the registry's waiter pool, not drop them (the old no-op
  // sink left them stranded — caught here by pool accounting, and by ASan
  // in the sanitizer CI job).
  slab_pool_registry reg;
  object_pool& wpool = outset_waiter_pool(reg);
  constexpr std::size_t kStranded = 64;
  {
    tree_outset_config cfg;
    cfg.scatter_depth = 3;  // strand records across many nodes, not one line
    cfg.pools = &reg;
    tree_outset o(cfg);
    for (std::size_t i = 0; i < kStranded; ++i) {
      outset_waiter* w = pool_new<outset_waiter>(wpool);
      w->consumer = fake_consumer(i);
      ASSERT_TRUE(o.add(w));
    }
    EXPECT_EQ(wpool.stats().live(), kStranded);
  }  // destroyed WITHOUT reset
  EXPECT_EQ(wpool.stats().frees, kStranded)
      << "~tree_outset must route stranded records back to the waiter pool";
  EXPECT_EQ(wpool.stats().live(), 0u);
}

// --- spec parsing: scatter field and the threshold-0 ablation ---

TEST(OutsetFactorySpec, ParsesScatterDepth) {
  auto deep = make_outset_factory("tree:2:1:6");
  EXPECT_EQ(deep->name(), "tree:2:1:6");
  const auto& cfg = static_cast<tree_outset_factory&>(*deep).config();
  EXPECT_EQ(cfg.fanout, 2u);
  EXPECT_EQ(cfg.grow_threshold, 1u);
  EXPECT_EQ(cfg.scatter_depth, 6u);
  EXPECT_EQ(make_outset_factory("outset:tree:4:100:3")->name(),
            "tree:4:100:3");
  // Scatter 0 = off and stays out of the name; the name must re-parse.
  EXPECT_EQ(make_outset_factory("tree:4:100:0")->name(), "tree:4:100");
  EXPECT_EQ(make_outset_factory(deep->name())->name(), deep->name());
  // Past the depth cap, malformed, or over-long specs are rejected.
  EXPECT_THROW(make_outset_factory("tree:2:1:50"), std::invalid_argument);
  EXPECT_THROW(make_outset_factory("tree:2:1:x"), std::invalid_argument);
  EXPECT_THROW(make_outset_factory("tree:2:1:"), std::invalid_argument);
  EXPECT_THROW(make_outset_factory("tree:2:1:6:7"), std::invalid_argument);
  // Scatter forces growth, threshold 0 forbids it: contradictory, rejected
  // (scatter 0 is fine — it means "off").
  EXPECT_THROW(make_outset_factory("tree:2:0:4"), std::invalid_argument);
  EXPECT_EQ(make_outset_factory("tree:2:0:0")->name(), "tree:2:0");
}

TEST(OutsetFactorySpec, ThresholdZeroIsTheDefinedNeverGrowAblation) {
  // "tree:<f>:0" is DEFINED behavior, not a parse accident: the damping
  // coin never fires, every registration stays on the base cache line, and
  // the tree degenerates to simple_outset plus tree bookkeeping — the
  // ablation that isolates the machinery's cost from spreading's benefit.
  auto never = make_outset_factory("tree:4:0");
  EXPECT_EQ(never->name(), "tree:4:0");
  const auto& cfg = static_cast<tree_outset_factory&>(*never).config();
  EXPECT_EQ(cfg.grow_threshold, 0u);
  // Round-trips through its own name.
  EXPECT_EQ(make_outset_factory(never->name())->name(), "tree:4:0");
  // And behaves as documented: contention never grows the tree.
  outset* o = never->acquire();
  EXPECT_TRUE(o->add(never->acquire_waiter(fake_consumer(0), nullptr)));
  delivery_log log(never.get(), 1);
  o->finalize(&delivery_log::sink, &log);
  EXPECT_EQ(log.delivered[0].load(), 1u);
  never->release(o);
}

}  // namespace
}  // namespace spdag
