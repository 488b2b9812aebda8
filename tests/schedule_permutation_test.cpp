// Schedule-permutation tests: execute dags under a randomized-but-valid
// scheduler (any ready vertex may run next) across many seeds. This explores
// execution orders a LIFO work-stealing scheduler would rarely produce and
// catches hidden ordering assumptions in the engine (the class of bug behind
// the finish_then publication race). Out-set subtree drains enqueued by a
// parallel finalize arrive as vertices too, so they are permuted against
// the rest of the dag: a drain may be deferred past any amount of dag
// progress — the adversarial interleaving a real scheduler produces only
// under unlucky steals.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <vector>

#include "dag/engine.hpp"
#include "dag/future.hpp"
#include "dag/parallel_for.hpp"
#include "incounter/factory.hpp"
#include "outset/factory.hpp"
#include "util/rng.hpp"

namespace spdag {
namespace {

// Valid single-threaded scheduler that picks a uniformly random ready
// vertex (drain vertices included) at every step.
class random_order_executor final : public executor {
 public:
  explicit random_order_executor(std::uint64_t seed) : rng_(seed) {}

  void enqueue(vertex* v) override { ready_.push_back(v); }

  std::size_t run_all(dag_engine& engine) {
    std::size_t n = 0;
    while (!ready_.empty()) {
      const std::size_t i =
          static_cast<std::size_t>(rng_.below(ready_.size()));
      vertex* v = ready_[i];
      ready_[i] = ready_.back();
      ready_.pop_back();
      engine.execute(v);
      ++n;
    }
    return n;
  }

 private:
  xoshiro256 rng_;
  std::vector<vertex*> ready_;
};

void run_seeded(const std::string& algo, std::uint64_t seed,
                void (*setup)(dag_engine&, vertex*, vertex*),
                std::uint64_t expected_executions) {
  random_order_executor exec(seed);
  auto factory = make_counter_factory(algo);
  dag_engine engine(*factory, exec);
  auto [root, final_v] = engine.make();
  setup(engine, root, final_v);
  const std::size_t executed = exec.run_all(engine);
  EXPECT_EQ(executed, engine.stats().vertices_created.load());
  if (expected_executions != 0) {
    EXPECT_EQ(executed, expected_executions) << "seed " << seed;
  }
  EXPECT_EQ(engine.live_vertices(), 0u) << "seed " << seed;
}

std::atomic<int> g_leaves{0};

void fork_tree_body(std::atomic<int>* count, int depth) {
  if (depth == 0) {
    count->fetch_add(1);
    return;
  }
  fork2([count, depth] { fork_tree_body(count, depth - 1); },
        [count, depth] { fork_tree_body(count, depth - 1); });
}

void setup_fork_tree(dag_engine& engine, vertex* root, vertex* final_v) {
  g_leaves.store(0);
  root->body = [] { fork_tree_body(&g_leaves, 5); };
  engine.add(final_v);
  engine.add(root);
}

void setup_chain_ladder(dag_engine& engine, vertex* root, vertex* final_v) {
  struct rec {
    static void go(int depth) {
      if (depth == 0) return;
      finish_then([depth] { fork2([] {}, [] {}); }, [depth] { go(depth - 1); });
    }
  };
  root->body = [] { rec::go(20); };
  engine.add(final_v);
  engine.add(root);
}

void setup_mixed(dag_engine& engine, vertex* root, vertex* final_v) {
  g_leaves.store(0);
  root->body = [] {
    finish_then(
        [] {
          fork2([] { fork_tree_body(&g_leaves, 3); },
                [] {
                  finish_then([] { fork_tree_body(&g_leaves, 2); },
                              [] { g_leaves.fetch_add(100); });
                });
        },
        [] { g_leaves.fetch_add(1000); });
  };
  engine.add(final_v);
  engine.add(root);
}

// --- batched spawn under permuted schedules ---

void setup_batch_fanout(dag_engine& engine, vertex* root, vertex* final_v) {
  // Direct spawn_batch with a nested batch under a third of the children:
  // the k siblings share one grouped dec pair and shared inc handles, so
  // every permutation of their execution (and of the nested batches') must
  // still resolve the finish counter exactly once.
  g_leaves.store(0);
  root->body = [] {
    dag_engine* eng = dag_engine::current_engine();
    vertex* u = dag_engine::current_vertex();
    eng->spawn_batch(u, 24, [](std::uint32_t i) {
      return [i] {
        if (i % 3 == 0) {
          dag_engine* e2 = dag_engine::current_engine();
          vertex* v2 = dag_engine::current_vertex();
          e2->spawn_batch(v2, 5, [](std::uint32_t) {
            return [] { g_leaves.fetch_add(1); };
          });
        } else {
          g_leaves.fetch_add(1);
        }
      };
    });
  };
  engine.add(final_v);
  engine.add(root);
}

void setup_batch_mixed(dag_engine& engine, vertex* root, vertex* final_v) {
  // Blocked builder inside a finish block, then a batch in the continuation:
  // permutes batched siblings against the finish_then publication ordering.
  g_leaves.store(0);
  root->body = [] {
    finish_then(
        [] {
          parallel_for_blocked(0, 70, 3,
                               [](std::size_t) { g_leaves.fetch_add(1); });
        },
        [] {
          dag_engine* eng = dag_engine::current_engine();
          vertex* u = dag_engine::current_vertex();
          eng->spawn_batch(u, 3, [](std::uint32_t) {
            return [] { g_leaves.fetch_add(10); };
          });
        });
  };
  engine.add(final_v);
  engine.add(root);
}

// --- drain vertices vs the rest of the dag ---

constexpr int kFutureConsumers = 96;

void future_fanout_rec(future<std::uint64_t> f, std::uint64_t k) {
  if (k >= 2) {
    fork2([f, k] { future_fanout_rec(f, k / 2); },
          [f, k] { future_fanout_rec(f, k - k / 2); });
  } else if (k == 1) {
    future_then(f, [](std::uint64_t v) {
      g_leaves.fetch_add(static_cast<int>(v));
    });
  }
}

void setup_future_fanout(dag_engine& engine, vertex* root, vertex* final_v) {
  g_leaves.store(0);
  root->body = [] {
    future<std::uint64_t> f = future<std::uint64_t>::make();
    fork2([f] { f.complete(1, dag_engine::current_engine()); },
          [f] { future_fanout_rec(f, kFutureConsumers); });
  };
  engine.add(final_v);
  engine.add(root);
}

TEST(SchedulePermutationDrains, FutureFanoutDeliversOnceUnderPermutedDrains) {
  // One producer, many future_then consumers, a scatter-forced tree out-set:
  // the finalize offloads subtree drains through the executor, and the seed
  // permutes (a) registration vs completion order — some adds are captured,
  // some lose the race and self-deliver — and (b) when each captured
  // subtree's drain actually runs relative to ongoing vertex execution.
  // Exactly-once delivery (sum == consumers) must hold for every schedule,
  // and quiescence (live_vertices == 0, all drains run) at every exit.
  std::uint64_t offloaded_total = 0;
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    random_order_executor exec(seed);
    auto factory = make_counter_factory("dyn");
    auto outsets = make_outset_factory("tree:2:1:4");
    dag_engine_options opts;
    opts.outsets = outsets.get();
    dag_engine engine(*factory, exec, opts);
    auto [root, final_v] = engine.make();
    setup_future_fanout(engine, root, final_v);
    const std::size_t executed = exec.run_all(engine);
    EXPECT_EQ(executed, engine.stats().vertices_created.load()) << "seed "
                                                                << seed;
    EXPECT_EQ(g_leaves.load(), kFutureConsumers) << "seed " << seed;
    EXPECT_EQ(engine.live_vertices(), 0u) << "seed " << seed;
    EXPECT_EQ(engine.drains_pending(), 0u) << "seed " << seed;
    const outset_totals t = outsets->totals();
    EXPECT_EQ(t.adds, t.delivered)
        << "seed " << seed << ": captured registrations must all be drained";
    EXPECT_EQ(engine.stats().drains_enqueued.load(), t.subtrees_offloaded)
        << "seed " << seed;
    offloaded_total += t.subtrees_offloaded;
  }
  EXPECT_GT(offloaded_total, 0u)
      << "the scatter spec must actually exercise the offloaded-drain path";
}

class SchedulePermutation : public ::testing::TestWithParam<std::string> {};

TEST_P(SchedulePermutation, ForkTreeUnderManySchedules) {
  for (std::uint64_t seed = 0; seed < 25; ++seed) {
    run_seeded(GetParam(), seed, setup_fork_tree, 0);
    EXPECT_EQ(g_leaves.load(), 32) << "seed " << seed;
  }
}

TEST_P(SchedulePermutation, ChainLadderUnderManySchedules) {
  for (std::uint64_t seed = 0; seed < 25; ++seed) {
    // 2 (make) + 20 * (2 chain + 2 spawn) = 82 vertices.
    run_seeded(GetParam(), seed, setup_chain_ladder, 82);
  }
}

TEST_P(SchedulePermutation, MixedNestingUnderManySchedules) {
  for (std::uint64_t seed = 0; seed < 25; ++seed) {
    run_seeded(GetParam(), seed, setup_mixed, 0);
    EXPECT_EQ(g_leaves.load(), 8 + 4 + 100 + 1000) << "seed " << seed;
  }
}

TEST_P(SchedulePermutation, BatchFanoutUnderManySchedules) {
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    // 2 (make) + 24 batch children + 8 nested batches * 5 = 66 vertices.
    run_seeded(GetParam(), seed, setup_batch_fanout, 66);
    EXPECT_EQ(g_leaves.load(), 16 + 8 * 5) << "seed " << seed;
  }
}

TEST_P(SchedulePermutation, BatchMixedFinishThenUnderManySchedules) {
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    run_seeded(GetParam(), seed, setup_batch_mixed, 0);
    EXPECT_EQ(g_leaves.load(), 70 + 3 * 10) << "seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Algos, SchedulePermutation,
                         ::testing::Values("faa", "snzi:2", "dyn:1", "dyn:16"),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           std::string name = info.param;
                           for (char& ch : name) {
                             if (ch == ':') ch = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace spdag
