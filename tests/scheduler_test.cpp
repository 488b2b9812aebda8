// Tests for the Chase-Lev deque and the work-stealing scheduler.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "dag/future.hpp"
#include "harness/workloads.hpp"
#include "mem/epoch.hpp"
#include "sched/chase_lev.hpp"
#include "sched/runtime.hpp"
#include "sched/scheduler.hpp"

namespace spdag {
namespace {

// --- Chase-Lev deque -------------------------------------------------------

struct item {
  explicit item(int v) : value(v) {}
  int value;
};

TEST(ChaseLev, LifoForOwner) {
  chase_lev_deque<item> d;
  item a(1), b(2), c(3);
  d.push_bottom(&a);
  d.push_bottom(&b);
  d.push_bottom(&c);
  EXPECT_EQ(d.pop_bottom(), &c);
  EXPECT_EQ(d.pop_bottom(), &b);
  EXPECT_EQ(d.pop_bottom(), &a);
  EXPECT_EQ(d.pop_bottom(), nullptr);
}

TEST(ChaseLev, FifoForThieves) {
  chase_lev_deque<item> d;
  item a(1), b(2), c(3);
  d.push_bottom(&a);
  d.push_bottom(&b);
  d.push_bottom(&c);
  EXPECT_EQ(d.steal_top(), &a);
  EXPECT_EQ(d.steal_top(), &b);
  EXPECT_EQ(d.steal_top(), &c);
  EXPECT_EQ(d.steal_top(), nullptr);
}

TEST(ChaseLev, GrowsPastInitialCapacity) {
  chase_lev_deque<item> d(/*initial_log_capacity=*/2);  // 4 slots
  std::vector<std::unique_ptr<item>> items;
  for (int i = 0; i < 1000; ++i) {
    items.push_back(std::make_unique<item>(i));
    d.push_bottom(items.back().get());
  }
  EXPECT_GE(d.capacity(), 1000u);
  for (int i = 999; i >= 0; --i) {
    item* it = d.pop_bottom();
    ASSERT_NE(it, nullptr);
    EXPECT_EQ(it->value, i);
  }
}

TEST(ChaseLev, EveryItemTakenExactlyOnceUnderTheft) {
  constexpr int kItems = 30000;
  constexpr int kThieves = 3;
  chase_lev_deque<item> d;
  std::vector<std::unique_ptr<item>> items;
  items.reserve(kItems);
  for (int i = 0; i < kItems; ++i) items.push_back(std::make_unique<item>(i));

  std::vector<std::vector<int>> stolen(kThieves);
  std::vector<int> popped;
  std::atomic<bool> owner_done{false};

  std::vector<std::thread> thieves;
  for (int t = 0; t < kThieves; ++t) {
    thieves.emplace_back([&, t] {
      while (!owner_done.load(std::memory_order_acquire) || d.size_estimate() > 0) {
        if (item* it = d.steal_top()) stolen[static_cast<size_t>(t)].push_back(it->value);
      }
    });
  }
  // Owner interleaves pushes and pops.
  for (int i = 0; i < kItems; ++i) {
    d.push_bottom(items[static_cast<size_t>(i)].get());
    if ((i & 3) == 0) {
      if (item* it = d.pop_bottom()) popped.push_back(it->value);
    }
  }
  for (;;) {
    item* it = d.pop_bottom();
    if (it == nullptr) break;
    popped.push_back(it->value);
  }
  owner_done.store(true, std::memory_order_release);
  for (auto& th : thieves) th.join();

  std::vector<int> all(popped);
  for (const auto& s : stolen) all.insert(all.end(), s.begin(), s.end());
  std::sort(all.begin(), all.end());
  ASSERT_EQ(all.size(), static_cast<std::size_t>(kItems))
      << "items lost or duplicated under concurrent stealing";
  for (int i = 0; i < kItems; ++i) EXPECT_EQ(all[static_cast<size_t>(i)], i);
}

// --- scheduler -------------------------------------------------------------

TEST(Scheduler, WorkerCountDefaultsToHardware) {
  scheduler s;
  EXPECT_GE(s.worker_count(), 1u);
}

TEST(Scheduler, RunsTrivialDag) {
  runtime rt(runtime_config{2, "dyn:1"});
  std::atomic<int> ran{0};
  rt.run([&ran] { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 1);
}

TEST(Scheduler, RunIsRepeatable) {
  runtime rt(runtime_config{2, "dyn:1"});
  std::atomic<int> ran{0};
  for (int i = 0; i < 50; ++i) {
    rt.run([&ran] { ran.fetch_add(1); });
  }
  EXPECT_EQ(ran.load(), 50);
}

class SchedulerWorkers : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SchedulerWorkers, ParallelFibIsCorrect) {
  runtime rt(runtime_config{GetParam(), "dyn"});
  EXPECT_EQ(harness::fib(rt, 20), 6765u);
}

TEST_P(SchedulerWorkers, FaninCompletesAndConserves) {
  runtime rt(runtime_config{GetParam(), "dyn"});
  harness::fanin(rt, 1 << 12);
  const auto& st = rt.engine().stats();
  EXPECT_EQ(st.vertices_created.load(), st.vertices_recycled.load());
  EXPECT_EQ(rt.engine().live_vertices(), 0u);
}

TEST_P(SchedulerWorkers, Indegree2Completes) {
  runtime rt(runtime_config{GetParam(), "dyn"});
  harness::indegree2(rt, 1 << 12);
  EXPECT_EQ(rt.engine().live_vertices(), 0u);
}

INSTANTIATE_TEST_SUITE_P(WorkerCounts, SchedulerWorkers,
                         ::testing::Values(1, 2, 3, 4, 8));

// The steal is made necessary: the worker that runs the root runs the
// waiter first (it enqueued it last, so it holds it in its slot) and spins
// in it until the setter has run, which only another worker can do. Under
// private a victim inside a body never answers a steal request, so this
// stays on ws. The waiter gives up after 10 s, so a scheduler that never
// steals fails here instead of hanging.
TEST(Scheduler, StealsHappenWithMultipleWorkers) {
  runtime rt(runtime_config{4, "dyn"});
  rt.sched().reset_totals();
  int root_id = -1;
  std::atomic<int> setter_id{-1};
  rt.run([&] {
    root_id = scheduler::current_worker_id();
    fork2(
        [&setter_id] {
          setter_id.store(scheduler::current_worker_id(),
                          std::memory_order_release);
        },
        [&setter_id] {
          const auto give_up =
              std::chrono::steady_clock::now() + std::chrono::seconds(10);
          while (setter_id.load(std::memory_order_acquire) < 0 &&
                 std::chrono::steady_clock::now() < give_up) {
          }
        });
  });
  ASSERT_GE(setter_id.load(), 0) << "the setter never ran on another worker";
  EXPECT_NE(setter_id.load(), root_id);
  EXPECT_GE(rt.sched().totals().steals, 1u);
}

TEST(Scheduler, ExternalEnqueueGoesThroughInjectionQueue) {
  // run() is called from this (non-worker) thread, so the root is injected;
  // the dag still completes.
  runtime rt(runtime_config{1, "faa"});
  std::atomic<bool> ran{false};
  rt.run([&ran] { ran.store(true); });
  EXPECT_TRUE(ran.load());
}

TEST(Scheduler, ManyConsecutiveRunsDoNotLeakVertices) {
  runtime rt(runtime_config{2, "dyn"});
  for (int i = 0; i < 20; ++i) {
    harness::fanin(rt, 1 << 8);
    EXPECT_EQ(rt.engine().live_vertices(), 0u) << "leak after run " << i;
  }
}

TEST(Scheduler, CurrentWorkerIdIsMinusOneOutside) {
  EXPECT_EQ(scheduler::current_worker_id(), -1);
}

// One scheduler switched from run() to service mode and back. After each
// phase the scheduler's execution count equals the engine's, and
// end_service() leaves nothing queued, running or live.
// --- execution order on one worker ----------------------------------------
//
// One worker runs the vertex it enqueued last first (LIFO): a fork2 runs
// its right child's whole subtree, then its left child's. The worker's slot
// holds that newest vertex outside the queue, and these pin that it does
// not change the order. Bodies record labels; with one worker they all run
// on one thread, and run() returning publishes what they wrote.

class OneWorkerOrder : public ::testing::TestWithParam<std::string> {
 protected:
  runtime rt{{.workers = 1, .counter = "dyn", .sched = GetParam()}};
  std::vector<std::string> order;
};

std::string label(char kind, int i) { return kind + std::to_string(i); }

void fork2_tree(std::vector<std::string>* out, int id, int depth) {
  out->push_back(label('n', id));
  if (depth == 0) return;
  fork2([out, id, depth] { fork2_tree(out, 2 * id, depth - 1); },
        [out, id, depth] { fork2_tree(out, 2 * id + 1, depth - 1); });
}

// Right child (enqueued last) first, each subtree whole.
void lifo_tree(std::vector<std::string>* out, int id, int depth) {
  out->push_back(label('n', id));
  if (depth == 0) return;
  lifo_tree(out, 2 * id + 1, depth - 1);
  lifo_tree(out, 2 * id, depth - 1);
}

TEST_P(OneWorkerOrder, Fork2TreeRunsRightSubtreeFirst) {
  auto* out = &order;
  rt.run([out] { fork2_tree(out, 1, 4); });
  std::vector<std::string> expect;
  lifo_tree(&expect, 1, 4);
  EXPECT_EQ(order, expect);
}

// Rung i: a finish block whose body forks two leaves, then its continuation,
// which starts rung i + 1.
void finish_ladder(std::vector<std::string>* out, int i, int rungs) {
  finish_then(
      [out, i] {
        out->push_back(label('f', i));
        fork2([out, i] { out->push_back(label('a', i)); },
              [out, i] { out->push_back(label('b', i)); });
      },
      [out, i, rungs] {
        out->push_back(label('t', i));
        if (i + 1 < rungs) finish_ladder(out, i + 1, rungs);
      });
}

TEST_P(OneWorkerOrder, FinishThenLadderRunsEachBlockBeforeItsContinuation) {
  constexpr int kRungs = 4;
  auto* out = &order;
  rt.run([out] { finish_ladder(out, 0, kRungs); });
  std::vector<std::string> expect;
  for (int i = 0; i < kRungs; ++i) {
    for (char kind : {'f', 'b', 'a', 't'}) expect.push_back(label(kind, i));
  }
  EXPECT_EQ(order, expect);
}

// Link i: the consumer side (enqueued last) registers first, then the
// producer completes the future and the registered consumer starts link
// i + 1.
void future_chain(std::vector<std::string>* out, int i, int links) {
  fork2_future<int>(
      [out, i] {
        out->push_back(label('p', i));
        return i;
      },
      [out, i, links](future<int> f) {
        out->push_back(label('c', i));
        future_then(f, [out, links](int v) {
          out->push_back(label('v', v));
          if (v + 1 < links) future_chain(out, v + 1, links);
        });
      });
}

TEST_P(OneWorkerOrder, FutureThenChainRunsConsumerSideFirst) {
  constexpr int kLinks = 4;
  auto* out = &order;
  rt.run([out] { future_chain(out, 0, kLinks); });
  std::vector<std::string> expect;
  for (int i = 0; i < kLinks; ++i) {
    for (char kind : {'c', 'p', 'v'}) expect.push_back(label(kind, i));
  }
  EXPECT_EQ(order, expect);
}

INSTANTIATE_TEST_SUITE_P(Schedulers, OneWorkerOrder,
                         ::testing::Values("ws", "private"));

class SchedulerLifecycle : public ::testing::TestWithParam<std::string> {};

TEST_P(SchedulerLifecycle, RunThenServiceThenRunKeepsTheLedgersEqual) {
  runtime_config cfg{4, "dyn"};
  cfg.sched = GetParam();
  runtime rt(cfg);
  auto expect_ledgers_equal = [&rt](const char* phase) {
    EXPECT_EQ(rt.sched().totals().executions,
              rt.engine().stats().executions.load())
        << "after " << phase;
  };

  harness::fanin(rt, 1 << 12);
  expect_ledgers_equal("the first run");

  constexpr int kDags = 64;
  std::atomic<int> completed{0};
  rt.sched().begin_service(rt.engine());
  {
    // make() and add() touch pooled memory: the injecting thread follows
    // the workers' epoch protocol.
    mem::epoch::pin_guard pg;
    for (int i = 0; i < kDags; ++i) {
      auto [root, final_v] = rt.engine().make();
      root->body = [] {};
      final_v->body = [&completed] {
        completed.fetch_add(1, std::memory_order_release);
      };
      rt.engine().add(root);
    }
  }
  // end_service() requires every dag to have finished: a final vertex can
  // sit in a worker's deque while the scheduler looks idle.
  while (completed.load(std::memory_order_acquire) < kDags) {
    std::this_thread::yield();
  }
  rt.sched().end_service();
  EXPECT_TRUE(rt.sched().service_idle());
  EXPECT_EQ(rt.engine().live_vertices(), 0u);
  expect_ledgers_equal("service mode");

  harness::fanin(rt, 1 << 12);
  expect_ledgers_equal("the second run");
}

INSTANTIATE_TEST_SUITE_P(Schedulers, SchedulerLifecycle,
                         ::testing::Values("ws", "private"));

}  // namespace
}  // namespace spdag
