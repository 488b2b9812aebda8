// Tests for the private-deques scheduler (Acar-Charguéraud-Rainey,
// PPoPP'13), out-set drain vertices under its steal-request protocol, and
// cross-scheduler equivalence checks.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <tuple>

#include "harness/workloads.hpp"
#include "outset/outset.hpp"
#include "sched/runtime.hpp"

namespace spdag {
namespace {

runtime_config pd(std::size_t workers, const std::string& counter = "dyn") {
  runtime_config cfg{workers, counter};
  cfg.sched = "private";
  return cfg;
}

TEST(PrivateDeques, RunsTrivialDag) {
  runtime rt(pd(2));
  std::atomic<int> ran{0};
  rt.run([&ran] { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 1);
}

TEST(PrivateDeques, SingleWorkerNeverSteals) {
  runtime rt(pd(1));
  harness::fanin(rt, 1 << 10);
  EXPECT_EQ(rt.sched().totals().steals, 0u);
  EXPECT_EQ(rt.engine().live_vertices(), 0u);
}

TEST(PrivateDeques, StealsMigrateWorkAcrossWorkers) {
  runtime rt(pd(4));
  rt.sched().reset_totals();
  // Leaves carry 1 us of work each: with empty leaves one worker can finish
  // the whole fan-in before a parked peer's timeout wins a CPU on a loaded
  // host, which is correct scheduling but leaves nothing to steal.
  harness::fanin(rt, 1 << 14, /*work_ns=*/1000);
  EXPECT_GT(rt.sched().totals().steals, 0u)
      << "a wide fanin should trigger at least one successful steal request";
}

TEST(PrivateDeques, RepeatedRunsStaySound) {
  runtime rt(pd(3));
  for (int i = 0; i < 30; ++i) {
    EXPECT_EQ(harness::fib(rt, 14), 377u) << "run " << i;
    EXPECT_EQ(rt.engine().live_vertices(), 0u);
  }
}

class PrivateDequesMatrix
    : public ::testing::TestWithParam<std::tuple<std::string, std::size_t>> {};

TEST_P(PrivateDequesMatrix, FibCorrect) {
  runtime rt(pd(std::get<1>(GetParam()), std::get<0>(GetParam())));
  EXPECT_EQ(harness::fib(rt, 18), 2584u);
}

TEST_P(PrivateDequesMatrix, FaninConserves) {
  runtime rt(pd(std::get<1>(GetParam()), std::get<0>(GetParam())));
  harness::fanin(rt, 1 << 11);
  const auto& st = rt.engine().stats();
  EXPECT_EQ(st.vertices_created.load(), st.vertices_recycled.load());
  EXPECT_EQ(rt.engine().live_vertices(), 0u);
}

TEST_P(PrivateDequesMatrix, Indegree2Conserves) {
  runtime rt(pd(std::get<1>(GetParam()), std::get<0>(GetParam())));
  harness::indegree2(rt, 1 << 11);
  EXPECT_EQ(rt.engine().live_vertices(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AlgosAndWorkers, PrivateDequesMatrix,
    ::testing::Combine(::testing::Values("faa", "snzi:2", "dyn:1", "dyn"),
                       ::testing::Values(std::size_t{1}, std::size_t{2},
                                         std::size_t{4}, std::size_t{8})),
    [](const ::testing::TestParamInfo<std::tuple<std::string, std::size_t>>& info) {
      std::string algo = std::get<0>(info.param);
      for (char& ch : algo) {
        if (ch == ':') ch = '_';
      }
      return algo + "_w" + std::to_string(std::get<1>(info.param));
    });

// --- drain vertices under the steal-request protocol ---

// Drain task that bumps a counter and releases itself, per the ownership
// contract (whoever receives it calls run() exactly once). `sleep_ms` makes
// it slow enough that a final vertex queued after it runs first.
class counting_drain final : public outset_drain_task {
 public:
  explicit counting_drain(std::atomic<int>* runs, int sleep_ms = 0)
      : runs_(runs), sleep_ms_(sleep_ms) {}
  void run() override {
    if (sleep_ms_ > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms_));
    }
    runs_->fetch_add(1, std::memory_order_acq_rel);
    delete this;
  }

 private:
  std::atomic<int>* runs_;
  int sleep_ms_;
};

// A vertex chain that keeps one vertex of its own above the drains in its
// worker's deque: the worker always pops the chain (LIFO), while a steal
// request is answered with the oldest task, a drain. The chain only ends
// once every drain has run, which pins that path deterministically.
void chain_until_drained(std::atomic<int>* runs, int total) {
  if (runs->load(std::memory_order_acquire) >= total) return;
  finish_then([] {}, [runs, total] { chain_until_drained(runs, total); });
}

TEST(PrivateDequesDrains, EmptyDequeAnswersStealRequestWithQueuedDrain) {
  constexpr int kDrains = 8;
  runtime rt(pd(2));
  std::atomic<int> runs{0};
  rt.run([&runs] {
    // Enqueued from a worker thread: all land at the top of THIS worker's
    // deque. The chain below never goes idle and never lets its worker pop
    // a drain, so the drains can only run on the other worker, which gets
    // each one by a steal request.
    for (int i = 0; i < kDrains; ++i) {
      dag_engine::current_engine()->enqueue_drain(new counting_drain(&runs));
    }
    chain_until_drained(&runs, kDrains);
  });
  EXPECT_EQ(runs.load(), kDrains) << "every drain must run exactly once";
  EXPECT_EQ(rt.sched().totals().steals, static_cast<std::uint64_t>(kDrains))
      << "every drain must leave its worker through a steal request";
}

TEST(PrivateDequesDrains, RunWaitsForDrainQuiescence) {
  // A drain enqueued mid-dag with no consumer gating the finish on it must
  // still be delivered before run() returns, under either scheduler and on
  // any worker count. Each drain sleeps, so the final vertex runs first.
  for (const char* sched : {"ws", "private"}) {
    for (std::size_t workers : {std::size_t{1}, std::size_t{3}}) {
      runtime_config cfg{workers, "dyn"};
      cfg.sched = sched;
      runtime rt(cfg);
      std::atomic<int> runs{0};
      rt.run([&runs] {
        for (int i = 0; i < 4; ++i) {
          dag_engine::current_engine()->enqueue_drain(
              new counting_drain(&runs, /*sleep_ms=*/1));
        }
      });
      EXPECT_EQ(runs.load(), 4) << sched << ", workers=" << workers;
      EXPECT_EQ(rt.engine().drains_pending(), 0u);
      EXPECT_EQ(rt.engine().live_vertices(), 0u);
    }
  }
}

// Both schedulers must produce identical program results and conservation
// properties on the same workloads.
class SchedulerEquivalence : public ::testing::TestWithParam<std::string> {};

TEST_P(SchedulerEquivalence, SameFibAcrossSchedulers) {
  runtime_config cfg{3, "dyn"};
  cfg.sched = GetParam();
  runtime rt(cfg);
  EXPECT_EQ(harness::fib(rt, 20), 6765u);
  EXPECT_EQ(rt.engine().live_vertices(), 0u);
}

TEST_P(SchedulerEquivalence, GranularityWorkload) {
  runtime_config cfg{2, "dyn"};
  cfg.sched = GetParam();
  runtime rt(cfg);
  harness::fanin(rt, 1 << 8, /*work_ns=*/200);
  EXPECT_EQ(rt.engine().live_vertices(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Schedulers, SchedulerEquivalence,
                         ::testing::Values("ws", "private"));

TEST(SchedulerSpec, UnknownSpecThrows) {
  runtime_config cfg{1, "dyn"};
  cfg.sched = "bogus";
  EXPECT_THROW(runtime rt(cfg), std::invalid_argument);
}

}  // namespace
}  // namespace spdag
