// Tests for the private-deques scheduler (Acar-Charguéraud-Rainey,
// PPoPP'13), its receiver-initiated drain hand-off protocol, and
// cross-scheduler equivalence checks.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <tuple>

#include "harness/workloads.hpp"
#include "outset/outset.hpp"
#include "sched/private_deques.hpp"
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

// --- receiver-initiated drain hand-off protocol ---

// Drain task that bumps a counter and releases itself, per the ownership
// contract (whoever receives it calls run() exactly once).
class counting_drain final : public outset_drain_task {
 public:
  explicit counting_drain(std::atomic<int>* runs) : runs_(runs) {}
  void run() override {
    runs_->fetch_add(1, std::memory_order_acq_rel);
    delete this;
  }

 private:
  std::atomic<int>* runs_;
};

// A vertex chain that keeps its worker's deque at exactly one task between
// polls: every communicate() sees no vertex to spare, so a pending steal
// request MUST be answered with a queued drain. The chain only ends once
// every drain has run, which pins the full hand-off path deterministically.
void chain_until_drained(std::atomic<int>* runs, int total) {
  if (runs->load(std::memory_order_acquire) >= total) return;
  finish_then([] {}, [runs, total] { chain_until_drained(runs, total); });
}

TEST(PrivateDequesDrains, EmptyDequeAnswersStealRequestWithQueuedDrain) {
  constexpr int kDrains = 8;
  runtime rt(pd(2));
  std::atomic<int> runs{0};
  scheduler_base& sched = rt.sched();
  rt.run([&runs, &sched] {
    // Enqueued from a worker thread: all land on THIS worker's private
    // queue. The chain below never yields a spare vertex and never goes
    // idle, so the only way the drains can run before the dag ends is the
    // other worker's steal requests being answered with them.
    for (int i = 0; i < kDrains; ++i) {
      sched.enqueue_drain(new counting_drain(&runs));
    }
    chain_until_drained(&runs, kDrains);
  });
  EXPECT_EQ(runs.load(), kDrains) << "every drain must run exactly once";
  const scheduler_totals t = rt.sched().totals();
  EXPECT_EQ(t.drains_executed, static_cast<std::uint64_t>(kDrains));
  EXPECT_EQ(t.drains_handed_off, static_cast<std::uint64_t>(kDrains))
      << "a worker with an empty deque but queued drains must answer steal "
         "requests with the drains";
  EXPECT_EQ(t.drains_stolen, static_cast<std::uint64_t>(kDrains))
      << "every handed-off drain ran on the thief, not the enqueuer";
}

TEST(PrivateDequesDrains, RunWaitsForDrainQuiescence) {
  // A drain enqueued mid-dag with no consumer gating the finish on it must
  // still be delivered before run() returns (drains count toward
  // quiescence), on any worker count — including the single-worker inline
  // path, where nothing is queued at all.
  for (std::size_t workers : {std::size_t{1}, std::size_t{3}}) {
    runtime rt(pd(workers));
    std::atomic<int> runs{0};
    scheduler_base& sched = rt.sched();
    rt.run([&runs, &sched] {
      for (int i = 0; i < 4; ++i) {
        sched.enqueue_drain(new counting_drain(&runs));
      }
    });
    EXPECT_EQ(runs.load(), 4) << "workers=" << workers;
    if (workers == 1) {
      EXPECT_EQ(rt.sched().totals().drains_executed, 0u)
          << "a single worker has no thief to hand to: drains run inline "
             "through the trampoline, invisible to the lane stats";
    }
  }
}

TEST(PrivateDequesDrains, ShutdownWithUndrainedQueuesRunsThemWithoutLeaking) {
  // Unstructured teardown: drains injected from a non-worker thread with no
  // run() to drive quiescence. Destruction must neither leak the tasks
  // (each counting_drain frees itself in run(); ASan would flag the loss)
  // nor deadlock the join — whatever idle workers did not adopt in time is
  // flushed by the destructor itself.
  constexpr int kDrains = 64;
  std::atomic<int> runs{0};
  {
    private_deque_scheduler sched(scheduler_config{2, false});
    for (int i = 0; i < kDrains; ++i) {
      sched.enqueue_drain(new counting_drain(&runs));
    }
  }  // destroyed immediately: queues may well still hold tasks
  EXPECT_EQ(runs.load(), kDrains)
      << "every enqueued drain must run exactly once across adoption and "
         "teardown";
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
