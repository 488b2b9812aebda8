// Tests for the benchmark harness itself: workload correctness, the sweep
// generators, and the config runner.

#include <gtest/gtest.h>

#include "harness/bench_runner.hpp"
#include "harness/workloads.hpp"
#include "incounter/incounter.hpp"
#include "sched/runtime.hpp"

namespace spdag::harness {
namespace {

TEST(Workloads, FibKnownValues) {
  runtime rt(runtime_config{2, "dyn"});
  EXPECT_EQ(fib(rt, 0), 0u);
  EXPECT_EQ(fib(rt, 1), 1u);
  EXPECT_EQ(fib(rt, 2), 1u);
  EXPECT_EQ(fib(rt, 10), 55u);
  EXPECT_EQ(fib(rt, 21), 10946u);
}

TEST(Workloads, FaninLeafCountMatchesN) {
  // The spawn tree over n leaves performs exactly n-1 spawns.
  runtime rt(runtime_config{1, "dyn"});
  for (std::uint64_t n : {2ull, 3ull, 7ull, 64ull, 100ull}) {
    rt.engine().reset_stats();
    fanin(rt, n);
    EXPECT_EQ(rt.engine().stats().spawns.load(), n - 1) << "n=" << n;
  }
}

TEST(Workloads, Indegree2CreatesOneFinishPerSplit) {
  runtime rt(runtime_config{1, "dyn"});
  rt.engine().reset_stats();
  indegree2(rt, 8);  // splits: 8 -> (4,4) -> (2,2,2,2): 7 splits
  EXPECT_EQ(rt.engine().stats().chains.load(), 7u);
  EXPECT_EQ(rt.engine().stats().spawns.load(), 7u);
}

TEST(Workloads, NonPowerOfTwoSizes) {
  runtime rt(runtime_config{2, "dyn"});
  rt.engine().reset_stats();
  fanin(rt, 1000);
  EXPECT_EQ(rt.engine().stats().spawns.load(), 999u);
  indegree2(rt, 999);
  EXPECT_EQ(rt.engine().live_vertices(), 0u);
}

TEST(WorkerSweep, SmallMaxEnumeratesAll) {
  EXPECT_EQ(worker_sweep(1), (std::vector<std::size_t>{1}));
  EXPECT_EQ(worker_sweep(4), (std::vector<std::size_t>{1, 2, 3, 4}));
}

TEST(WorkerSweep, LargeMaxIsThinnedAndEndsAtMax) {
  const auto s = worker_sweep(40, 8);
  EXPECT_LE(s.size(), 8u);
  EXPECT_EQ(s.front(), 1u);
  EXPECT_EQ(s.back(), 40u);
  for (std::size_t i = 1; i < s.size(); ++i) EXPECT_GT(s[i], s[i - 1]);
}

TEST(WorkerSweep, ZeroIsTreatedAsOne) {
  EXPECT_EQ(worker_sweep(0), (std::vector<std::size_t>{1}));
}

TEST(RunConfig, ProducesSaneThroughput) {
  bench_config cfg;
  cfg.workload = "fanin";
  cfg.algo = "faa";
  cfg.workers = 1;
  cfg.n = 1 << 10;
  cfg.repetitions = 2;
  const bench_result r = run_config(cfg);
  EXPECT_GT(r.mean_s, 0.0);
  EXPECT_GE(r.max_s, r.min_s);
  EXPECT_GT(r.ops_per_s_per_core, 0.0);
  EXPECT_DOUBLE_EQ(r.ops_per_s, r.ops_per_s_per_core);  // 1 worker
}

TEST(RunConfig, RejectsUnknownWorkload) {
  bench_config cfg;
  cfg.workload = "bogus";
  EXPECT_THROW(run_config(cfg), std::invalid_argument);
}

TEST(RunConfig, ChurnWorkloadSurfacesPoolStats) {
  bench_config cfg;
  cfg.workload = "churn";
  cfg.algo = "dyn";
  cfg.workers = 1;
  cfg.n = 1 << 9;
  cfg.repetitions = 2;
  cfg.alloc = "pool";
  const bench_result r = run_config(cfg);
  EXPECT_GT(r.ops_per_s, 0.0);
  ASSERT_FALSE(r.pools.empty()) << "run_config must snapshot the registry";
  std::uint64_t allocs = 0;
  bool saw_future_state = false;
  for (const auto& row : r.pools) {
    allocs += row.stats.allocs;
    saw_future_state |= row.name.rfind("future_state", 0) == 0;
  }
  EXPECT_GT(allocs, 0u);
  EXPECT_TRUE(saw_future_state);
  // The warm-up run carved the slabs; the measured runs must not grow them
  // (the same steady-state claim bench/future_churn makes, single worker
  // here so magazine contents cannot migrate between runs).
  EXPECT_EQ(r.measured_slab_growths, 0u);
}

TEST(RunConfig, MallocAllocSpecCountsEveryUpstreamTrip) {
  bench_config cfg;
  cfg.workload = "churn";
  cfg.algo = "faa";
  cfg.workers = 1;
  cfg.n = 1 << 8;
  cfg.repetitions = 1;
  cfg.alloc = "malloc";
  const bench_result r = run_config(cfg);
  pool_stats totals;
  for (const auto& row : r.pools) totals += row.stats;
  EXPECT_EQ(totals.slab_growths, totals.allocs)
      << "under alloc:malloc every allocation is an upstream trip";
  EXPECT_GT(r.measured_slab_growths, 0u);
}

TEST(CounterOps, MatchesReportingConvention) {
  EXPECT_EQ(counter_ops(1), 2u);
  EXPECT_EQ(counter_ops(1 << 20), 2ull << 20);
}

// Counter-style use of the in-counter with initial surplus > 1: the dag only
// needs {0,1}, but the structure itself supports any n at the base.
TEST(IncounterMultiSurplus, BaseHoldsArbitraryInitialSurplus) {
  incounter ic(5);
  for (int i = 0; i < 4; ++i) {
    EXPECT_FALSE(ic.depart(ic.root_token()));
  }
  EXPECT_FALSE(ic.is_zero());
  EXPECT_TRUE(ic.depart(ic.root_token()));
  EXPECT_TRUE(ic.is_zero());
}

}  // namespace
}  // namespace spdag::harness
