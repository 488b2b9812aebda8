// End-to-end integration: the full stack (work-stealing scheduler + sp-dag +
// pluggable counters) across algorithms and workloads, plus the appendix-B
// space-bound property observed through instrumentation.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "harness/workloads.hpp"
#include "mem/thread_slot.hpp"
#include "sched/runtime.hpp"

namespace spdag {
namespace {

using Param = std::tuple<std::string /*algo*/, std::size_t /*workers*/>;

class RuntimeIntegration : public ::testing::TestWithParam<Param> {
 protected:
  runtime_config cfg() const {
    auto [algo, workers] = GetParam();
    return runtime_config{workers, algo};
  }
};

TEST_P(RuntimeIntegration, FibMatchesReference) {
  runtime rt(cfg());
  EXPECT_EQ(harness::fib(rt, 18), 2584u);
}

TEST_P(RuntimeIntegration, FaninConservesEverything) {
  runtime rt(cfg());
  harness::fanin(rt, 1 << 11);
  const auto& st = rt.engine().stats();
  EXPECT_EQ(st.vertices_created.load(), st.vertices_recycled.load());
  EXPECT_EQ(st.executions.load(), st.vertices_created.load());
  if (rt.engine().uses_tokens()) {
    EXPECT_EQ(st.pairs_created.load(), st.pairs_recycled.load());
  }
  EXPECT_EQ(rt.engine().live_vertices(), 0u);
}

TEST_P(RuntimeIntegration, Indegree2Conserves) {
  runtime rt(cfg());
  harness::indegree2(rt, 1 << 11);
  EXPECT_EQ(rt.engine().live_vertices(), 0u);
  EXPECT_EQ(rt.engine().stats().pairs_created.load(),
            rt.engine().stats().pairs_recycled.load());
}

TEST_P(RuntimeIntegration, GranularityWorkloadCompletes) {
  runtime rt(cfg());
  harness::fanin(rt, 1 << 8, /*work_ns=*/100);
  EXPECT_EQ(rt.engine().live_vertices(), 0u);
}

TEST_P(RuntimeIntegration, BackToBackRunsAreIndependent) {
  runtime rt(cfg());
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(harness::fib(rt, 12), 144u) << "run " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AlgosAndWorkers, RuntimeIntegration,
    ::testing::Combine(::testing::Values("faa", "snzi:2", "snzi:4", "dyn:1",
                                         "dyn:128"),
                       ::testing::Values(std::size_t{1}, std::size_t{3})),
    [](const ::testing::TestParamInfo<Param>& info) {
      std::string algo = std::get<0>(info.param);
      for (char& ch : algo) {
        if (ch == ':') ch = '_';
      }
      return algo + "_w" + std::to_string(std::get<1>(info.param));
    });

// --- claim-order ablation still behaves correctly ---

TEST(ClaimOrderAblation, RandomizedClaimIsStillCorrect) {
  // Randomized claim order voids Lemma 4.6, so reclamation must be off.
  runtime_config cfg{2, "dyn:1:noreclaim"};
  cfg.engine_options.randomize_claim_order = true;
  runtime rt(cfg);
  EXPECT_EQ(harness::fib(rt, 16), 987u);
  harness::fanin(rt, 1 << 10);
  EXPECT_EQ(rt.engine().live_vertices(), 0u);
}

// --- space bounds (appendix B) ---

TEST(SpaceBounds, ReclamationKeepsAllocationsFlat) {
  // threshold 1 + reclamation: a fanin of 64k leaves must allocate far
  // fewer SNZI pairs than it performs increments, because drained pairs are
  // recycled through the pool.
  snzi::tree_stats stats;
  runtime rt(runtime_config{2, "dyn:1", false, &stats});
  const std::uint64_t n = 1 << 16;
  harness::fanin(rt, n);
  const auto allocs = stats.grow_allocs.load();
  const auto reuses = stats.grow_reuses.load();
  EXPECT_GT(allocs + reuses, n / 2) << "growth should happen on most spawns";
  EXPECT_LT(allocs, n / 8) << "reclamation failed to bound fresh allocations";
  EXPECT_GT(reuses, 0u);
}

TEST(SpaceBounds, ProbabilisticGrowthAllocatesAboutNOverThreshold) {
  snzi::tree_stats stats;
  const std::uint64_t threshold = 256;
  runtime rt(runtime_config{1, "dyn:" + std::to_string(threshold), false, &stats});
  const std::uint64_t n = 1 << 16;
  harness::fanin(rt, n);
  const double expected = static_cast<double>(n) / static_cast<double>(threshold);
  const auto allocs = static_cast<double>(stats.grow_allocs.load());
  EXPECT_LT(allocs, 8 * expected) << "far more growth than p*increments";
  EXPECT_GT(allocs, 0.0);
}

TEST(SpaceBounds, ThresholdZeroNeverAllocates) {
  snzi::tree_stats stats;
  runtime rt(runtime_config{1, "dyn:0", false, &stats});
  harness::fanin(rt, 1 << 12);
  EXPECT_EQ(stats.grow_allocs.load(), 0u);
  EXPECT_EQ(stats.grow_reuses.load(), 0u);
}

// --- theory bounds hold through the full runtime (p = 1) ---

TEST(TheoryBounds, AmortizedArrivesPerIncrementAtMostThree) {
  snzi::tree_stats stats;
  runtime rt(runtime_config{3, "dyn:1", false, &stats});
  harness::fanin(rt, 1 << 14);
  const double increments = static_cast<double>(rt.engine().stats().spawns.load());
  const double arrives = static_cast<double>(stats.arrives.load()) +
                         static_cast<double>(stats.root_arrives.load());
  ASSERT_GT(increments, 0.0);
  // Small slack: the per-run chain/final counters contribute a handful of
  // non-increment arrives to the shared stats block.
  EXPECT_LE(arrives / increments, 3.01)
      << "Corollary 4.7 violated on a real execution";
}

TEST(TheoryBounds, DepartsMatchArrives) {
  snzi::tree_stats stats;
  runtime rt(runtime_config{2, "dyn:1", false, &stats});
  harness::fanin(rt, 1 << 12);
  // Undone helper arrivals are counted inside arrives/departs symmetrically,
  // so totals must balance at quiescence.
  EXPECT_EQ(stats.arrives.load() + stats.root_arrives.load(),
            stats.departs.load() + stats.root_departs.load());
}

// --- counters only for vertices that wait ---

TEST(LazyCounters, FaninAcquiresOnlyTheFinishCounters) {
  // A fan-in acquires counters for make()'s final vertex and chain()'s
  // continuation only. Pins: the counter pool serves exactly two
  // allocations per run, however many workers run it, and run() returns
  // only after both counters were released to the pool.
  runtime rt(runtime_config{4, "dyn"});
  auto counter_pool = [&rt] {
    pool_stats sum;
    for (const auto& row : rt.pools().rows()) {
      if (row.name.rfind("counter:", 0) == 0) sum += row.stats;
    }
    return sum;
  };
  for (int run = 0; run < 3; ++run) {
    const std::uint64_t allocs = counter_pool().allocs;
    harness::fanin(rt, 1 << 14);
    const pool_stats after = counter_pool();
    EXPECT_EQ(after.allocs - allocs, 2u) << "run " << run;
    EXPECT_EQ(after.live(), 0u) << "run " << run;
  }
}

// --- the per-thread engine ledger ---

void expect_conserved(const engine_stats& s, bool uses_tokens) {
  EXPECT_GT(s.executions.load(), 0u);
  EXPECT_EQ(s.executions.load(), s.vertices_created.load());
  EXPECT_EQ(s.vertices_created.load(), s.vertices_recycled.load());
  if (uses_tokens) {
    EXPECT_GT(s.pairs_created.load(), 0u);
    EXPECT_EQ(s.pairs_created.load(), s.pairs_recycled.load());
  }
}

TEST(EngineLedger, ExactAfterParallelFaninAndChurn) {
  runtime rt(runtime_config{4, "dyn"});
  const std::uint64_t n = 1 << 15;
  harness::fanin(rt, n);
  engine_stats s = rt.engine().stats();
  expect_conserved(s, rt.engine().uses_tokens());
  EXPECT_EQ(s.spawns.load(), n - 1);

  rt.engine().reset_stats();
  const engine_stats zero = rt.engine().stats();
  EXPECT_EQ(zero.executions.load(), 0u);
  EXPECT_EQ(zero.vertices_created.load(), 0u);
  EXPECT_EQ(zero.pairs_created.load(), 0u);
  EXPECT_EQ(zero.spawns.load(), 0u);
  EXPECT_EQ(zero.edges.load(), 0u);
  EXPECT_EQ(rt.engine().live_vertices(), 0u);

  EXPECT_EQ(harness::future_churn(rt, 1 << 12), 1u << 12);
  expect_conserved(rt.engine().stats(), rt.engine().uses_tokens());
  EXPECT_EQ(rt.engine().live_vertices(), 0u);
}

TEST(EngineLedger, SlotlessThreadsCountThroughTheOverflowRow) {
  // Claim every thread slot: max_thread_slots live holders leave none free,
  // whatever this process already held. Threads started afterwards (the
  // runtime's workers and the caller below) have no slot, so every tally
  // they make lands on the shared overflow row.
  std::atomic<int> claimed{0};
  std::atomic<bool> release{false};
  std::vector<std::thread> holders;
  for (int i = 0; i < mem::max_thread_slots; ++i) {
    holders.emplace_back([&] {
      mem::thread_slot();
      claimed.fetch_add(1, std::memory_order_acq_rel);
      while (!release.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
    });
  }
  while (claimed.load(std::memory_order_acquire) < mem::max_thread_slots) {
    std::this_thread::yield();
  }
  {
    runtime rt(runtime_config{4, "dyn"});
    const std::uint64_t n = 1 << 14;
    std::thread caller([&] {
      ASSERT_EQ(mem::thread_slot(), -1) << "a thread slot was still free";
      harness::fanin(rt, n);
      const engine_stats s = rt.engine().stats();
      expect_conserved(s, rt.engine().uses_tokens());
      EXPECT_EQ(s.spawns.load(), n - 1);
      rt.engine().reset_stats();
      EXPECT_EQ(harness::future_churn(rt, 1 << 10), 1u << 10);
    });
    caller.join();
    expect_conserved(rt.engine().stats(), rt.engine().uses_tokens());
    EXPECT_EQ(rt.engine().live_vertices(), 0u);
  }
  release.store(true, std::memory_order_release);
  for (auto& t : holders) t.join();
}

}  // namespace
}  // namespace spdag
