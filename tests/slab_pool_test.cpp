// Conformance suite for the hot-path memory subsystem (src/mem/): cell
// uniqueness and alignment, exactly-one construction/destruction per
// object, cross-worker free correctness under raw-thread storms (run under
// TSan in CI), geometry-derived magazine capacities (byte budget + clamp),
// quiescent trim (slab release, retained() drain, double-trim no-op,
// engine-level trim_pools), live trim (what it spares, limbo accounting,
// the registry's quiescent flush of its limbo), steady-state slab plateau,
// registry keying, and spec parsing.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <set>
#include <string>
#include <stdexcept>
#include <thread>
#include <vector>

#include "harness/workloads.hpp"
#include "mem/epoch.hpp"
#include "mem/malloc_pool.hpp"
#include "mem/registry.hpp"
#include "mem/slab_pool.hpp"
#include "mem/thread_slot.hpp"
#include "sched/runtime.hpp"
#include "util/rng.hpp"

namespace spdag {
namespace {

struct counted {
  static std::atomic<int> ctors;
  static std::atomic<int> dtors;
  std::uint64_t payload[3];
  explicit counted(std::uint64_t v = 0) : payload{v, v + 1, v + 2} {
    ctors.fetch_add(1, std::memory_order_relaxed);
  }
  ~counted() { dtors.fetch_add(1, std::memory_order_relaxed); }
};
std::atomic<int> counted::ctors{0};
std::atomic<int> counted::dtors{0};

TEST(SlabPool, CellsAreAlignedAndDisjoint) {
  struct alignas(64) wide { char data[96]; };
  slab_pool<wide> pool("wide", /*slab_bytes=*/4096);
  std::set<void*> seen;
  std::vector<void*> cells;
  for (int i = 0; i < 500; ++i) {
    void* p = pool.allocate();
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % 64, 0u);
    EXPECT_TRUE(seen.insert(p).second) << "duplicate live cell";
    cells.push_back(p);
  }
  for (void* p : cells) pool.deallocate(p);
  const pool_stats s = pool.stats();
  EXPECT_EQ(s.allocs, 500u);
  EXPECT_EQ(s.frees, 500u);
  EXPECT_EQ(s.live(), 0u);
  EXPECT_GT(s.slab_growths, 1u);  // 4 KiB slabs can't hold 500 wide cells
}

TEST(SlabPool, ExactlyOneConstructionAndDestructionPerObject) {
  counted::ctors.store(0);
  counted::dtors.store(0);
  slab_pool<counted> pool("counted");
  std::vector<counted*> live;
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 100; ++i) {
      counted* c = pool.create(static_cast<std::uint64_t>(i));
      ASSERT_EQ(c->payload[2], static_cast<std::uint64_t>(i) + 2)
          << "recycled cell must be freshly constructed";
      live.push_back(c);
    }
    for (counted* c : live) pool.destroy(c);
    live.clear();
  }
  EXPECT_EQ(counted::ctors.load(), 300);
  EXPECT_EQ(counted::dtors.load(), 300);
  EXPECT_EQ(pool.stats().live(), 0u);
}

TEST(SlabPool, SteadyStateChurnStopsGrowingSlabs) {
  slab_pool<counted> pool("steady");
  auto churn = [&] {
    std::vector<counted*> batch;
    for (int i = 0; i < 200; ++i) batch.push_back(pool.create());
    for (counted* c : batch) pool.destroy(c);
  };
  churn();  // warm-up carves the working set
  const pool_stats warm = pool.stats();
  for (int round = 0; round < 50; ++round) churn();
  const pool_stats after = pool.stats();
  EXPECT_EQ(after.slab_growths, warm.slab_growths)
      << "steady-state churn must not touch the upstream allocator";
  EXPECT_EQ(after.carved, warm.carved);
  EXPECT_GT(after.allocs, warm.allocs);
  EXPECT_GT(after.recycles, warm.recycles);
}

// The conformance storm: raw threads allocate and free at random, with a
// share of cells handed to ANOTHER thread for freeing (the cross-worker
// path future completion exercises). Conservation must hold exactly.
void run_cross_thread_storm(slab_pool<counted>& pool) {
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 20000;
  counted::ctors.store(0);
  counted::dtors.store(0);

  // One locked handoff queue per thread; thread t frees what lands in
  // queue t, regardless of who allocated it.
  struct handoff {
    std::mutex mu;
    std::deque<counted*> q;
  };
  std::vector<handoff> queues(kThreads);
  std::atomic<bool> go{false};
  std::atomic<int> done{0};

  auto worker = [&](int me) {
    while (!go.load(std::memory_order_acquire)) {
    }
    std::vector<counted*> mine;
    for (int i = 0; i < kOpsPerThread; ++i) {
      const std::uint64_t dice = thread_rng().below(4);
      if (dice == 0 && !mine.empty()) {
        pool.destroy(mine.back());  // local free
        mine.pop_back();
      } else if (dice == 1) {
        // Hand a cell to a neighbor for a cross-thread free.
        counted* c = pool.create();
        handoff& h = queues[(me + 1) % kThreads];
        std::lock_guard<std::mutex> lock(h.mu);
        h.q.push_back(c);
      } else if (dice == 2) {
        counted* c = nullptr;
        {
          handoff& h = queues[me];
          std::lock_guard<std::mutex> lock(h.mu);
          if (!h.q.empty()) {
            c = h.q.front();
            h.q.pop_front();
          }
        }
        if (c != nullptr) pool.destroy(c);  // remote free
      } else {
        mine.push_back(pool.create());
      }
    }
    for (counted* c : mine) pool.destroy(c);
    done.fetch_add(1, std::memory_order_release);
  };

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) threads.emplace_back(worker, t);
  go.store(true, std::memory_order_release);
  for (auto& th : threads) th.join();
  ASSERT_EQ(done.load(), kThreads);
  // Drain the stranded handoffs from the main thread (another remote free).
  for (auto& h : queues) {
    for (counted* c : h.q) pool.destroy(c);
    h.q.clear();
  }

  const pool_stats s = pool.stats();
  EXPECT_EQ(counted::ctors.load(), counted::dtors.load());
  EXPECT_EQ(s.allocs, s.frees);
  EXPECT_EQ(s.live(), 0u);
  EXPECT_EQ(s.allocs, static_cast<std::uint64_t>(counted::ctors.load()));
  EXPECT_GT(s.remote_frees, 0u) << "the storm must exercise cross-worker frees";
  // Every cell that was ever carved is now cached for reuse, none leaked.
  EXPECT_EQ(s.cached(), s.carved);
}

TEST(SlabPool, CrossThreadAllocFreeStorm) {
  slab_pool<counted> pool("storm");
  run_cross_thread_storm(pool);
}

TEST(SlabPool, OversubscribedThreadsFallBackToGlobalList) {
  // More threads than there are magazine slots cannot be spawned cheaply,
  // so exercise the bypass path directly through its primitive: a pool
  // whose user threads outnumber slots still conserves cells because the
  // bypass goes through the same stamped cells and global list. Here we
  // just verify heavy short-lived-thread traffic conserves.
  slab_pool<counted> pool("threads");
  for (int round = 0; round < 8; ++round) {
    std::vector<std::thread> threads;
    for (int t = 0; t < 8; ++t) {
      threads.emplace_back([&pool] {
        std::vector<counted*> mine;
        for (int i = 0; i < 200; ++i) mine.push_back(pool.create());
        for (counted* c : mine) pool.destroy(c);
      });
    }
    for (auto& th : threads) th.join();
  }
  const pool_stats s = pool.stats();
  EXPECT_EQ(s.allocs, s.frees);
  EXPECT_EQ(s.live(), 0u);
  EXPECT_LE(mem::claimed_thread_slots(), mem::max_thread_slots);
}

// --- geometry-derived magazine capacity --------------------------------------

class SlabGeometry : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SlabGeometry, MagazineCapHonorsByteBudgetAndClamp) {
  const std::size_t object_bytes = GetParam();
  slab_cache pool("geom", object_bytes, /*object_align=*/8);
  const std::uint32_t slots = pool.magazine_slots();
  EXPECT_GE(slots, slab_cache::mag_cap_min);
  EXPECT_LE(slots, slab_cache::mag_cap_max);
  const std::size_t budget = slab_cache::default_magazine_bytes;
  if (slots > slab_cache::mag_cap_min) {
    // Above the floor the byte budget binds: `slots` strides fit in it. (At
    // the floor the clamp wins — 8 cells of a 512B object exceed 4 KiB by
    // design, a magazine that flushes every few ops being the worse evil.)
    EXPECT_LE(slots * pool.cell_stride(), budget);
  }
  if (slots > slab_cache::mag_cap_min && slots < slab_cache::mag_cap_max) {
    // ...and it binds tightly: one more cell would overflow the budget.
    EXPECT_GT((slots + 1) * pool.cell_stride(), budget);
  }
  // A magazine holds exactly `slots` cells: the free that finds it full
  // flushes it down to half before parking its own cell. magazine_cells is
  // exact on a single thread.
  std::vector<void*> cells;
  for (std::uint32_t i = 0; i <= slots; ++i) cells.push_back(pool.allocate());
  pool.trim();  // empties the magazine; the held cells stay live
  for (std::uint32_t i = 0; i < slots; ++i) pool.deallocate(cells[i]);
  pool_stats s = pool.stats();
  EXPECT_EQ(s.magazine_cells, slots);
  EXPECT_EQ(s.magazine_flushes, 0u);
  pool.deallocate(cells[slots]);
  s = pool.stats();
  EXPECT_EQ(s.magazine_flushes, 1u);
  EXPECT_EQ(s.magazine_cells, slots / 2 + 1);
}

INSTANTIATE_TEST_SUITE_P(EightBToFiveTwelveB, SlabGeometry,
                         ::testing::Values(8, 16, 24, 48, 64, 96, 128, 256,
                                           512));

TEST(SlabGeometry, CustomMagazineBudgetIsHonored) {
  // 64B objects, 8B align: stride = 16 (header) + 64 = 80; 1024/80 = 12.
  slab_cache pool("custom", 64, 8, slab_cache::default_slab_bytes,
                  /*magazine_bytes=*/1024);
  EXPECT_EQ(pool.cell_stride(), 80u);
  EXPECT_EQ(pool.magazine_slots(), 12u);
  // A budget below 8 strides clamps up to the floor.
  slab_cache tiny("tiny", 64, 8, slab_cache::default_slab_bytes,
                  /*magazine_bytes=*/256);
  EXPECT_EQ(tiny.magazine_slots(), slab_cache::mag_cap_min);
}

// --- quiescent trim ----------------------------------------------------------

TEST(SlabPoolTrim, ChurnThenTrimReleasesEverySlabAndDoubleTrimIsANoOp) {
  slab_pool<counted> pool("trim", /*slab_bytes=*/4096);
  std::vector<counted*> cells;
  for (int i = 0; i < 1000; ++i) cells.push_back(pool.create());
  for (counted* c : cells) pool.destroy(c);
  const std::size_t slabs = pool.slab_count();
  EXPECT_GT(slabs, 2u);  // 4 KiB slabs cannot hold 1000 cells in one
  EXPECT_GT(pool.stats().retained(), 0u)
      << "after a full free the pool holds everything in magazines + list";

  const std::size_t released = pool.trim();
  EXPECT_EQ(released, slabs) << "no live cell -> every slab goes upstream";
  EXPECT_EQ(pool.slab_count(), 0u);
  EXPECT_EQ(pool.stats().retained(), 0u);
  EXPECT_EQ(pool.stats().slabs_released, released);
  // Regression: cached() once kept counting cells whose slabs had gone
  // upstream (carved - live ignores releases); after a quiescent full trim
  // the two custody views must agree.
  EXPECT_EQ(pool.stats().cached(), pool.stats().retained());
  EXPECT_EQ(pool.stats().cells_released, pool.stats().carved);

  EXPECT_EQ(pool.trim(), 0u) << "double trim must be a no-op";
  EXPECT_EQ(pool.stats().trims, 2u);
  EXPECT_EQ(pool.stats().slabs_released, released);

  // The pool stays serviceable: post-trim traffic re-carves fresh slabs.
  counted* c = pool.create(7);
  EXPECT_EQ(c->payload[0], 7u);
  EXPECT_EQ(pool.slab_count(), 1u);
  pool.destroy(c);
}

TEST(SlabPoolTrim, LiveCellsPinExactlyTheirSlab) {
  slab_pool<counted> pool("pin", /*slab_bytes=*/4096);
  std::vector<counted*> cells;
  for (int i = 0; i < 1000; ++i) cells.push_back(pool.create(1));
  counted* keeper = cells.back();
  cells.pop_back();
  keeper->payload[0] = 0xfeedface;
  for (counted* c : cells) pool.destroy(c);

  const std::size_t slabs = pool.slab_count();
  const std::size_t released = pool.trim();
  EXPECT_EQ(released, slabs - 1)
      << "one live cell pins exactly one slab; the rest must go";
  EXPECT_EQ(keeper->payload[0], 0xfeedfaceu)
      << "trim must never touch a live cell";

  // The pinned slab's free cells went back on the recycle list, not away
  // (bounded by one slab's worth — the pinned slab may be the partially
  // carved cursor slab, so exact equality with a full slab doesn't hold).
  EXPECT_GT(pool.stats().retained(), 0u);
  EXPECT_LE(pool.stats().retained() + pool.stats().live(),
            static_cast<std::uint64_t>(4096 / pool.cell_stride()));
  // Partial trim too: cached() counts only cells still in custody.
  EXPECT_EQ(pool.stats().cached(), pool.stats().retained());

  pool.destroy(keeper);
  EXPECT_EQ(pool.trim(), 1u) << "freeing the pin releases the last slab";
  EXPECT_EQ(pool.slab_count(), 0u);
}

TEST(SlabPoolTrim, LiveTrimSparesMagazinesAndCursorSlab) {
  // A live trim harvests only the global recycle list: cells still in this
  // thread's magazine count as in use and pin their slabs, and the cursor
  // slab is never retired. Every retired slab enters limbo whole.
  slab_pool<counted> pool("live", /*slab_bytes=*/4096,
                          /*magazine_bytes=*/256);
  std::vector<counted*> cells;
  for (int i = 0; i < 1000; ++i) cells.push_back(pool.create());
  for (counted* c : cells) pool.destroy(c);
  const std::size_t before = pool.slab_count();
  ASSERT_GT(before, 2u);

  const std::size_t retired = pool.trim_live();
  EXPECT_GT(retired, 0u);
  const pool_stats s = pool.stats();
  EXPECT_GT(s.magazine_cells, 0u) << "a live trim leaves magazines alone";
  EXPECT_EQ(pool.slab_count() + retired, before);
  EXPECT_LE(pool.slab_count(), s.magazine_cells + 1)
      << "only magazine-held cells and the cursor slab may keep a slab";
  EXPECT_GE(pool.slab_count(), 1u) << "the cursor slab is spared";
  EXPECT_EQ(s.slabs_retired, retired);
  EXPECT_EQ(s.slabs_released, 0u) << "a live trim never frees at once";
  EXPECT_EQ(s.slabs_reclaimed, 0u);
  EXPECT_EQ(s.limbo_cells, retired * (pool.slab_bytes() / pool.cell_stride()));
  EXPECT_EQ(s.cells_released, s.limbo_cells);

  // No thread is pinned, so two advances pass the retire epoch.
  mem::epoch::try_advance();
  mem::epoch::try_advance();
  mem::epoch::reclaim();
  const pool_stats after = pool.stats();
  EXPECT_EQ(after.limbo_cells, 0u);
  EXPECT_EQ(after.slabs_reclaimed, after.slabs_retired);
}

TEST(SlabPoolTrim, EngineTrimAfterChurnReleasesSlabsUpstream) {
  // The acceptance criterion: a future-churn run, then a quiescent
  // dag_engine::trim_pools() between run()s, must hand at least one slab
  // back to the OS while the runtime stays fully serviceable.
  runtime_config cfg{2, "dyn"};
  cfg.alloc = "pool:4096";  // small slabs so the churn spans several
  runtime rt(cfg);
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(harness::future_churn(rt, 2048), 2048u);
  }
  const pool_stats before = rt.pools().totals();
  EXPECT_GT(before.retained(), 0u);

  const std::size_t released = rt.trim_pools();
  EXPECT_GE(released, 1u);
  const pool_stats after = rt.pools().totals();
  EXPECT_EQ(after.slabs_released, released);
  EXPECT_LT(after.retained(), before.retained());
  EXPECT_EQ(after.cached(), after.retained())
      << "post-trim custody views must agree across every pool";
  // Pools whose cells all died with the run (future states, vertices,
  // dec-pairs) must be fully drained: their retained() drops to zero.
  for (const auto& row : rt.pools().rows()) {
    if (row.name.rfind("future_state", 0) == 0 ||
        row.name.rfind("vertex", 0) == 0 ||
        row.name.rfind("dec_pair", 0) == 0) {
      EXPECT_EQ(row.stats.live(), 0u) << row.name;
      EXPECT_EQ(row.stats.retained(), 0u) << row.name;
    }
  }

  // Post-trim the runtime re-carves and keeps delivering exactly-once.
  EXPECT_EQ(harness::future_churn(rt, 2048), 2048u);
  EXPECT_EQ(rt.pools().totals().trims, after.trims);
}

TEST(SlabPoolTrim, TrimReachesCounterAndOutsetCells) {
  // Counters and out-sets are plain pool cells, destroyed at release, so
  // after a burst nothing of theirs stays live and a quiescent trim can
  // hand their slabs back like any other pool's.
  runtime_config cfg{4, "dyn"};
  runtime rt(cfg);
  for (int i = 0; i < 4; ++i) {
    ASSERT_EQ(harness::future_churn(rt, 4096), 4096u);
  }
  rt.trim_pools();
  auto pool_named = [&rt](const std::string& prefix) {
    pool_stats sum;
    for (const auto& row : rt.pools().rows()) {
      if (row.name.rfind(prefix, 0) == 0) sum += row.stats;
    }
    return sum;
  };
  const pool_stats counters = pool_named("counter:");
  const pool_stats outsets = pool_named("outset:");
  EXPECT_GT(counters.allocs, 0u);
  EXPECT_EQ(counters.live(), 0u);
  EXPECT_EQ(outsets.live(), 0u);
  EXPECT_GE(outsets.slabs_released, 1u)
      << "the out-set pool's slabs must be reachable by a trim";
}

TEST(MallocPool, CountsEveryTripUpstream) {
  malloc_pool pool("baseline", sizeof(counted), alignof(counted));
  std::vector<void*> cells;
  for (int i = 0; i < 64; ++i) cells.push_back(pool.allocate());
  for (void* p : cells) pool.deallocate(p);
  const pool_stats s = pool.stats();
  EXPECT_EQ(s.allocs, 64u);
  EXPECT_EQ(s.frees, 64u);
  EXPECT_EQ(s.slab_growths, 64u) << "every malloc alloc is an upstream trip";
  EXPECT_EQ(s.recycles, 0u);
}

TEST(PoolRegistry, KeysByNameSizeAndAlignment) {
  slab_pool_registry reg;
  object_pool& a = reg.get("future_state", 48, 8);
  object_pool& b = reg.get("future_state", 48, 8);
  object_pool& c = reg.get("future_state", 64, 8);
  object_pool& d = reg.get("vertex", 48, 8);
  object_pool& e = reg.get("future_state", 48, 16);
  EXPECT_EQ(&a, &b) << "same name+size+align must be one pool";
  EXPECT_NE(&a, &c) << "same name, different size: distinct pools";
  EXPECT_NE(&a, &d);
  EXPECT_NE(&a, &e) << "stricter alignment must get its own (aligned) pool";
  EXPECT_EQ(e.object_align(), 16u);
  EXPECT_EQ(a.name(), "future_state:48:a8");
  EXPECT_EQ(reg.rows().size(), 4u);
}

TEST(PoolRegistry, SpecParsing) {
  EXPECT_EQ(make_pool_registry("malloc")->spec(), "malloc");
  EXPECT_EQ(make_pool_registry("alloc:malloc")->spec(), "malloc");
  EXPECT_EQ(make_pool_registry("pool")->spec(), "pool");
  EXPECT_EQ(make_pool_registry("pool:65536")->spec(), "pool:65536");
  EXPECT_EQ(make_pool_registry("alloc:pool:8192")->spec(), "pool:8192");
  // The magazine-budget field.
  EXPECT_EQ(make_pool_registry("pool:65536:4096")->spec(), "pool:65536:4096");
  // "adaptive" and "elim" are not pool fields.
  EXPECT_THROW(make_pool_registry("pool:adaptive"), std::invalid_argument);
  EXPECT_THROW(make_pool_registry("pool:elim"), std::invalid_argument);
  EXPECT_THROW(make_pool_registry("pool:8192:elim"), std::invalid_argument);
  EXPECT_THROW(make_pool_registry("pool:adaptive:elim"),
               std::invalid_argument);
  EXPECT_THROW(make_pool_registry("bogus"), std::invalid_argument);
  EXPECT_THROW(make_pool_registry("pool:64"), std::invalid_argument);
  EXPECT_THROW(make_pool_registry("pool:999999999"), std::invalid_argument);
  // Strict numeric fields: overflow and trailing garbage are invalid, not
  // out_of_range or silently truncated.
  EXPECT_THROW(make_pool_registry("pool:99999999999999999999"),
               std::invalid_argument);
  EXPECT_THROW(make_pool_registry("pool:8192kb"), std::invalid_argument);
  EXPECT_THROW(make_pool_registry("pool:-8192"), std::invalid_argument);
  EXPECT_THROW(make_pool_registry("pool:"), std::invalid_argument);
  // Magazine rails and the field-count cap.
  EXPECT_THROW(make_pool_registry("pool:65536:64"), std::invalid_argument);
  EXPECT_THROW(make_pool_registry("pool:65536:9999999"),
               std::invalid_argument);
  EXPECT_THROW(make_pool_registry("pool:65536:4096:64"),
               std::invalid_argument);
  EXPECT_THROW(make_pool_registry("pool:65536:"), std::invalid_argument);
  // The budget field reaches the pools the registry builds.
  auto reg = make_pool_registry("pool:65536:1024");
  auto* pool = dynamic_cast<slab_cache*>(&reg->get("x", 64, 8));
  ASSERT_NE(pool, nullptr);
  EXPECT_EQ(pool->magazine_slots(), 12u);  // 1024 / (16 hdr + 64) = 12
}

TEST(PoolRegistry, MallocRegistryServesWorkingPools) {
  auto reg = make_pool_registry("malloc");
  object_pool& p = reg->get("x", 32, 8);
  void* a = p.allocate();
  ASSERT_NE(a, nullptr);
  p.deallocate(a);
  EXPECT_EQ(reg->totals().allocs, 1u);
}

TEST(PoolRegistry, QuiescentTrimFlushesLiveTrimLimbo) {
  // A quiescent trim() also frees what an earlier trim_live() left in
  // epoch limbo, and counts those slabs in its total.
  mem::epoch::try_advance();  // settle limbo left by earlier tests
  mem::epoch::try_advance();
  mem::epoch::reclaim();
  auto reg = make_pool_registry("pool:4096:256");
  auto* pool = dynamic_cast<slab_cache*>(&reg->get("cells", 64, 8));
  ASSERT_NE(pool, nullptr);
  std::vector<void*> cells;
  for (int i = 0; i < 1000; ++i) cells.push_back(pool->allocate());
  for (void* p : cells) pool->deallocate(p);
  const std::size_t before = pool->slab_count();

  std::size_t reclaimed = 1;
  const std::size_t retired = reg->trim_live(&reclaimed);
  EXPECT_GT(retired, 0u);
  EXPECT_EQ(reclaimed, 0u) << "one advance cannot pass a fresh retire";
  EXPECT_GT(reg->totals().limbo_cells, 0u);

  EXPECT_EQ(reg->trim(), before)
      << "slabs freed now plus limbo slabs reclaimed: every slab";
  const pool_stats s = reg->totals();
  EXPECT_EQ(s.limbo_cells, 0u);
  EXPECT_EQ(s.retained(), 0u);
  EXPECT_EQ(s.slabs_reclaimed, s.slabs_retired);
  EXPECT_EQ(pool->slab_count(), 0u);
}

}  // namespace
}  // namespace spdag
