// Adversarial storms for the epoch-based reclamation layer (stress lane;
// CI re-runs this under TSan and ASan, where the instrumentation — not the
// assertions — is the real check: a reclaim racing a pinned reader is a
// use-after-free the sanitizers see immediately).
//
// Three fronts:
//   * raw retire/reclaim conservation: many threads retiring while many
//     others pin/refresh/advance/sweep — every entry must run exactly once;
//   * slab_pool trim_live under an allocation storm: concurrent churners
//     against a trimmer thread; conservation plus retire/reclaim motion;
//   * a dag_service with an aggressive busy-trim cadence under multi-client
//     traffic — the end-to-end shape the whole layer exists for.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "mem/epoch.hpp"
#include "mem/slab_pool.hpp"
#include "service/service.hpp"

namespace spdag {
namespace {

namespace ep = mem::epoch;

void bump(void* a, void* /*b*/) noexcept {
  static_cast<std::atomic<int>*>(a)->fetch_add(1, std::memory_order_relaxed);
}

TEST(EpochReclaimStress, RetireStormRunsEveryEntryExactlyOnce) {
  constexpr int kRetirers = 4;
  constexpr int kMixers = 3;
  constexpr int kPerThread = 5000;

  std::vector<std::atomic<int>> flags(
      static_cast<std::size_t>(kRetirers) * kPerThread);
  for (auto& f : flags) f.store(0, std::memory_order_relaxed);

  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  threads.reserve(kRetirers + kMixers);
  for (int r = 0; r < kRetirers; ++r) {
    threads.emplace_back([&, r] {
      for (int i = 0; i < kPerThread; ++i) {
        ep::retire(&bump, &flags[static_cast<std::size_t>(r) * kPerThread + i],
                   nullptr);
        if ((i & 127) == 0) {
          ep::try_advance();
          ep::reclaim();
        }
      }
    });
  }
  for (int m = 0; m < kMixers; ++m) {
    threads.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        {
          ep::pin_guard pg;
          ep::refresh();
          ep::tick();
        }
        ep::try_advance();
        ep::reclaim();
        std::this_thread::yield();
      }
    });
  }
  for (int r = 0; r < kRetirers; ++r) threads[static_cast<std::size_t>(r)].join();
  stop.store(true, std::memory_order_release);
  for (int m = 0; m < kMixers; ++m) {
    threads[static_cast<std::size_t>(kRetirers + m)].join();
  }

  // Everyone has stopped pinning: a handful of advance+sweep rounds must
  // drain the limbo completely.
  for (int i = 0; i < 8 && ep::limbo_size() > 0; ++i) {
    ep::try_advance();
    ep::reclaim();
  }
  for (std::size_t i = 0; i < flags.size(); ++i) {
    ASSERT_EQ(flags[i].load(std::memory_order_relaxed), 1)
        << "entry " << i << " ran a wrong number of times";
  }
}

struct cell {
  std::uint64_t payload[6];
};

TEST(EpochReclaimStress, TrimLiveUnderAllocationStormConservesCells) {
  // Small slabs so bursts span many slabs and fully-free ones exist.
  slab_pool<cell> pool("epoch_storm", /*slab_bytes=*/4096);
  constexpr int kChurners = 4;
  constexpr int kRounds = 400;
  constexpr int kBatch = 200;

  std::atomic<bool> stop{false};
  std::thread trimmer([&] {
    // The adversary: retire fully-free slabs while the churners are mid
    // pop/push. Under TSan/ASan any window where a reader dereferences a
    // freed slab is caught here.
    while (!stop.load(std::memory_order_acquire)) {
      pool.trim_live();
      ep::try_advance();
      ep::reclaim();
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> churners;
  churners.reserve(kChurners);
  for (int c = 0; c < kChurners; ++c) {
    churners.emplace_back([&] {
      std::vector<cell*> batch;
      batch.reserve(kBatch);
      for (int round = 0; round < kRounds; ++round) {
        for (int i = 0; i < kBatch; ++i) {
          cell* p = pool.create();
          p->payload[0] = static_cast<std::uint64_t>(round);
          batch.push_back(p);
        }
        for (cell* p : batch) {
          ASSERT_EQ(p->payload[0], static_cast<std::uint64_t>(round));
          pool.destroy(p);
        }
        batch.clear();
      }
    });
  }
  for (auto& t : churners) t.join();
  stop.store(true, std::memory_order_release);
  trimmer.join();

  const pool_stats s = pool.stats();
  EXPECT_EQ(s.allocs, s.frees) << "churners returned everything";
  EXPECT_EQ(s.live(), 0u);
  EXPECT_GE(s.slabs_retired, s.slabs_reclaimed)
      << "a slab cannot be reclaimed before it was retired";
  // Quiesce the residue: everything retired must eventually reclaim.
  for (int i = 0; i < 8; ++i) {
    pool.trim_live();
    ep::try_advance();
    ep::reclaim();
  }
  EXPECT_EQ(pool.stats().slabs_retired, pool.stats().slabs_reclaimed);
}

TEST(EpochReclaimStress, ServiceBusyTrimUnderMultiClientTraffic) {
  constexpr int kClients = 6;
  constexpr int kPerClient = 300;
  service_config cfg;
  cfg.rt.workers = 3;
  // Small slabs + minimum magazines: burst frees overflow onto the global
  // recycle list, so trim_live() actually sees whole slabs drain and the
  // retire -> limbo -> reclaim path runs under sanitizer instrumentation
  // (default geometry strands cells in magazines and trims come up empty).
  cfg.rt.alloc = "pool:4096:256";
  cfg.max_inflight = 64;
  cfg.busy_trim_every = 8;  // aggressive cadence: trim while clearly busy
  dag_service svc(cfg);

  std::atomic<std::uint64_t> leaves{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      std::vector<ticket> tickets;
      tickets.reserve(kPerClient);
      for (int i = 0; i < kPerClient; ++i) {
        tickets.push_back(svc.submit([&leaves] {
          fork2([&leaves] { leaves.fetch_add(1, std::memory_order_relaxed); },
                [&leaves] {
                  fork2(
                      [&leaves] {
                        leaves.fetch_add(1, std::memory_order_relaxed);
                      },
                      [&leaves] {
                        leaves.fetch_add(1, std::memory_order_relaxed);
                      });
                });
        }));
        ASSERT_TRUE(tickets.back().valid());
      }
      for (auto& t : tickets) ASSERT_TRUE(t.wait());
    });
  }
  for (auto& th : clients) th.join();

  const std::uint64_t n = static_cast<std::uint64_t>(kClients) * kPerClient;
  EXPECT_EQ(leaves.load(), 3 * n);
  const service_stats s = svc.stats();
  EXPECT_EQ(s.submitted, n);
  EXPECT_EQ(s.completed, n);
  EXPECT_EQ(s.rejected, 0u);
  // n submissions at a cadence of 8 means the busy trim must have fired many
  // times while submissions were in flight.
  EXPECT_GT(s.busy_trims, 0u);
  EXPECT_GE(s.slabs_retired, s.slabs_reclaimed);
}

}  // namespace
}  // namespace spdag
