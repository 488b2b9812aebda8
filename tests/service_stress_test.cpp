// Adversarial dag_service concurrency (stress lane; CI re-runs this under
// TSan and ASan): a multi-client completion storm over both schedulers with
// a small admission cap forcing constant blocking, a trimmer thread calling
// trim_pools() while clients submit and free tickets (the service's
// trim-safety argument: a trim closes admission, and tickets live outside
// the registry it releases), and a thread-slot
// exhaustion run where more concurrently-live client threads than
// mem::max_thread_slots hammer submit() — over-cap threads must fall back
// to uncached allocation gracefully (src/mem/thread_slot.hpp), never fail.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "dag/engine.hpp"
#include "mem/thread_slot.hpp"
#include "service/service.hpp"

namespace spdag {
namespace {

class ServiceStressTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ServiceStressTest, CompletionStormUnderTightAdmission) {
  constexpr int kClients = 8;
  constexpr int kPerClient = 250;
  service_config cfg;
  cfg.rt.workers = 4;
  cfg.rt.sched = GetParam();
  cfg.max_inflight = 16;  // far below the offered load: admission must block
  cfg.on_full = admission_policy::block;
  dag_service svc(cfg);

  std::atomic<std::uint64_t> leaves{0};
  std::atomic<std::uint64_t> ok_waits{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    // Open-loop clients: fire the whole batch without waiting, so the
    // offered load (8 × 250) piles up against the cap of 16 and admission
    // MUST block, then collect every ticket.
    clients.emplace_back([&] {
      std::vector<ticket> tickets;
      tickets.reserve(kPerClient);
      for (int i = 0; i < kPerClient; ++i) {
        tickets.push_back(svc.submit([&leaves] {
          fork2([&leaves] { leaves.fetch_add(1, std::memory_order_relaxed); },
                [&leaves] {
                  fork2([&leaves] {
                          leaves.fetch_add(1, std::memory_order_relaxed);
                        },
                        [&leaves] {
                          leaves.fetch_add(1, std::memory_order_relaxed);
                        });
                });
        }));
        ASSERT_TRUE(tickets.back().valid());
      }
      for (auto& t : tickets) {
        if (t.wait()) ok_waits.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& th : clients) th.join();

  const std::uint64_t n = static_cast<std::uint64_t>(kClients) * kPerClient;
  EXPECT_EQ(ok_waits.load(), n);         // every submission completed...
  EXPECT_EQ(leaves.load(), 3 * n);       // ...and ran its body exactly once
  const auto s = svc.stats();
  EXPECT_EQ(s.submitted, n);
  EXPECT_EQ(s.admitted, n);
  EXPECT_EQ(s.completed, n);
  EXPECT_EQ(s.rejected, 0u);
  EXPECT_GT(s.blocked, 0u);              // the cap actually bit
  EXPECT_LE(s.peak_inflight, cfg.max_inflight);
  EXPECT_EQ(s.inflight, 0u);
}

TEST_P(ServiceStressTest, TrimsRaceTicketTraffic) {
  // A trimmer thread calls trim_pools() every 100 us while clients submit
  // small bursts, wait, drop their tickets and sleep about 2 ms, out of
  // phase with each other. So trims land in the quiet gaps while other
  // clients are mid-submit or mid-release, and submits arrive while a trim
  // holds admission closed. Each client keeps going until the trimmer has
  // counted kTrims successful trims (bounded by kMaxRounds), so the trims
  // ran while clients still cycled.
  constexpr int kClients = 4;
  constexpr int kMinRounds = 60;
  constexpr int kMaxRounds = 1000;
  constexpr std::uint64_t kTrims = 20;
  service_config cfg;
  cfg.rt.workers = 2;
  cfg.rt.sched = GetParam();
  dag_service svc(cfg);

  std::atomic<std::uint64_t> trims{0};
  std::atomic<bool> clients_done{false};
  std::thread trimmer([&] {
    while (!clients_done.load(std::memory_order_acquire)) {
      if (svc.trim_pools()) trims.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  });
  std::atomic<std::uint64_t> leaves{0};
  std::atomic<std::uint64_t> ok_waits{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      std::minstd_rand rng(static_cast<unsigned>(c) + 1);
      std::uniform_int_distribution<int> burst_len(1, 8);
      std::uniform_int_distribution<int> sleep_us(1500, 2500);
      std::vector<ticket> tickets;
      for (int round = 0; round < kMaxRounds; ++round) {
        if (round >= kMinRounds &&
            trims.load(std::memory_order_relaxed) >= kTrims) {
          break;
        }
        const int n = burst_len(rng);
        for (int i = 0; i < n; ++i) {
          tickets.push_back(svc.submit([&leaves] {
            fork2([&leaves] { leaves.fetch_add(1, std::memory_order_relaxed); },
                  [&leaves] {
                    fork2([&leaves] {
                            leaves.fetch_add(1, std::memory_order_relaxed);
                          },
                          [&leaves] {
                            leaves.fetch_add(1, std::memory_order_relaxed);
                          });
                  });
          }));
          ASSERT_TRUE(tickets.back().valid());
        }
        for (auto& t : tickets) {
          if (t.wait()) ok_waits.fetch_add(1, std::memory_order_relaxed);
        }
        tickets.clear();  // the final ticket releases race the trimmer
        std::this_thread::sleep_for(std::chrono::microseconds(sleep_us(rng)));
      }
    });
  }
  for (auto& th : clients) th.join();
  clients_done.store(true, std::memory_order_release);
  trimmer.join();

  const auto s = svc.stats();
  EXPECT_EQ(s.submitted, ok_waits.load());
  EXPECT_EQ(s.admitted, s.submitted);
  EXPECT_EQ(s.completed, s.submitted);
  EXPECT_EQ(s.rejected, 0u);
  EXPECT_EQ(leaves.load(), 3 * s.completed);
  EXPECT_EQ(s.inflight, 0u);
  EXPECT_GE(trims.load(), kTrims);
  EXPECT_EQ(s.idle_trims, trims.load());
  EXPECT_GE(s.slabs_released, 1u);
}

TEST_P(ServiceStressTest, MoreClientThreadsThanThreadSlots) {
  // Every client thread claims a mem::thread_slot() on its first pooled
  // allocation and keeps it until thread exit. Hold all clients alive until
  // every one is done, so their live count genuinely exceeds the slot cap
  // and the overflow threads exercise the slotless (-1) fallback.
  const int kClients = mem::max_thread_slots + 44;
  constexpr int kPerClient = 3;
  service_config cfg;
  cfg.rt.workers = 4;
  cfg.rt.sched = GetParam();
  dag_service svc(cfg);

  std::atomic<std::uint64_t> ran{0};
  std::atomic<std::uint64_t> ok_waits{0};
  std::atomic<int> finished{0};
  std::atomic<bool> all_done{false};
  std::vector<std::thread> clients;
  clients.reserve(static_cast<std::size_t>(kClients));
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      for (int i = 0; i < kPerClient; ++i) {
        auto t = svc.submit(
            [&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
        ASSERT_TRUE(t.valid());
        if (t.wait()) ok_waits.fetch_add(1, std::memory_order_relaxed);
      }
      finished.fetch_add(1, std::memory_order_acq_rel);
      // Park (still alive, slot still claimed) until the whole cohort is
      // done — otherwise early finishers return their slots and the cap is
      // never actually exceeded.
      while (!all_done.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
    });
  }
  while (finished.load(std::memory_order_acquire) < kClients) {
    std::this_thread::yield();
  }
  all_done.store(true, std::memory_order_release);
  for (auto& th : clients) th.join();

  const std::uint64_t n =
      static_cast<std::uint64_t>(kClients) * kPerClient;
  EXPECT_EQ(ran.load(), n);
  EXPECT_EQ(ok_waits.load(), n);
  const auto s = svc.stats();
  EXPECT_EQ(s.completed, n);
  EXPECT_EQ(s.rejected, 0u);
  EXPECT_EQ(s.inflight, 0u);
}

INSTANTIATE_TEST_SUITE_P(Schedulers, ServiceStressTest,
                         ::testing::Values("ws", "private"));

}  // namespace
}  // namespace spdag
