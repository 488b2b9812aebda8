// dag_service semantics across both schedulers: submit/wait round trips,
// no thread beyond the workers, arrival-order starts through the
// scheduler's injection queue, worker-side builds (no remote frees on a
// one-worker service), exactly-once completion under concurrent clients,
// admission backpressure (block and reject), shutdown drain/reject
// conservation (a reject shutdown reaches launchers that have not
// started), trim_pools() between bursts (with tickets kept out of the
// registry it trims), and the checked try_trim_pools no-op contract.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "dag/engine.hpp"
#include "dag/serial_executor.hpp"
#include "incounter/factory.hpp"
#include "mem/registry.hpp"
#include "service/service.hpp"

namespace spdag {
namespace {

using namespace std::chrono_literals;

service_config base_cfg(const std::string& sched, std::size_t workers = 2) {
  service_config cfg;
  cfg.rt.workers = workers;
  cfg.rt.sched = sched;
  return cfg;
}

// Polls `pred` until true or the deadline passes.
template <typename Pred>
bool eventually(Pred pred, std::chrono::milliseconds deadline = 5000ms) {
  const auto until = std::chrono::steady_clock::now() + deadline;
  while (std::chrono::steady_clock::now() < until) {
    if (pred()) return true;
    std::this_thread::sleep_for(1ms);
  }
  return pred();
}

// Threads of this process, settled: a thread joined a moment ago may still
// be listed for a few microseconds.
std::size_t settled_thread_count() {
  const auto count = [] {
    std::size_t n = 0;
    for (const auto& task :
         std::filesystem::directory_iterator("/proc/self/task")) {
      static_cast<void>(task);
      ++n;
    }
    return n;
  };
  std::size_t n = count();
  for (;;) {
    std::this_thread::sleep_for(1ms);
    const std::size_t again = count();
    if (again == n) return n;
    n = again;
  }
}

class ServiceTest : public ::testing::TestWithParam<std::string> {};

// The service has no thread of its own: its clients inject their
// launchers, so W workers are all it adds.
TEST_P(ServiceTest, AddsOnlyItsWorkerThreads) {
  if (!std::filesystem::exists("/proc/self/task")) {
    GTEST_SKIP() << "needs /proc/self/task";
  }
  constexpr std::size_t kWorkers = 3;
  std::size_t with_service = 0;
  {
    dag_service svc(base_cfg(GetParam(), kWorkers));
    ASSERT_TRUE(svc.submit([] {}).wait());  // every thread has started
    with_service = settled_thread_count();
  }
  // Compared with the count once the service is gone, not before it
  // existed: a sanitizer runtime starts a thread of its own at the
  // process's first thread creation.
  EXPECT_EQ(with_service - settled_thread_count(), kWorkers);
}

TEST_P(ServiceTest, SubmitWaitRoundTrip) {
  dag_service svc(base_cfg(GetParam()));
  std::atomic<int> ran{0};
  auto t = svc.submit([&ran] { ran.fetch_add(1); });
  ASSERT_TRUE(t.valid());
  EXPECT_TRUE(t.wait());
  EXPECT_EQ(ran.load(), 1);
  const auto s = svc.stats();
  EXPECT_EQ(s.submitted, 1u);
  EXPECT_EQ(s.admitted, 1u);
  EXPECT_EQ(s.completed, 1u);
  EXPECT_EQ(s.rejected, 0u);
}

TEST_P(ServiceTest, NestedParallelismInsideSubmission) {
  dag_service svc(base_cfg(GetParam()));
  std::atomic<int> leaves{0};
  auto t = svc.submit([&leaves] {
    fork2([&leaves] { fork2([&leaves] { leaves.fetch_add(1); },
                            [&leaves] { leaves.fetch_add(1); }); },
          [&leaves] { leaves.fetch_add(1); });
  });
  ASSERT_TRUE(t.valid());
  EXPECT_TRUE(t.wait());
  EXPECT_EQ(leaves.load(), 3);
}

// Launchers enter the scheduler's injection queue in submission order;
// with one worker the roots run in that order.
TEST_P(ServiceTest, SubmissionsStartInArrivalOrder) {
  constexpr int kJobs = 1000;
  dag_service svc(base_cfg(GetParam(), /*workers=*/1));
  std::vector<int> order;
  order.reserve(kJobs);
  std::vector<ticket> tickets;
  tickets.reserve(kJobs);
  for (int i = 0; i < kJobs; ++i) {
    tickets.push_back(svc.submit([&order, i] { order.push_back(i); }));
    ASSERT_TRUE(tickets.back().valid());
  }
  for (auto& t : tickets) EXPECT_TRUE(t.wait());
  ASSERT_EQ(order.size(), static_cast<std::size_t>(kJobs));
  for (int i = 0; i < kJobs; ++i) {
    ASSERT_EQ(order[static_cast<std::size_t>(i)], i) << "at position " << i;
  }
}

// Back-to-back round trips from several clients: the only wake a
// submission needs is the scheduler's, for its launcher, and each round
// trip lets the workers fall idle again. A lost wake-up hangs here.
TEST_P(ServiceTest, BackToBackRoundTripsComplete) {
  constexpr int kClients = 3;
  constexpr int kRoundTrips = 500;
  dag_service svc(base_cfg(GetParam()));
  std::atomic<int> ran{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      for (int i = 0; i < kRoundTrips; ++i) {
        auto t = svc.submit([&ran] { ran.fetch_add(1); });
        ASSERT_TRUE(t.valid());
        ASSERT_TRUE(t.wait());
      }
    });
  }
  for (auto& th : clients) th.join();
  EXPECT_EQ(ran.load(), kClients * kRoundTrips);
}

// The worker that runs a submission builds its (root, final) pair, so on a
// one-worker service every registry cell is allocated and freed by that
// worker. (A pair built by another thread would free four cells remotely:
// two vertices, the counter and the dec-pair.)
TEST_P(ServiceTest, OneWorkerServiceFreesNothingRemotely) {
  constexpr int kJobs = 10000;
  dag_service svc(base_cfg(GetParam(), /*workers=*/1));
  const std::uint64_t before = svc.rt().pools().totals().remote_frees;
  std::atomic<std::uint64_t> leaves{0};
  std::vector<ticket> tickets;
  tickets.reserve(kJobs);
  for (int i = 0; i < kJobs; ++i) {
    tickets.push_back(svc.submit([&leaves] {
      auto leaf = [&leaves] { leaves.fetch_add(1, std::memory_order_relaxed); };
      fork2(leaf, [leaf] { fork2(leaf, leaf); });
    }));
    ASSERT_TRUE(tickets.back().valid());
  }
  for (auto& t : tickets) ASSERT_TRUE(t.wait());
  EXPECT_EQ(leaves.load(), 3u * kJobs);
  EXPECT_EQ(svc.rt().pools().totals().remote_frees - before, 0u);
}

TEST_P(ServiceTest, ConcurrentClientsCompleteExactlyOnce) {
  constexpr int kClients = 4;
  constexpr int kPerClient = 200;
  dag_service svc(base_cfg(GetParam()));
  std::atomic<std::uint64_t> ran{0};
  std::atomic<int> ok_waits{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      for (int i = 0; i < kPerClient; ++i) {
        auto t = svc.submit([&ran] { ran.fetch_add(1); });
        ASSERT_TRUE(t.valid());
        if (t.wait()) ok_waits.fetch_add(1);
      }
    });
  }
  for (auto& th : clients) th.join();
  EXPECT_EQ(ran.load(), static_cast<std::uint64_t>(kClients) * kPerClient);
  EXPECT_EQ(ok_waits.load(), kClients * kPerClient);
  const auto s = svc.stats();
  EXPECT_EQ(s.submitted, static_cast<std::uint64_t>(kClients) * kPerClient);
  EXPECT_EQ(s.completed, s.admitted);
  EXPECT_EQ(s.completed + s.rejected, s.submitted);
  EXPECT_EQ(s.inflight, 0u);
}

TEST_P(ServiceTest, RejectPolicyRefusesPastTheCap) {
  auto cfg = base_cfg(GetParam(), /*workers=*/2);
  cfg.max_inflight = 2;
  cfg.on_full = admission_policy::reject;
  dag_service svc(cfg);
  std::atomic<bool> gate{false};
  auto spin_until_gate = [&gate] {
    while (!gate.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
  };
  auto t1 = svc.submit(spin_until_gate);
  auto t2 = svc.submit(spin_until_gate);
  ASSERT_TRUE(t1.valid());
  ASSERT_TRUE(t2.valid());
  auto t3 = svc.submit([] {});  // cap is 2: refused at the door
  EXPECT_FALSE(t3.valid());
  EXPECT_FALSE(t3.wait());
  gate.store(true, std::memory_order_release);
  EXPECT_TRUE(t1.wait());
  EXPECT_TRUE(t2.wait());
  const auto s = svc.stats();
  EXPECT_EQ(s.rejected, 1u);
  EXPECT_EQ(s.completed, 2u);
  EXPECT_EQ(s.submitted, 3u);
  EXPECT_EQ(s.peak_inflight, 2u);
}

TEST_P(ServiceTest, BlockPolicyWaitsForASlot) {
  auto cfg = base_cfg(GetParam(), /*workers=*/2);
  cfg.max_inflight = 1;
  cfg.on_full = admission_policy::block;
  dag_service svc(cfg);
  std::atomic<bool> gate{false};
  std::atomic<int> ran{0};
  auto t1 = svc.submit([&gate, &ran] {
    while (!gate.load(std::memory_order_acquire)) std::this_thread::yield();
    ran.fetch_add(1);
  });
  ASSERT_TRUE(t1.valid());
  std::thread blocked([&svc, &ran] {
    auto t2 = svc.submit([&ran] { ran.fetch_add(1); });
    ASSERT_TRUE(t2.valid());  // block policy: admitted once a slot frees
    EXPECT_TRUE(t2.wait());
  });
  // The second submit must be parked in admission, not rejected.
  ASSERT_TRUE(eventually([&svc] { return svc.stats().blocked >= 1; }));
  EXPECT_EQ(svc.stats().rejected, 0u);
  gate.store(true, std::memory_order_release);
  blocked.join();
  EXPECT_TRUE(t1.wait());
  EXPECT_EQ(ran.load(), 2);
  EXPECT_EQ(svc.stats().completed, 2u);
}

TEST_P(ServiceTest, ShutdownDrainCompletesInflight) {
  constexpr int kJobs = 64;
  auto svc = std::make_unique<dag_service>(base_cfg(GetParam()));
  std::atomic<int> ran{0};
  std::vector<ticket> tickets;
  tickets.reserve(kJobs);
  for (int i = 0; i < kJobs; ++i) {
    tickets.push_back(svc->submit([&ran] { ran.fetch_add(1); }));
    ASSERT_TRUE(tickets.back().valid());
  }
  svc->shutdown(dag_service::drain_mode::drain);
  for (auto& t : tickets) EXPECT_TRUE(t.wait());
  EXPECT_EQ(ran.load(), kJobs);
  const auto s = svc->stats();
  EXPECT_EQ(s.completed, static_cast<std::uint64_t>(kJobs));
  EXPECT_EQ(s.inflight, 0u);
  // Tickets may not outlive the service.
  tickets.clear();
  svc.reset();
}

TEST_P(ServiceTest, SubmitAfterShutdownRejects) {
  dag_service svc(base_cfg(GetParam()));
  EXPECT_TRUE(svc.submit([] {}).wait());
  svc.shutdown();
  auto t = svc.submit([] {});
  EXPECT_FALSE(t.valid());
  const auto s = svc.stats();
  EXPECT_EQ(s.rejected, 1u);
  EXPECT_EQ(s.completed + s.rejected, s.submitted);
}

TEST_P(ServiceTest, ShutdownRejectConservesAndNeverHangs) {
  constexpr int kClients = 4;
  constexpr int kPerClient = 100;
  dag_service svc(base_cfg(GetParam()));
  std::atomic<std::uint64_t> ran{0};
  std::vector<std::vector<ticket>> tickets(kClients);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    tickets[static_cast<std::size_t>(c)].reserve(kPerClient);
    clients.emplace_back([&, c] {
      for (int i = 0; i < kPerClient; ++i) {
        tickets[static_cast<std::size_t>(c)].push_back(
            svc.submit([&ran] { ran.fetch_add(1); }));
      }
    });
  }
  std::this_thread::sleep_for(1ms);
  svc.shutdown(dag_service::drain_mode::reject);
  for (auto& th : clients) th.join();
  // Every valid ticket resolves (completed or rejected) — no hangs.
  std::uint64_t completed_waits = 0, invalid = 0;
  for (auto& per_client : tickets) {
    for (auto& t : per_client) {
      if (!t.valid()) {
        ++invalid;
        EXPECT_FALSE(t.wait());
      } else if (t.wait()) {
        ++completed_waits;
      }
    }
  }
  const auto s = svc.stats();
  EXPECT_EQ(s.submitted, static_cast<std::uint64_t>(kClients) * kPerClient);
  EXPECT_EQ(s.completed + s.rejected, s.submitted);
  EXPECT_EQ(s.completed, s.admitted);
  EXPECT_EQ(s.completed, completed_waits);
  EXPECT_EQ(s.completed, ran.load());
  EXPECT_GE(s.rejected, invalid);  // door rejects + any drained-queue rejects
  EXPECT_EQ(s.inflight, 0u);
}

// A reject shutdown reaches launchers that have not started. One worker is
// held on a gate by the first job while kQueued more submissions wait
// behind it; shutdown(reject) from another thread must reject all of them
// once the gate opens. Probe submissions (also queued until shutdown
// refuses one) drop their tickets at once, so each of their launchers
// frees its own ticket from inside its body.
TEST_P(ServiceTest, RejectShutdownRejectsLaunchersNotYetStarted) {
  constexpr int kQueued = 64;
  dag_service svc(base_cfg(GetParam(), /*workers=*/1));
  std::atomic<bool> started{false};
  std::atomic<bool> gate{false};
  std::atomic<int> ran{0};
  ticket first = svc.submit([&started, &gate] {
    started.store(true, std::memory_order_release);
    while (!gate.load(std::memory_order_acquire)) std::this_thread::yield();
  });
  ASSERT_TRUE(first.valid());
  while (!started.load(std::memory_order_acquire)) std::this_thread::yield();
  std::vector<ticket> queued;
  for (int i = 0; i < kQueued; ++i) {
    queued.push_back(svc.submit([&ran] { ran.fetch_add(1); }));
    ASSERT_TRUE(queued.back().valid());
  }
  std::thread stopper(
      [&svc] { svc.shutdown(dag_service::drain_mode::reject); });
  // Shutdown has begun once a submission is refused at the door.
  std::uint64_t probes = 0;
  for (;;) {
    ++probes;
    if (!svc.submit([&ran] { ran.fetch_add(1); }).valid()) break;
    std::this_thread::sleep_for(100us);
  }
  gate.store(true, std::memory_order_release);
  stopper.join();
  EXPECT_TRUE(first.wait());
  for (auto& t : queued) EXPECT_FALSE(t.wait());
  EXPECT_EQ(ran.load(), 0);
  const auto s = svc.stats();
  EXPECT_EQ(s.submitted, 1 + kQueued + probes);
  EXPECT_EQ(s.admitted, 1u);
  EXPECT_EQ(s.completed, s.admitted);
  EXPECT_EQ(s.completed + s.rejected, s.submitted);
  EXPECT_EQ(s.inflight, 0u);
  queued.clear();  // tickets may not outlive the service
}

// Regression for the admit/shutdown TOCTOU: a submitter that passes the
// stop check just before shutdown() must either be visible to the drain
// protocol (inflight_ raised before shutdown()'s drain wait can pass)
// or be rejected — never left holding a valid ticket nobody will resolve.
// Each iteration races clients submitting flat-out against an almost
// immediate drain shutdown; a regression shows up as wait() hanging (test
// timeout) or a conservation failure.
TEST_P(ServiceTest, DrainShutdownRacingSubmittersNeverStrandsATicket) {
  constexpr int kIterations = 20;
  constexpr int kClients = 3;
  constexpr int kMaxPerClient = 5000;
  for (int it = 0; it < kIterations; ++it) {
    dag_service svc(base_cfg(GetParam()));
    std::atomic<bool> go{false};
    std::vector<std::vector<ticket>> tickets(kClients);
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        while (!go.load(std::memory_order_acquire)) {
        }
        for (int i = 0; i < kMaxPerClient; ++i) {
          tickets[static_cast<std::size_t>(c)].push_back(svc.submit([] {}));
        }
      });
    }
    go.store(true, std::memory_order_release);
    // Vary the race window (µs scale, busy-wait — yielding here deschedules
    // to the flat-out submitters and costs milliseconds per yield) so
    // shutdown lands at different points in the submit hot path.
    const auto window = std::chrono::microseconds(it * 40);
    for (const auto until = std::chrono::steady_clock::now() + window;
         std::chrono::steady_clock::now() < until;) {
    }
    svc.shutdown(dag_service::drain_mode::drain);
    for (auto& th : clients) th.join();
    std::uint64_t completed_waits = 0;
    for (auto& per_client : tickets) {
      for (auto& t : per_client) {
        if (t.valid() && t.wait()) ++completed_waits;
      }
    }
    const auto s = svc.stats();
    ASSERT_EQ(s.completed + s.rejected, s.submitted);
    ASSERT_EQ(s.completed, s.admitted);
    ASSERT_EQ(s.completed, completed_waits);
    ASSERT_EQ(s.inflight, 0u);
    tickets.clear();  // tickets may not outlive the service
  }
}

TEST_P(ServiceTest, TrimPoolsBetweenBursts) {
  dag_service svc(base_cfg(GetParam(), /*workers=*/2));
  auto burst = [&svc](int jobs) {
    std::atomic<std::uint64_t> leaves{0};
    std::vector<ticket> tickets;
    tickets.reserve(static_cast<std::size_t>(jobs));
    for (int i = 0; i < jobs; ++i) {
      tickets.push_back(svc.submit([&leaves] {
        // Allocation-heavy: a depth-4 fork tree (~16 leaves) churns vertex
        // and dec-pair pool cells on every submission.
        fork2(
            [&leaves] {
              fork2([&leaves] { fork2([&leaves] { leaves.fetch_add(1); },
                                      [&leaves] { leaves.fetch_add(1); }); },
                    [&leaves] { leaves.fetch_add(1); });
            },
            [&leaves] {
              fork2([&leaves] { leaves.fetch_add(1); },
                    [&leaves] { leaves.fetch_add(1); });
            });
      }));
    }
    std::uint64_t ok = 0;
    for (auto& t : tickets) ok += t.wait() ? 1 : 0;
    return ok;
  };
  // A submission in flight keeps the pools in use: no trim.
  std::atomic<bool> gate{false};
  ticket held = svc.submit([&gate] {
    while (!gate.load(std::memory_order_acquire)) std::this_thread::yield();
  });
  ASSERT_TRUE(held.valid());
  EXPECT_FALSE(svc.trim_pools());
  gate.store(true, std::memory_order_release);
  EXPECT_TRUE(held.wait());
  EXPECT_EQ(svc.stats().idle_trims, 0u);

  EXPECT_EQ(burst(500), 500u);
  // The burst is over: the trim must give slabs back upstream. (retained()
  // does not reach exactly 0: trim leaves free cells of pinned slabs on the
  // recycle list — so assert the parts a trim fully controls: flushed
  // magazines and released slabs.)
  ASSERT_TRUE(svc.trim_pools());
  EXPECT_EQ(svc.stats().idle_trims, 1u);
  EXPECT_GE(svc.stats().slabs_released, 1u);
  EXPECT_EQ(svc.rt().pools().totals().magazine_cells, 0u)
      << "trim left magazine cells; retained="
      << svc.rt().pools().totals().retained();
  // Tickets come from the service's own pool, never from the registry the
  // trim releases.
  for (const auto& row : svc.rt().pools().rows()) {
    EXPECT_EQ(row.name.find("service_ticket"), std::string::npos) << row.name;
  }
  // The service must still be fully serviceable after trimming.
  EXPECT_EQ(burst(100), 100u);
  const auto s = svc.stats();
  EXPECT_EQ(s.completed, 601u);
  EXPECT_EQ(s.completed + s.rejected, s.submitted);
  svc.shutdown();
  EXPECT_FALSE(svc.trim_pools());
  EXPECT_EQ(svc.stats().idle_trims, 1u);
}

INSTANTIATE_TEST_SUITE_P(Schedulers, ServiceTest,
                         ::testing::Values("ws", "private"));

// --- try_trim_pools contract (deterministic, serial executor) ---------------

TEST(TryTrimPools, RefusesWhileLiveAndTrimsAtQuiescence) {
  serial_executor exec;
  slab_pool_registry pools;
  auto factory = make_counter_factory("dyn");
  dag_engine engine(*factory, exec, {.pools = &pools});

  auto [root, final_v] = engine.make();
  root->body = [] {};
  final_v->body = [] {};
  engine.add(root);
  ASSERT_GT(engine.live_vertices(), 0u);
  std::size_t released = 0xdead;
  EXPECT_FALSE(engine.try_trim_pools(&released));
  EXPECT_EQ(released, 0xdeadu);  // refused without touching the out-param

  exec.run_all(engine);
  ASSERT_EQ(engine.live_vertices(), 0u);
  EXPECT_TRUE(engine.try_trim_pools(&released));
  EXPECT_EQ(pools.totals().retained(), 0u);
  // And again: trimming an already-trimmed engine is a clean success.
  EXPECT_TRUE(engine.try_trim_pools());
}

}  // namespace
}  // namespace spdag
